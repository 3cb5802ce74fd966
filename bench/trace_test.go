package main

import (
	"context"
	"math"
	"testing"
	"time"

	"distcfd/internal/core"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

const ms = time.Millisecond

func cspan(site int, method string, start, end time.Duration) span {
	return span{Site: site, Side: clientSide, Method: method, Start: start, End: end}
}

func sspan(site int, method string, start, end time.Duration) span {
	return span{Site: site, Side: serverSide, Method: method, Start: start, End: end}
}

// TestAttribute pins the sweep line on hand-built operations: time is
// split equally among overlapping calls, split between site work and
// remote overhead by the matching server span, and the shares always
// add up to the operation.
func TestAttribute(t *testing.T) {
	cases := []struct {
		name       string
		start, end time.Duration
		spans      []span
		remote     bool
		driverSelf float64 // all in milliseconds
		rpc        float64
		site       map[string]float64
		siteSum    map[string]float64
		calls      int
	}{
		{
			name: "no calls: all driver", start: 0, end: 10 * ms,
			driverSelf: 10,
		},
		{
			name: "one in-process call", start: 0, end: 10 * ms,
			spans:      []span{cspan(0, "ExtractBlocksBatch", 2*ms, 7*ms)},
			driverSelf: 5, site: map[string]float64{"extract": 5}, siteSum: map[string]float64{"extract": 5}, calls: 1,
		},
		{
			name: "remote call: server span splits work from overhead", start: 0, end: 10 * ms, remote: true,
			spans: []span{
				cspan(0, "DetectAssignedSet", 1*ms, 9*ms),
				sspan(0, "DetectAssignedSet", 3*ms, 8*ms),
			},
			driverSelf: 2, rpc: 3, site: map[string]float64{"detect": 5}, siteSum: map[string]float64{"detect": 5}, calls: 1,
		},
		{
			name: "two sites overlap: each instant is shared", start: 0, end: 10 * ms,
			spans: []span{
				cspan(0, "ExtractBlocksBatch", 0, 6*ms),
				cspan(1, "ExtractBlocksBatch", 2*ms, 10*ms),
			},
			// [0,2) site 0 alone, [2,6) halved, [6,10) site 1 alone.
			site: map[string]float64{"extract": 10}, siteSum: map[string]float64{"extract": 14}, calls: 2,
		},
		{
			name: "different methods overlap", start: 0, end: 8 * ms, remote: true,
			spans: []span{
				cspan(0, "Deposit", 0, 4*ms),
				sspan(0, "Deposit", 1*ms, 2*ms),
				cspan(1, "SigmaStats", 2*ms, 8*ms),
				sspan(1, "SigmaStats", 2*ms, 8*ms),
			},
			// [0,1) deposit rpc 1; [1,2) deposit work 1; [2,4) halved:
			// deposit rpc 1, sigma work 1; [4,8) sigma work 4.
			rpc: 2, site: map[string]float64{"deposit": 1, "sigma_stats": 5},
			siteSum: map[string]float64{"deposit": 1, "sigma_stats": 6}, calls: 2,
		},
		{
			name: "overlapping calls to one site pair with their own server spans", start: 0, end: 10 * ms, remote: true,
			spans: []span{
				cspan(2, "Deposit", 0, 6*ms),
				cspan(2, "Deposit", 1*ms, 10*ms),
				sspan(2, "Deposit", 2*ms, 4*ms),
				sspan(2, "Deposit", 7*ms, 9*ms),
			},
			// Server [2,4) fits both clients; the earlier client takes it,
			// which leaves [7,9) for the later one.
			// [0,1) c1 rpc 1; [1,2) both rpc 1; [2,4) c1 work 1, c2 rpc 1;
			// [4,6) both rpc 2; [6,7) c2 rpc 1; [7,9) c2 work 2; [9,10) rpc 1.
			rpc: 7, site: map[string]float64{"deposit": 3}, siteSum: map[string]float64{"deposit": 4}, calls: 2,
		},
		{
			name: "spans are clipped to the operation; strangers are dropped", start: 10 * ms, end: 20 * ms,
			spans: []span{
				cspan(0, "FoldDetect", 5*ms, 12*ms),
				cspan(1, "ApplyDelta", 30*ms, 40*ms),
			},
			driverSelf: 8, site: map[string]float64{"fold_detect": 2}, siteSum: map[string]float64{"fold_detect": 2}, calls: 1,
		},
		{
			name: "cleanup calls are timed under other", start: 0, end: 4 * ms,
			spans:      []span{cspan(0, "DropSession", 1*ms, 2*ms)},
			driverSelf: 3, site: map[string]float64{"other": 1}, siteSum: map[string]float64{"other": 1}, calls: 1,
		},
	}
	near := func(got, wantMS float64) bool { return math.Abs(got*1000-wantMS) < 1e-6 }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sh := attribute(tc.start, tc.end, tc.spans, tc.remote)
			if !near(sh.driverSelf, tc.driverSelf) || !near(sh.rpc, tc.rpc) || sh.calls != tc.calls {
				t.Errorf("driver %.3fms rpc %.3fms calls %d; want %v, %v, %d",
					sh.driverSelf*1000, sh.rpc*1000, sh.calls, tc.driverSelf, tc.rpc, tc.calls)
			}
			total := sh.driverSelf + sh.rpc
			for _, g := range methodGroups {
				if !near(sh.site[g], tc.site[g]) {
					t.Errorf("%s on the critical path: %.3fms, want %v", g, sh.site[g]*1000, tc.site[g])
				}
				if !near(sh.siteSum[g], tc.siteSum[g]) {
					t.Errorf("%s summed: %.3fms, want %v", g, sh.siteSum[g]*1000, tc.siteSum[g])
				}
				total += sh.site[g]
			}
			if math.Abs(total-sh.wall) > 1e-9 {
				t.Errorf("shares sum to %.6fs of a %.6fs operation", total, sh.wall)
			}
		})
	}
}

// TestTracedSiteForwards checks the optional interfaces the tree probes
// for reach the wrapped site, and that a wrapped call leaves one span.
func TestTracedSiteForwards(t *testing.T) {
	frag := workload.Cust(workload.CustConfig{N: 200, Seed: 1})
	site := core.NewSite(3, frag, relation.True())
	rec := newRecorder()
	var api core.SiteAPI = traced(site, rec, clientSide)

	if api.ID() != 3 {
		t.Errorf("ID %d", api.ID())
	}
	p, ok := api.(interface {
		DetectParallelism() int
		SetDetectParallelism(int)
	})
	if !ok {
		t.Fatal("parallelism knobs not forwarded: ServeAPIContext would skip its default")
	}
	p.SetDetectParallelism(5)
	if site.DetectParallelism() != 5 || p.DetectParallelism() != 5 {
		t.Errorf("parallelism %d at the site, %d through the wrapper", site.DetectParallelism(), p.DetectParallelism())
	}
	if err := api.Deposit(context.Background(), "task", frag, ""); err != nil {
		t.Fatal(err)
	}
	if n := api.(interface{ PendingDeposits() int }).PendingDeposits(); n != 1 {
		t.Errorf("PendingDeposits %d through the wrapper, want 1", n)
	}
	if api.(interface{ Draining() bool }).Draining() {
		t.Error("a site with no drain surface reads as draining")
	}
	api.(interface{ SetCallTimeout(time.Duration) }).SetCallTimeout(time.Second) // no-op on a local site
	if err := api.(interface{ Close() error }).Close(); err != nil {
		t.Error(err)
	}
	if len(rec.spans) != 1 || rec.spans[0].Method != "Deposit" || rec.spans[0].Rows != 200 || rec.spans[0].Bytes == 0 {
		t.Errorf("spans %+v", rec.spans)
	}
	if rec.largest != frag {
		t.Error("largest deposit not kept")
	}
}
