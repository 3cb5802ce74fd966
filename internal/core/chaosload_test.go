// Chaos-load tests: the overload-robustness layer under real
// concurrency — admission-controlled sites saturated by parallel
// compiled Detect sessions, a site draining mid-traffic, retry-after
// hints against context deadlines, and the incremental pipeline's
// drain recovery. `make chaos-load` runs this file under the race
// detector with a randomized, logged fault seed.
package core_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"distcfd/internal/core"
	"distcfd/internal/faulty"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// loadCluster builds a 3-site cluster over a mid-size Cust workload,
// returning the bare sites for deposit-leak checks alongside whatever
// wrap installed.
func loadCluster(t *testing.T, dataSeed int64, n int, wrap func(i int, s *core.Site) core.SiteAPI) (*core.Cluster, []*core.Site, *partition.Horizontal) {
	t.Helper()
	data := workload.Cust(workload.CustConfig{N: n, Seed: dataSeed, ErrRate: 0.05})
	h, err := partition.Uniform(data, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	bare := make([]*core.Site, h.N())
	sites := make([]core.SiteAPI, h.N())
	for i, frag := range h.Fragments {
		bare[i] = core.NewSite(i, frag, relation.True())
		sites[i] = wrap(i, bare[i])
	}
	cl, err := core.NewCluster(h.Schema, sites)
	if err != nil {
		t.Fatal(err)
	}
	return cl, bare, h
}

// TestChaosLoadConcurrentDetects is the acceptance scenario: 32
// concurrent compiled Detect sessions under FailDegrade against a
// cluster where one site runs a deliberately tiny admission controller
// (real overload rejections under contention) and another is drained
// mid-traffic. Every run must terminate before its deadline with a
// complete result or a correctly-typed partial one, no site may buffer
// a deposit afterwards, and neither the overloaded nor the draining
// site may trip its breaker — both answered every call.
func TestChaosLoadConcurrentDetects(t *testing.T) {
	const runs = 32
	const deadline = 60 * time.Second
	var adm0, adm1 *core.Admission
	cl, bare, h := loadCluster(t, 11, 900, func(i int, s *core.Site) core.SiteAPI {
		switch i {
		case 0:
			// Capacity far below 32 concurrent sessions' demand, a
			// near-zero wait budget (and so retry-after hint) — saturation
			// turns into typed overloaded rejections, not queueing.
			adm0 = core.WithAdmission(s, core.AdmissionPolicy{
				MaxConcurrent: 2, MaxQueue: 2, MaxWait: 2 * time.Millisecond, DrainTimeout: 2 * time.Second,
			})
			return adm0
		case 1:
			// Roomy, but drained once traffic is in full flight.
			adm1 = core.WithAdmission(s, core.AdmissionPolicy{
				MaxConcurrent: 64, MaxQueue: 64, MaxWait: 50 * time.Millisecond, DrainTimeout: 2 * time.Second,
			})
			return adm1
		}
		return s
	})

	p, err := core.CompileSet(context.Background(), cl, chaosCFDs(), core.PatDetectS,
		core.Options{Failure: core.FailDegrade}, true)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	results := make([]*core.Result, runs)
	errs := make([]error, runs)
	times := make([]time.Duration, runs)
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			start := time.Now()
			results[r], errs[r] = p.Detect(ctx)
			times[r] = time.Since(start)
		}(r)
	}
	// Drain site 1 once the fleet is in flight. Drain errors only when
	// in-flight work outlives DrainTimeout; either way the drain state
	// holds, which is all this test needs.
	time.Sleep(2 * time.Millisecond)
	if err := adm1.Drain(context.Background()); err != nil {
		t.Logf("drain returned %v (drain state holds regardless)", err)
	}
	wg.Wait()

	partials, completes := 0, 0
	for r := 0; r < runs; r++ {
		if errs[r] != nil {
			t.Errorf("run %d failed outright: %v (FailDegrade must always answer)", r, errs[r])
			continue
		}
		if times[r] >= deadline {
			t.Errorf("run %d took %v, at or past its %v deadline", r, times[r], deadline)
		}
		res := results[r]
		if res.Partial {
			partials++
			if len(res.ExcludedSites) == 0 {
				t.Errorf("run %d: Partial with no ExcludedSites", r)
			}
			if res.Coverage <= 0 || res.Coverage >= 1 {
				t.Errorf("run %d: partial Coverage = %v, want (0,1)", r, res.Coverage)
			}
		} else {
			completes++
			if len(res.ExcludedSites) != 0 || res.Coverage != 1 {
				t.Errorf("run %d: complete result with exclusions: %+v", r, res)
			}
		}
	}
	t.Logf("%d complete, %d partial of %d runs", completes, partials, runs)
	if partials == 0 {
		t.Error("no run degraded — the drain mid-traffic never bit")
	}
	assertNoDeposits(t, "chaos-load", bare)

	// Neither saturation nor draining is death: every breaker closed.
	hd := cl.HealthDetail()
	for i, h := range hd {
		if h.Breaker != core.BreakerClosed {
			t.Errorf("site %d breaker %v, want closed (overload/drain never feed breakers)", i, h.Breaker)
		}
	}
	if !hd[1].Draining {
		t.Error("HealthDetail must report site 1 draining")
	}
	if hd[0].Draining || hd[2].Draining {
		t.Errorf("only site 1 is draining: %+v", hd)
	}

	// Resume and verify the cluster serves complete, correct answers
	// again: byte-identical to a clean cluster over the same fragments.
	adm1.Resume()
	clean, err := core.FromHorizontal(h)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.DetectOnce(context.Background(), clean, chaosCFDs(), core.PatDetectS, core.Options{Workers: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	final, err := p.Detect(ctx)
	if err != nil {
		t.Fatalf("post-resume run failed: %v", err)
	}
	if final.Partial {
		t.Errorf("post-resume run still partial: %+v", final.ExcludedSites)
	}
	identicalViolations(t, "post-resume", final, want)
	// Complete runs from the storm must match too — overload retries
	// never bend results.
	for r := 0; r < runs; r++ {
		if errs[r] == nil && !results[r].Partial {
			identicalViolations(t, "complete-under-load", results[r], want)
		}
	}
	assertNoDeposits(t, "chaos-load-final", bare)
}

// TestChaosLoadOverloadEquivalence: injected overload rejections every
// 4th call, with a honored retry-after hint, are fully absorbed by
// FailRetry — violations and figures byte-identical to the fault-free
// run — and never feed the circuit breakers: an overloaded site
// answered, so it must not look dead.
func TestChaosLoadOverloadEquivalence(t *testing.T) {
	base := chaosSeed(t)
	baseline, _ := chaosCluster(t, 5, func(_ int, s *core.Site) core.SiteAPI { return s })
	want, err := core.DetectOnce(context.Background(), baseline, chaosCFDs(), core.PatDetectS, core.Options{Workers: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	cl, bare := chaosCluster(t, 5, func(i int, s *core.Site) core.SiteAPI {
		return faulty.Wrap(s, faulty.Plan{
			Seed:               base + int64(i),
			OverloadEvery:      4,
			OverloadRetryAfter: 200 * time.Microsecond,
		})
	})
	got, err := core.DetectOnce(context.Background(), cl, chaosCFDs(), core.PatDetectS, core.Options{Workers: 1, Failure: core.FailRetry}, true)
	if err != nil {
		t.Fatalf("overloaded run failed: %v", err)
	}
	identicalViolations(t, "overload-equivalence", got, want)
	if got.ShippedTuples != want.ShippedTuples || got.ModeledTime != want.ModeledTime {
		t.Errorf("figures bent under overload: %d/%v vs %d/%v",
			got.ShippedTuples, got.ModeledTime, want.ShippedTuples, want.ModeledTime)
	}
	if got.Faults == 0 || got.Retries == 0 {
		t.Error("the overload injection never bit — the equivalence was vacuous")
	}
	if got.Partial {
		t.Error("FailRetry must never degrade")
	}
	for i, h := range cl.HealthDetail() {
		if h.Breaker != core.BreakerClosed {
			t.Errorf("site %d breaker %v after overload-only faults, want closed", i, h.Breaker)
		}
	}
	assertNoDeposits(t, "overload-equivalence", bare)
}

// TestChaosLoadRetryAfterBeyondDeadline is the satellite regression: a
// retry-after hint longer than the remaining context budget must fail
// the run fast with DeadlineExceeded — never sleep through (let alone
// past) the deadline honoring a hint that cannot matter anymore.
func TestChaosLoadRetryAfterBeyondDeadline(t *testing.T) {
	// Every work call is rejected overloaded with a 10s hint — far beyond
	// the 300ms run budget. Compiling makes no site call.
	cl, _, _ := loadCluster(t, 3, 300, func(_ int, s *core.Site) core.SiteAPI {
		return faulty.Wrap(s, faulty.Plan{OverloadEvery: 1, OverloadRetryAfter: 10 * time.Second})
	})
	p, err := core.CompileSet(context.Background(), cl, chaosCFDs(), core.PatDetectS,
		core.Options{Failure: core.FailRetry}, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = p.Detect(ctx)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("a fully overloaded cluster cannot produce a result")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("run took %v: it slept toward a 10s retry-after hint instead of failing fast", elapsed)
	}
}

// TestChaosLoadDrainDegrade: a draining site under FailDegrade is
// rerouted around — the run completes partially over the reachable
// fragments, the drained site is named, its breaker stays closed (it
// answered every call), and no deposits leak. Covered both for a site
// that drains before its first call and one that drains mid-run.
func TestChaosLoadDrainDegrade(t *testing.T) {
	for _, tc := range []struct {
		name       string
		drainAfter int
	}{
		{"drain-from-start", 1},
		{"drain-mid-detect", 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const drained = 2
			cl, bare := chaosCluster(t, 4, func(i int, s *core.Site) core.SiteAPI {
				if i == drained {
					return faulty.Wrap(s, faulty.Plan{DrainAfter: tc.drainAfter})
				}
				return s
			})
			res, err := core.DetectOnce(context.Background(), cl, chaosCFDs(), core.PatDetectS, core.Options{Workers: 1, Failure: core.FailDegrade}, true)
			if err != nil {
				t.Fatalf("degraded run failed outright: %v", err)
			}
			if !res.Partial {
				t.Fatal("run against a draining site must report Partial")
			}
			if len(res.ExcludedSites) != 1 || res.ExcludedSites[0] != drained {
				t.Fatalf("ExcludedSites = %v, want [%d]", res.ExcludedSites, drained)
			}
			if res.Faults == 0 {
				t.Error("the drain injection never bit")
			}
			if st := cl.HealthDetail()[drained].Breaker; st != core.BreakerClosed {
				t.Errorf("draining site's breaker %v, want closed — draining is not death", st)
			}
			assertNoDeposits(t, tc.name, bare)

			// The partial answer equals a clean run over the reachable
			// fragments only.
			data := workload.Cust(workload.CustConfig{N: 1_500, Seed: 4, ErrRate: 0.05})
			h, err := partition.Uniform(data, 3, 1)
			if err != nil {
				t.Fatal(err)
			}
			rh := &partition.Horizontal{Schema: h.Schema, Fragments: h.Fragments[:drained]}
			rcl, err := core.FromHorizontal(rh)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.DetectOnce(context.Background(), rcl, chaosCFDs(), core.PatDetectS, core.Options{Workers: 1}, true)
			if err != nil {
				t.Fatal(err)
			}
			for ci := range want.PerCFD {
				if !samePatternSet(res.PerCFD[ci], want.PerCFD[ci]) {
					t.Errorf("cfd %d: degraded patterns differ from the reachable-only run\n got  %v\n want %v",
						ci, res.PerCFD[ci], want.PerCFD[ci])
				}
			}
		})
	}
}

// TestChaosLoadDrainDuringIncremental is the stale-watermark
// regression: a site draining between incremental rounds fails the
// round (incremental serving never excludes sites), and after Resume
// the next round transparently reseeds — its violations and figures
// byte-identical to a fresh full Detect over the same data, never a
// stale-watermark answer.
func TestChaosLoadDrainDuringIncremental(t *testing.T) {
	ctx := context.Background()
	adms := make([]*core.Admission, 3)
	cl, bare, _ := loadCluster(t, 12, 900, func(i int, s *core.Site) core.SiteAPI {
		adms[i] = core.WithAdmission(s, core.AdmissionPolicy{DrainTimeout: 2 * time.Second})
		return adms[i]
	})
	p, err := core.CompileSet(ctx, cl, chaosCFDs(), core.PatDetectS,
		core.Options{Failure: core.FailRetry}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Detect(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := p.DetectIncremental(ctx); err != nil {
		t.Fatalf("seeding incremental round failed: %v", err)
	}

	// Drain a site, then serve a delta round against it: the round must
	// fail typed — retried reseeds keep hitting the draining site — and
	// must not commit a watermark.
	if err := adms[1].Drain(ctx); err != nil {
		t.Fatal(err)
	}
	src := bare[0].Fragment().Tuple(3)
	delta := relation.Delta{Deletes: []int{1}, Inserts: []relation.Tuple{append(relation.Tuple(nil), src...)}}
	_, err = p.DetectDelta(ctx, map[int]relation.Delta{0: delta})
	if err == nil {
		t.Fatal("an incremental round against a draining site must fail (incremental never excludes)")
	}
	if core.ErrCodeOf(err) != core.CodeDraining {
		t.Fatalf("round failed with %v, want the typed draining error", err)
	}
	assertNoDeposits(t, "drained-incremental", bare)

	// Resume and run the next incremental round: it reseeds and serves
	// the applied delta — byte-identical to a fresh full Detect.
	adms[1].Resume()
	inc, err := p.DetectIncremental(ctx)
	if err != nil {
		t.Fatalf("post-resume incremental failed: %v", err)
	}
	want, err := p.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	identicalViolations(t, "post-resume-incremental", inc, want)
	if inc.ShippedTuples != want.ShippedTuples || inc.ModeledTime != want.ModeledTime {
		t.Errorf("post-resume incremental figures bent: %d/%v vs %d/%v",
			inc.ShippedTuples, inc.ModeledTime, want.ShippedTuples, want.ModeledTime)
	}
	if inc.Partial {
		t.Error("incremental serving must never report Partial")
	}
	assertNoDeposits(t, "post-resume-incremental", bare)
}
