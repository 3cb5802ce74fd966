package core_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"distcfd/internal/cfd"
	"distcfd/internal/core"
	"distcfd/internal/partition"
	"distcfd/internal/workload"
)

// BenchmarkAblationSigmaIndex compares σ pattern routing through the
// per-mask hash index against the naive first-match scan, on the
// 255-pattern CUST tableau (DESIGN.md ablation 3/4 substrate).
func BenchmarkAblationSigmaIndex(b *testing.B) {
	spec, err := core.SpecFromCFD(workload.CustPatternCFD(255))
	if err != nil {
		b.Fatal(err)
	}
	data := workload.Cust(workload.CustConfig{N: 20_000, Seed: 1, ErrRate: 0.01})
	xi, err := data.Schema().Indices(spec.X)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][]string, data.Len())
	for i, t := range data.Tuples() {
		rows[i] = t.Project(xi)
	}
	b.Run("hash-index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range rows {
				_ = spec.Assign(r)
			}
		}
	})
	b.Run("linear-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range rows {
				for _, p := range spec.Patterns {
					if cfd.MatchAll(r, p) {
						break
					}
				}
			}
		}
	})
}

// BenchmarkAblationAdmission (ablation 17) prices the admission
// controller on both sides of its bargain. "serial" is the zero-fault
// overhead question: one driver against idle controllers, so every
// site call pays the semaphore handshake and nothing ever queues.
// "oversub2x" is the protection question: 16 concurrent compiled Detect
// sessions against controllers that admit 8, with FailRetry honoring
// the retry-after hints, versus the same storm running unthrottled;
// sessions/sec is the headline metric.
func BenchmarkAblationAdmission(b *testing.B) {
	data := workload.Cust(workload.CustConfig{N: 20_000, Seed: 1, ErrRate: 0.01})
	h, err := partition.Uniform(data, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	// Six disjoint-LHS rules: every rule is its own unit.
	rules := []*cfd.CFD{
		workload.CustPatternCFD(128),
		cfd.MustParse(`i1: [CC, title] -> [price]`),
		cfd.MustParse(`i2: [name] -> [phn]`),
		cfd.MustParse(`i3: [AC, phn] -> [street]`),
		cfd.MustParse(`i4: [street, city] -> [zip]`),
		cfd.MustParse(`i5: [qty, price] -> [title]`),
	}
	ctx := context.Background()
	build := func(b *testing.B, admit bool) *core.Plan {
		b.Helper()
		// Default concurrency cap, but queue room for the whole storm: the
		// bench measures throughput under backpressure, not rejection rates.
		policy := core.AdmissionPolicy{MaxConcurrent: 8, MaxQueue: 32, MaxWait: time.Second}
		sites := make([]core.SiteAPI, h.N())
		for i, frag := range h.Fragments {
			sites[i] = core.NewSite(i, frag, h.Predicates[i])
			if admit {
				sites[i] = core.WithAdmission(sites[i], policy)
			}
		}
		cl, err := core.NewCluster(h.Schema, sites)
		if err != nil {
			b.Fatal(err)
		}
		p, err := core.CompileSet(ctx, cl, rules, core.PatDetectRT, core.Options{Failure: core.FailRetry}, true)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	const sessions = 16 // 2× the per-site MaxConcurrent of 8
	for _, concurrent := range []int{1, sessions} {
		name := "serial"
		if concurrent > 1 {
			name = "oversub2x"
		}
		for _, admit := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/admission=%v", name, admit), func(b *testing.B) {
				p := build(b, admit)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					errs := make([]error, concurrent)
					for s := range errs {
						wg.Add(1)
						go func(s int) {
							defer wg.Done()
							_, errs[s] = p.Detect(ctx)
						}(s)
					}
					wg.Wait()
					for s, err := range errs {
						if err != nil {
							b.Fatalf("session %d: %v", s, err)
						}
					}
				}
				b.ReportMetric(float64(concurrent*b.N)/b.Elapsed().Seconds(), "sessions/sec")
			})
		}
	}
}
