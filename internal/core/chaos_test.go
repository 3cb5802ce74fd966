// Chaos tests: the fault-injection harness (internal/faulty) against
// the retry/degrade layer. They live in the external test package
// because faulty imports core.
package core_test

import (
	"context"
	"encoding/binary"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/colstore"
	"distcfd/internal/core"
	"distcfd/internal/faulty"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// chaosSeed returns the base fault seed for this run: DISTCFD_CHAOS_SEED
// when set (make chaos randomizes and logs it, so any failure replays
// with the same seed), 0 otherwise. It offsets only the *fault-plan*
// seeds — data and partition seeds stay fixed, so the invariants under
// test never move; only which calls fault does.
func chaosSeed(t *testing.T) int64 {
	v := os.Getenv("DISTCFD_CHAOS_SEED")
	if v == "" {
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("DISTCFD_CHAOS_SEED=%q: %v", v, err)
	}
	t.Logf("fault seeds offset by DISTCFD_CHAOS_SEED=%d", n)
	return n
}

// chaosCFDs is the fault suites' rule set. Every rule carries one
// constant unit beside its variable ones, so a run still issues the
// Proposition 5 local step for each of them — a run skips it for a rule
// without a constant unit — and the call ordinals the fault plans below
// count (CrashAt, DrainAfter) land where they were chosen to.
func chaosCFDs() []*cfd.CFD {
	k16 := workload.CustPatternCFD(16)
	k16.Tp = append(k16.Tp, cfd.PatternTuple{LHS: []string{"01", "0100", cfd.Wildcard}, RHS: []string{"city_01_0100"}})
	return []*cfd.CFD{
		k16,
		cfd.MustParse(`i2: [name] -> [phn] : (_ || _), (name00042 || 0000042)`),
		cfd.MustParse(`i4: [street, city] -> [zip] : (_, _ || _), (street_01_000, city_01_0100 || zip_01_000)`),
	}
}

// chaosCluster builds a 3-site cluster over the Cust workload, wrapping
// each site through wrap (identity for the baseline).
func chaosCluster(t *testing.T, dataSeed int64, wrap func(i int, s *core.Site) core.SiteAPI) (*core.Cluster, []*core.Site) {
	t.Helper()
	data := workload.Cust(workload.CustConfig{N: 1_500, Seed: dataSeed, ErrRate: 0.05})
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
	return cl, bare
}

func identicalViolations(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	for ci := range want.PerCFD {
		g, w := got.PerCFD[ci], want.PerCFD[ci]
		if g.Len() != w.Len() {
			t.Fatalf("%s: cfd %d: %d patterns, want %d", label, ci, g.Len(), w.Len())
		}
		for i, tup := range w.Tuples() {
			if !tup.Equal(g.Tuple(i)) {
				t.Fatalf("%s: cfd %d: pattern %d differs: %v vs %v", label, ci, i, g.Tuple(i), tup)
			}
		}
	}
}

func assertNoDeposits(t *testing.T, label string, bare []*core.Site) {
	t.Helper()
	for i, s := range bare {
		if n := s.PendingDeposits(); n != 0 {
			t.Errorf("%s: site %d still buffers %d deposit tasks", label, i, n)
		}
	}
}

// TestChaosRetryEquivalence is the headline invariant: a 10%% per-call
// fault rate under FailRetry produces violation sets, ShippedTuples,
// and ModeledTime byte-identical to the fault-free run — the retries
// are charged only to the Retries/Faults channels, never to the
// figures.
func TestChaosRetryEquivalence(t *testing.T) {
	base := chaosSeed(t)
	var totalRetries int64
	for _, seed := range []int64{3, 5, 9} {
		baseline, bare := chaosCluster(t, seed, func(_ int, s *core.Site) core.SiteAPI { return s })
		want, err := core.DetectOnce(context.Background(), baseline, chaosCFDs(), core.PatDetectS, core.Options{Workers: 1}, true)
		if err != nil {
			t.Fatal(err)
		}
		if want.Retries != 0 || want.Faults != 0 || want.Partial || want.Coverage != 1 {
			t.Fatalf("seed %d: fault-free run reports fault stats: %+v", seed, want)
		}
		assertNoDeposits(t, "baseline", bare)

		faulted, fbare := chaosCluster(t, seed, func(i int, s *core.Site) core.SiteAPI {
			return faulty.Wrap(s, faulty.Plan{Seed: base + seed*31 + int64(i), Rate: 0.10})
		})
		got, err := core.DetectOnce(context.Background(), faulted, chaosCFDs(), core.PatDetectS, core.Options{Workers: 1, Failure: core.FailRetry}, true)
		if err != nil {
			t.Fatalf("seed %d: faulted run failed: %v", seed, err)
		}
		identicalViolations(t, "retry-equivalence", got, want)
		if got.ShippedTuples != want.ShippedTuples {
			t.Errorf("seed %d: shipped %d tuples, fault-free shipped %d", seed, got.ShippedTuples, want.ShippedTuples)
		}
		if got.ModeledTime != want.ModeledTime {
			t.Errorf("seed %d: modeled time %v, fault-free %v", seed, got.ModeledTime, want.ModeledTime)
		}
		if got.Partial || len(got.ExcludedSites) != 0 || got.Coverage != 1 {
			t.Errorf("seed %d: FailRetry must never degrade: %+v", seed, got)
		}
		if got.Faults < got.Retries || got.Retries < 0 {
			t.Errorf("seed %d: fault accounting inconsistent: %d faults, %d retries", seed, got.Faults, got.Retries)
		}
		totalRetries += got.Retries
		assertNoDeposits(t, "faulted", fbare)
	}
	// At a 10% rate across three seeds the runs must actually have
	// retried — otherwise the equivalence above was vacuous.
	if totalRetries == 0 {
		t.Error("no retries happened across any seed — the fault injection did not bite")
	}
}

// TestChaosDegradePartial holds one site down for good and detects
// under FailDegrade: the run completes partially, names the excluded
// site, reports the reachable coverage, matches a run over just the
// reachable fragments violation for violation, and leaks no deposits.
func TestChaosDegradePartial(t *testing.T) {
	const down = 2
	data := workload.Cust(workload.CustConfig{N: 1_500, Seed: 4, ErrRate: 0.05})
	h, err := partition.Uniform(data, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	bare := make([]*core.Site, h.N())
	sites := make([]core.SiteAPI, h.N())
	for i, frag := range h.Fragments {
		bare[i] = core.NewSite(i, frag, relation.True())
		if i == down {
			// CrashAt 1 with no rebuild: dead from the first call on.
			sites[i] = faulty.Wrap(bare[i], faulty.Plan{CrashAt: 1})
		} else {
			sites[i] = bare[i]
		}
	}
	cl, err := core.NewCluster(h.Schema, sites)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DetectOnce(context.Background(), cl, chaosCFDs(), core.PatDetectS, core.Options{Workers: 1, Failure: core.FailDegrade}, true)
	if err != nil {
		t.Fatalf("degraded run failed outright: %v", err)
	}
	if !res.Partial {
		t.Fatal("run over a dead site must report Partial")
	}
	if len(res.ExcludedSites) != 1 || res.ExcludedSites[0] != down {
		t.Fatalf("ExcludedSites = %v, want [%d]", res.ExcludedSites, down)
	}
	reachable := h.Fragments[0].Len() + h.Fragments[1].Len()
	wantCov := float64(reachable) / float64(data.Len())
	if res.Coverage < wantCov-1e-9 || res.Coverage > wantCov+1e-9 {
		t.Errorf("Coverage = %v, want %v (%d of %d tuples reachable)", res.Coverage, wantCov, reachable, data.Len())
	}
	assertNoDeposits(t, "degraded", bare)

	// Every reported violation verifies against the reachable data: the
	// partial answer equals (as a pattern set) a clean run over a
	// cluster holding only the reachable fragments.
	rh := &partition.Horizontal{Schema: h.Schema, Fragments: h.Fragments[:down]}
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
}

// samePatternSet compares two pattern relations as sets (a degraded
// re-assignment may enumerate blocks in a different order).
func samePatternSet(a, b *relation.Relation) bool {
	canon := func(tup relation.Tuple) string {
		var bs []byte
		for _, v := range tup {
			bs = binary.AppendUvarint(bs, uint64(len(v)))
			bs = append(bs, v...)
		}
		return string(bs)
	}
	key := func(r *relation.Relation) []string {
		out := make([]string, r.Len())
		for i, t := range r.Tuples() {
			out[i] = canon(t)
		}
		sort.Strings(out)
		return out
	}
	ka, kb := key(a), key(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// TestChaosFaultMatrix runs every injected fault class under every
// policy and asserts the one invariant that must hold regardless of
// outcome: zero buffered deposits on every site afterwards.
func TestChaosFaultMatrix(t *testing.T) {
	base := chaosSeed(t)
	classes := []struct {
		name string
		plan func(i int) faulty.Plan
	}{
		{"scheduled-deposit", func(i int) faulty.Plan {
			return faulty.Plan{ErrOn: map[string][]int{"Deposit": {1, 3}}}
		}},
		{"scheduled-detect", func(i int) faulty.Plan {
			return faulty.Plan{ErrOn: map[string][]int{"DetectAssignedSet": {1}}}
		}},
		{"scheduled-stats", func(i int) faulty.Plan {
			return faulty.Plan{ErrOn: map[string][]int{"SigmaStats": {1}}}
		}},
		{"rate", func(i int) faulty.Plan {
			// 15%: high enough to bite every run, low enough that the
			// per-call retry budget absorbs it with margin (residual
			// ~5e-4 per call) — a higher rate would legitimately
			// exclude sites under FailDegrade.
			return faulty.Plan{Seed: base + int64(i) + 11, Rate: 0.15}
		}},
		{"crash-midrun", func(i int) faulty.Plan {
			if i != 1 {
				return faulty.Plan{}
			}
			return faulty.Plan{CrashAt: 10}
		}},
	}
	policies := []core.FailurePolicy{core.FailFast, core.FailRetry, core.FailDegrade}
	for _, cls := range classes {
		for _, pol := range policies {
			t.Run(cls.name+"/"+pol.String(), func(t *testing.T) {
				cl, bare := chaosCluster(t, 7, func(i int, s *core.Site) core.SiteAPI {
					return faulty.Wrap(s, cls.plan(i))
				})
				// The outcome depends on class × policy (an error under
				// FailFast, recovery or a partial answer otherwise); the
				// deposit invariant must hold either way.
				res, err := core.DetectOnce(context.Background(), cl, chaosCFDs(), core.PatDetectS, core.Options{Workers: 1, Failure: pol}, true)
				if err == nil && res == nil {
					t.Fatal("nil result without error")
				}
				if pol != core.FailFast && cls.name != "crash-midrun" && err != nil {
					t.Errorf("%s under %v should recover, got %v", cls.name, pol, err)
				}
				if pol == core.FailDegrade && err != nil {
					t.Errorf("FailDegrade should always produce an answer, got %v", err)
				}
				assertNoDeposits(t, cls.name+"/"+pol.String(), bare)
			})
		}
	}
}

// TestChaosBreakerOpensOnDeadSite: a site that keeps failing trips its
// breaker; HealthDetail surfaces the open state, and a healthy cluster
// reports closed everywhere.
func TestChaosBreakerOpensOnDeadSite(t *testing.T) {
	cl, _ := chaosCluster(t, 7, func(i int, s *core.Site) core.SiteAPI {
		if i == 1 {
			return faulty.Wrap(s, faulty.Plan{CrashAt: 1})
		}
		return s
	})
	for _, h := range cl.HealthDetail() {
		if h.Breaker != core.BreakerClosed {
			t.Fatalf("fresh cluster reports %v, want all closed", h.Breaker)
		}
	}
	// Four attempts per call stay under the breaker threshold, so the
	// first degraded run only excludes the dead site; its failures stay
	// on the cluster's breaker, and the second run's first call to the
	// site trips it.
	for run := 0; run < 2; run++ {
		if _, err := core.DetectOnce(context.Background(), cl, chaosCFDs(), core.PatDetectS, core.Options{Workers: 1, Failure: core.FailDegrade}, true); err != nil {
			t.Fatalf("degraded run %d failed: %v", run, err)
		}
	}
	health := cl.HealthDetail()
	if health[1].Breaker == core.BreakerClosed {
		t.Errorf("site 1 kept failing its whole retry schedule; breaker still closed: %v", health)
	}
	if health[0].Breaker != core.BreakerClosed || health[2].Breaker != core.BreakerClosed {
		t.Errorf("healthy sites should stay closed: %v", health)
	}
}

// TestChaosStoreRestartByteIdentical pins the disk-backed restart
// contract: a store-backed site (core.OpenStoreSite) that crashes and
// restarts mid-run recovers its fragment — base file plus WAL-replayed
// deltas — from the store directory, and the run's violations are
// byte-identical to a fault-free run over never-crashed in-memory
// sites holding the same post-delta data. Contrast with
// TestCrashRestartLosesState in internal/faulty, where the rebuild
// closure hands back the *original* fragment and the delta is lost.
func TestChaosStoreRestartByteIdentical(t *testing.T) {
	const crashed = 1
	ctx := context.Background()
	data := workload.Cust(workload.CustConfig{N: 1_500, Seed: 8, ErrRate: 0.05})
	h, err := partition.Uniform(data, 3, 1)
	if err != nil {
		t.Fatal(err)
	}

	// One delta per site, fixed up front so both runs apply identical
	// mutations: drop two rows, insert two rows sampled from elsewhere
	// in the workload (dirty rows included).
	deltas := make([]relation.Delta, h.N())
	for i := range deltas {
		var ins []relation.Tuple
		for k := 0; k < 2; k++ {
			src := data.Tuple((i*211 + k*97) % data.Len())
			ins = append(ins, append(relation.Tuple(nil), src...))
		}
		deltas[i] = relation.Delta{Deletes: []int{0, 5}, Inserts: ins}
	}

	dirs := make([]string, h.N())
	for i, frag := range h.Fragments {
		dirs[i] = t.TempDir()
		if _, err := colstore.WriteRelationDir(dirs[i], frag); err != nil {
			t.Fatal(err)
		}
	}

	// Fault-free in-memory baseline over the same deltas.
	memSites := make([]core.SiteAPI, h.N())
	for i, frag := range h.Fragments {
		s := core.NewSite(i, frag, relation.True())
		if _, err := s.ApplyDelta(ctx, deltas[i], "d"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
		memSites[i] = s
	}
	memCl, err := core.NewCluster(h.Schema, memSites)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.DetectOnce(context.Background(), memCl, chaosCFDs(), core.PatDetectS, core.Options{Workers: 1}, true)
	if err != nil {
		t.Fatal(err)
	}

	// Store-backed restartable sites. The crashed site's call 1 is its
	// ApplyDelta — the WAL entry that must survive; call 2 crashes it,
	// and the retry of that same call finds the site down past
	// RestartAfter, so the wrapper closes the corpse and the rebuild
	// closure reopens the store directory.
	rebuilds := make([]int, h.N())
	wrappers := make([]*faulty.Site, h.N())
	sites := make([]core.SiteAPI, h.N())
	for i := range h.Fragments {
		var plan faulty.Plan
		if i == crashed {
			plan = faulty.Plan{CrashAt: 2, RestartAfter: 1}
		}
		w := faulty.WrapRestartable(func() core.SiteAPI {
			rebuilds[i]++
			s, err := core.OpenStoreSite(i, dirs[i], relation.True())
			if err != nil {
				panic(err)
			}
			return s
		}, plan)
		wrappers[i], sites[i] = w, w
	}
	t.Cleanup(func() {
		for _, w := range wrappers {
			w.Inner().(*core.Site).Close()
		}
	})
	for i := range sites {
		if _, err := sites[i].ApplyDelta(ctx, deltas[i], "d"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := core.NewCluster(h.Schema, sites)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.DetectOnce(context.Background(), cl, chaosCFDs(), core.PatDetectS, core.Options{Workers: 1, Failure: core.FailRetry}, true)
	if err != nil {
		t.Fatalf("store-backed run failed: %v", err)
	}

	if got.Faults == 0 {
		t.Error("the crash never bit — the restart path was not exercised")
	}
	if rebuilds[crashed] != 2 {
		t.Errorf("site %d rebuilt %d times, want 2 (construction + restart)", crashed, rebuilds[crashed])
	}
	if gen := wrappers[crashed].Inner().(*core.Site).Generation(); gen != 1 {
		t.Errorf("recovered site is at generation %d, want 1 (the replayed pre-crash delta)", gen)
	}
	identicalViolations(t, "store-restart", got, want)
	if got.Partial || got.Coverage != 1 {
		t.Errorf("FailRetry must never degrade: %+v", got)
	}
}

// lostFoldReply runs every FoldDetect but loses the reply of the n-th:
// the fold executed, so the failure hook may not re-issue it, and the
// round reseeds.
type lostFoldReply struct {
	*core.Site
	n int

	mu    sync.Mutex
	calls int
}

func (s *lostFoldReply) FoldDetect(ctx context.Context, args core.FoldArgs) (*core.FoldReply, error) {
	rep, err := s.Site.FoldDetect(ctx, args)
	s.mu.Lock()
	s.calls++
	lost := s.calls == s.n
	s.mu.Unlock()
	if err == nil && lost {
		return nil, &core.CodedError{Code: core.CodeUnavailable, Msg: "fold reply lost"}
	}
	return rep, err
}

// TestChaosIncrementalRetry: the incremental path absorbs transient
// faults — a fold that never ran is re-issued with the same shipped
// blocks; one that may have run invalidates the session and reseeds —
// and its figures stay byte-identical to the fault-free incremental
// run, with no deposit buffered and no session orphaned.
func TestChaosIncrementalRetry(t *testing.T) {
	run := func(wrap func(i int, s *core.Site) core.SiteAPI, opt core.Options) (*core.Result, []*core.Site) {
		cl, bare := chaosCluster(t, 6, wrap)
		p, err := core.CompileSet(context.Background(), cl, chaosCFDs(), core.PatDetectS, opt, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Detect(context.Background()); err != nil {
			t.Fatal(err)
		}
		res, err := p.DetectIncremental(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res, bare
	}
	sessions := func(bare []*core.Site) []int {
		out := make([]int, len(bare))
		for i, s := range bare {
			out[i] = s.FoldSessions()
		}
		return out
	}
	base := chaosSeed(t)
	want, wantBare := run(func(_ int, s *core.Site) core.SiteAPI { return s }, core.Options{})
	for _, tc := range []struct {
		name string
		wrap func(i int, s *core.Site) core.SiteAPI
	}{
		// A modest rate: a fault a per-call retry cannot absorb repeats the
		// round from the top.
		{"rate", func(i int, s *core.Site) core.SiteAPI {
			return faulty.Wrap(s, faulty.Plan{Seed: base + int64(i) + 1, Rate: 0.05})
		}},
		{"fold-fault", func(_ int, s *core.Site) core.SiteAPI {
			return faulty.Wrap(s, faulty.Plan{ErrOn: map[string][]int{"FoldDetect": {2}}})
		}},
		{"fold-reply-lost", func(_ int, s *core.Site) core.SiteAPI {
			return &lostFoldReply{Site: s, n: 2}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, bare := run(tc.wrap, core.Options{Failure: core.FailRetry})
			identicalViolations(t, tc.name, got, want)
			if got.ShippedTuples != want.ShippedTuples || got.ModeledTime != want.ModeledTime {
				t.Errorf("incremental figures bent under faults: %d/%v vs %d/%v",
					got.ShippedTuples, got.ModeledTime, want.ShippedTuples, want.ModeledTime)
			}
			if got.Partial {
				t.Error("incremental serving must never report Partial")
			}
			if tc.name != "rate" && got.Faults == 0 {
				t.Error("the scheduled fault never bit")
			}
			assertNoDeposits(t, tc.name, bare)
			if g, w := sessions(bare), sessions(wantBare); !slices.Equal(g, w) {
				t.Errorf("fold sessions per site %v, the fault-free run holds %v", g, w)
			}
		})
	}
}

// lostApplyReply applies every delta but loses the reply of the first:
// the apply executed, so only its nonce keeps a re-issue from applying
// it twice.
type lostApplyReply struct {
	*core.Site
	lost sync.Once
}

func (s *lostApplyReply) ApplyDelta(ctx context.Context, d relation.Delta, nonce string) (core.DeltaInfo, error) {
	info, err := s.Site.ApplyDelta(ctx, d, nonce)
	lost := false
	s.lost.Do(func() { lost = err == nil })
	if lost {
		return core.DeltaInfo{}, &core.CodedError{Code: core.CodeUnavailable, Msg: "apply reply lost"}
	}
	return info, err
}

// TestChaosDetectDeltaApplyReplyLost: DetectDelta applies through the
// round's failure view. Under FailRetry an apply whose reply was lost is
// re-issued with its nonce — the site applies it once — the round counts
// the retry, and its figures equal the fault-free round's; under
// FailFast the loss is the round's error.
func TestChaosDetectDeltaApplyReplyLost(t *testing.T) {
	ctx := context.Background()
	run := func(wrap func(i int, s *core.Site) core.SiteAPI, opt core.Options) (*core.Result, []*core.Site, error) {
		cl, bare := chaosCluster(t, 6, wrap)
		p, err := core.CompileSet(ctx, cl, chaosCFDs(), core.PatDetectS, opt, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.DetectIncremental(ctx); err != nil {
			t.Fatal(err)
		}
		src := append(relation.Tuple(nil), bare[0].Fragment().Tuple(3)...)
		res, err := p.DetectDelta(ctx, map[int]relation.Delta{1: {Deletes: []int{1}, Inserts: []relation.Tuple{src}}})
		return res, bare, err
	}
	want, wantBare, err := run(func(_ int, s *core.Site) core.SiteAPI { return s }, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lossy := func(i int, s *core.Site) core.SiteAPI {
		if i == 1 {
			return &lostApplyReply{Site: s}
		}
		return s
	}
	got, bare, err := run(lossy, core.Options{Failure: core.FailRetry})
	if err != nil {
		t.Fatalf("FailRetry round with a lost apply reply: %v", err)
	}
	identicalViolations(t, "apply-reply-lost", got, want)
	if got.ShippedTuples != want.ShippedTuples || got.ModeledTime != want.ModeledTime {
		t.Errorf("round figures bent by the lost reply: %d/%v vs %d/%v",
			got.ShippedTuples, got.ModeledTime, want.ShippedTuples, want.ModeledTime)
	}
	if g, w := bare[1].Generation(), wantBare[1].Generation(); g != w {
		t.Errorf("site 1 at generation %d, the fault-free run at %d: the re-issued apply did not dedup", g, w)
	}
	if got.Retries == 0 || got.Faults == 0 {
		t.Errorf("the round counts %d retries and %d faults, want the re-issued apply in both", got.Retries, got.Faults)
	}
	if _, _, err := run(lossy, core.Options{}); core.ErrCodeOf(err) != core.CodeUnavailable {
		t.Errorf("FailFast round with a lost apply reply = %v, want the unavailable error", err)
	}
}

// TestChaosApplyReplyLost: Plan.Apply, the call behind Detector.Apply,
// applies through a failure view of the plan's options. Under FailRetry
// an apply whose reply was lost is re-issued with its nonce: it returns
// the post-delta generation, the site applies the delta once, and the
// next incremental round equals a fresh Detect. Under FailFast the loss
// is Apply's error.
func TestChaosApplyReplyLost(t *testing.T) {
	ctx := context.Background()
	apply := func(opt core.Options) (*core.Plan, []*core.Site, core.DeltaInfo, error) {
		cl, bare := chaosCluster(t, 6, func(i int, s *core.Site) core.SiteAPI {
			if i == 1 {
				return &lostApplyReply{Site: s}
			}
			return s
		})
		p, err := core.CompileSet(ctx, cl, chaosCFDs(), core.PatDetectS, opt, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.DetectIncremental(ctx); err != nil {
			t.Fatal(err)
		}
		src := append(relation.Tuple(nil), bare[0].Fragment().Tuple(3)...)
		info, err := p.Apply(ctx, 1, relation.Delta{Deletes: []int{1}, Inserts: []relation.Tuple{src}})
		return p, bare, info, err
	}
	p, bare, info, err := apply(core.Options{Failure: core.FailRetry})
	if err != nil {
		t.Fatalf("FailRetry apply with a lost reply: %v", err)
	}
	n, _ := bare[1].NumTuples()
	if info.Gen != 1 || info.NumTuples != n {
		t.Errorf("apply returned %+v, want generation 1 and the site's %d tuples", info, n)
	}
	if g := bare[1].Generation(); g != 1 {
		t.Errorf("site 1 at generation %d, want 1: the re-issued apply did not dedup", g)
	}
	inc, err := p.DetectIncremental(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := p.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	identicalViolations(t, "apply-reply-lost", inc, fresh)
	if inc.ShippedTuples != fresh.ShippedTuples || inc.ModeledTime != fresh.ModeledTime {
		t.Errorf("incremental figures %d/%v, fresh %d/%v",
			inc.ShippedTuples, inc.ModeledTime, fresh.ShippedTuples, fresh.ModeledTime)
	}
	if _, _, _, err := apply(core.Options{}); core.ErrCodeOf(err) != core.CodeUnavailable {
		t.Errorf("FailFast apply with a lost reply = %v, want the unavailable error", err)
	}
}
