package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

func depositCount(s *Site) int { return s.PendingDeposits() }

func TestSiteAbortDrainsTaskDeposits(t *testing.T) {
	ctx := context.Background()
	s := NewSite(0, workload.EMPData(), relation.True())
	batch := workload.EMPData()
	for _, task := range []string{"run-1/b0", "run-1/b3", "run-1", "run-10/b0", "run-2/b1"} {
		if err := s.Deposit(ctx, task, batch, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Abort("run-1"); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	_, r10 := s.deposits["run-10/b0"]
	_, r2 := s.deposits["run-2/b1"]
	n := len(s.deposits)
	s.mu.Unlock()
	// run-1 and its block tasks drained; run-10 (a distinct task that
	// merely shares a prefix string) and run-2 untouched.
	if n != 2 || !r10 || !r2 {
		t.Errorf("after abort: %d buffers remain, run-10 kept=%v run-2 kept=%v", n, r10, r2)
	}
	// Aborting an unknown task is a no-op.
	if err := s.Abort("nothing"); err != nil {
		t.Fatal(err)
	}
	if depositCount(s) != 2 {
		t.Error("aborting an unknown task disturbed other buffers")
	}
}

// TestSiteCancelTombstonesTask pins the Cancel semantics: draining
// like Abort, plus dropping deposits that arrive after the cancel —
// the batch that was still in flight when the driver gave up.
func TestSiteCancelTombstonesTask(t *testing.T) {
	ctx := context.Background()
	s := NewSite(0, workload.EMPData(), relation.True())
	batch := workload.EMPData()
	if err := s.Deposit(ctx, "run-1/b0", batch, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel("run-1"); err != nil {
		t.Fatal(err)
	}
	if n := depositCount(s); n != 0 {
		t.Fatalf("cancel left %d buffers", n)
	}
	// The late deposit of the cancelled run: dropped, no error (the
	// driver that would consume it is gone).
	if err := s.Deposit(ctx, "run-1/b7", batch, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Deposit(ctx, "run-1", batch, ""); err != nil {
		t.Fatal(err)
	}
	if n := depositCount(s); n != 0 {
		t.Errorf("late deposits for a cancelled task were buffered (%d)", n)
	}
	// Unrelated tasks — including ones sharing a name prefix — are
	// unaffected.
	if err := s.Deposit(ctx, "run-10/b0", batch, ""); err != nil {
		t.Fatal(err)
	}
	if depositCount(s) != 1 {
		t.Error("cancel tombstone suppressed an unrelated task's deposit")
	}
}

// failingSite wraps a Site so the coordinator detection step fails
// after shipping has already deposited batches — the leak scenario of
// the ROADMAP: without the cancel-on-error drain the surviving sites
// keep the buffers of a task key that will never be detected.
type failingSite struct {
	*Site
	sawDeposits bool
}

var errInjected = errors.New("injected coordinator failure")

func (f *failingSite) DetectAssignedSingle(context.Context, string, *BlockSpec, []int, *cfd.CFD) (*relation.Relation, error) {
	f.sawDeposits = f.sawDeposits || depositCount(f.Site) > 0
	return nil, errInjected
}

func (f *failingSite) DetectAssignedSet(context.Context, string, *BlockSpec, []int, []*cfd.CFD) ([]*relation.Relation, error) {
	f.sawDeposits = f.sawDeposits || depositCount(f.Site) > 0
	return nil, errInjected
}

func TestPipelineAbortsDepositsOnDetectFailure(t *testing.T) {
	data := workload.Cust(workload.CustConfig{N: 2_000, Seed: 5, ErrRate: 0.05})
	h, err := partition.Uniform(data, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	bare := make([]*Site, h.N())
	sites := make([]SiteAPI, h.N())
	fail := (*failingSite)(nil)
	for i, frag := range h.Fragments {
		bare[i] = NewSite(i, frag, relation.True())
		if i == 0 {
			fail = &failingSite{Site: bare[i]}
			sites[i] = fail
		} else {
			sites[i] = bare[i]
		}
	}
	cl, err := NewCluster(h.Schema, sites)
	if err != nil {
		t.Fatal(err)
	}
	// A 16-block tableau spreads coordinators across the sites, so
	// shipping deposits batches at several of them before detection,
	// and site 0's failure leaves unconsumed buffers to the abort path.
	rule := workload.CustPatternCFD(16)
	_, err = detectOne(context.Background(), cl, rule, PatDetectS, Options{})
	if !errors.Is(err, errInjected) {
		t.Fatalf("expected the injected failure, got %v", err)
	}
	if !fail.sawDeposits {
		t.Fatal("scenario did not deposit at the failing coordinator — the drain assertion would be vacuous")
	}
	for i, s := range bare {
		if n := depositCount(s); n != 0 {
			t.Errorf("site %d still buffers %d deposit tasks after failed run", i, n)
		}
	}
	// The cluster stays usable: a healthy retry (all sites working)
	// detects normally and leaves no residue either.
	for i := range sites {
		sites[i] = bare[i]
	}
	cl2, err := NewCluster(h.Schema, sites)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := detectOne(context.Background(), cl2, rule, PatDetectS, Options{}); err != nil {
		t.Fatal(err)
	}
	for i, s := range bare {
		if n := depositCount(s); n != 0 {
			t.Errorf("site %d holds %d leftover deposit tasks after a clean run", i, n)
		}
	}
}

// cancellingSite wraps a Site so that the first deposit of a fresh run
// — i.e. mid-shipping-phase — or the first fold of an incremental round
// cancels the driver's context after the call has landed. The landed
// batch (or fold session) is exactly what a cancelled run must not
// leak.
type cancellingSite struct {
	*Site
	once   *sync.Once
	cancel context.CancelFunc
	landed *bool
}

func (c *cancellingSite) Deposit(_ context.Context, task string, batch *relation.Relation, nonce string) error {
	// Land the batch regardless of the (about to be cancelled) context,
	// then pull the plug on the driver.
	err := c.Site.Deposit(context.Background(), task, batch, nonce)
	c.once.Do(func() {
		*c.landed = true
		c.cancel()
	})
	return err
}

// FoldDetect is the incremental round's counterpart: the first fold
// runs to completion — its session now holds state — and the driver's
// context is cancelled before the reply reaches it, so the round sees
// the cancellation.
func (c *cancellingSite) FoldDetect(ctx context.Context, args FoldArgs) (*FoldReply, error) {
	rep, err := c.Site.FoldDetect(context.Background(), args)
	c.once.Do(func() {
		*c.landed = err == nil
		c.cancel()
	})
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// TestDetectCancelDuringShippingDrainsDeposits is the in-process half
// of the cancellation satellite: a context cancelled mid-shipping must
// leave zero buffered deposits on every site, because the pipeline
// cancels its task everywhere before returning.
func TestDetectCancelDuringShippingDrainsDeposits(t *testing.T) {
	data := workload.Cust(workload.CustConfig{N: 2_000, Seed: 5, ErrRate: 0.05})
	h, err := partition.Uniform(data, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	landed := false
	bare := make([]*Site, h.N())
	sites := make([]SiteAPI, h.N())
	for i, frag := range h.Fragments {
		bare[i] = NewSite(i, frag, relation.True())
		sites[i] = &cancellingSite{Site: bare[i], once: &once, cancel: cancel, landed: &landed}
	}
	cl, err := NewCluster(h.Schema, sites)
	if err != nil {
		t.Fatal(err)
	}
	rule := workload.CustPatternCFD(16)
	_, err = detectOne(ctx, cl, rule, PatDetectS, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if !landed {
		t.Fatal("no deposit landed before the cancel — the drain assertion would be vacuous")
	}
	for i, s := range bare {
		if n := depositCount(s); n != 0 {
			t.Errorf("site %d still buffers %d deposit tasks after cancelled run", i, n)
		}
	}
	// The compiled plan stays serviceable after a cancelled run: the
	// same cluster detects cleanly under a live context.
	sp, err := compileOne(context.Background(), cl, rule, PatDetectS, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Detect(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, s := range bare {
		if n := depositCount(s); n != 0 {
			t.Errorf("site %d holds %d leftover deposit tasks after the post-cancel run", i, n)
		}
	}
}

// TestPlanDetectCancelAcrossWorkers cancels a multi-cluster parallel
// run mid-flight: Detect must return the context error and every site
// must end with zero buffered deposits.
func TestPlanDetectCancelAcrossWorkers(t *testing.T) {
	data := workload.Cust(workload.CustConfig{N: 2_000, Seed: 7, ErrRate: 0.05})
	h, err := partition.Uniform(data, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	landed := false
	bare := make([]*Site, h.N())
	sites := make([]SiteAPI, h.N())
	for i, frag := range h.Fragments {
		bare[i] = NewSite(i, frag, relation.True())
		sites[i] = &cancellingSite{Site: bare[i], once: &once, cancel: cancel, landed: &landed}
	}
	cl, err := NewCluster(h.Schema, sites)
	if err != nil {
		t.Fatal(err)
	}
	cfds := []*cfd.CFD{
		workload.CustPatternCFD(16),
		cfd.MustParse(`i2: [name] -> [phn]`),
		cfd.MustParse(`i4: [street, city] -> [zip]`),
	}
	p, err := CompileSet(context.Background(), cl, cfds, PatDetectS, Options{Workers: 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Detect(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if !landed {
		t.Fatal("no deposit landed before the cancel")
	}
	for i, s := range bare {
		if n := depositCount(s); n != 0 {
			t.Errorf("site %d still buffers %d deposit tasks after cancelled parallel run", i, n)
		}
	}
}
