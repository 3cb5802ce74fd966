package core

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"distcfd/internal/dist"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
)

// Cluster is a set of sites holding the horizontal fragments of one
// relation, plus the fabric used to move tuples between them. All
// detection algorithms run against a Cluster; sites may be in-process
// (Site) or remote proxies, as long as they implement SiteAPI.
type Cluster struct {
	schema *relation.Schema
	sites  []SiteAPI
	preds  []relation.Predicate
	// nonce makes task keys unique across Cluster instances, not just
	// within one: long-lived sites may serve many drivers, and since
	// Cancel tombstones a task key, a second driver reusing "blocks-1"
	// would otherwise have its deposits silently dropped.
	nonce   string
	taskSeq atomic.Int64
	// breakers holds one circuit breaker per site, fed only by runs
	// with an active failure policy (FailFast never touches them).
	breakers []breaker
}

// NewCluster assembles a cluster over sites sharing schema. Fragment
// predicates are fetched once from the sites.
func NewCluster(schema *relation.Schema, sites []SiteAPI) (*Cluster, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("core: cluster needs at least one site")
	}
	preds := make([]relation.Predicate, len(sites))
	for i, s := range sites {
		if s.ID() != i {
			return nil, fmt.Errorf("core: site at position %d reports ID %d", i, s.ID())
		}
		p, err := s.Predicate()
		if err != nil {
			return nil, fmt.Errorf("core: fetching predicate of site %d: %w", i, err)
		}
		preds[i] = p
	}
	var nb [8]byte
	if _, err := rand.Read(nb[:]); err != nil {
		return nil, fmt.Errorf("core: minting cluster nonce: %w", err)
	}
	return &Cluster{
		schema:   schema,
		sites:    sites,
		preds:    preds,
		nonce:    hex.EncodeToString(nb[:]),
		breakers: make([]breaker, len(sites)),
	}, nil
}

// FromHorizontal builds an in-process cluster from a horizontal
// partition: one local Site per fragment.
func FromHorizontal(h *partition.Horizontal) (*Cluster, error) {
	sites := make([]SiteAPI, h.N())
	for i, frag := range h.Fragments {
		pred := relation.True()
		if len(h.Predicates) > i {
			pred = h.Predicates[i]
		}
		sites[i] = NewSite(i, frag, pred)
	}
	return NewCluster(h.Schema, sites)
}

// N returns the number of sites.
func (cl *Cluster) N() int { return len(cl.sites) }

// Schema returns the relation schema shared by the fragments.
func (cl *Cluster) Schema() *relation.Schema { return cl.schema }

// Site returns site i.
func (cl *Cluster) Site(i int) SiteAPI { return cl.sites[i] }

// newTask mints a globally unique task prefix: the cluster nonce keeps
// keys from different driver processes (or Cluster instances) against
// the same long-lived sites from ever colliding.
func (cl *Cluster) newTask(kind string) string {
	//distcfd:keyjoin-ok — kind and the hex nonce are dash-free, so the key is injective
	return fmt.Sprintf("%s-%s-%d", kind, cl.nonce, cl.taskSeq.Add(1))
}

// parallel runs fn for every site concurrently — the paper's "at each
// site Si, perform the following in parallel" — and returns the first
// error.
func (cl *Cluster) parallel(fn func(i int) error) error {
	//distcfd:ctxflow-ok — context-free fan-out helper; cancellable paths use parallelCtx
	return cl.parallelCtx(context.Background(), func(_ context.Context, i int) error {
		return fn(i)
	})
}

// parallelCtx is parallel with cancellation: a site's fn is skipped
// when the context is already dead by the time its goroutine starts,
// and every fn receives the context to propagate into site calls. The
// call always waits for all started fns — an in-process phase never
// leaves work running behind a cancelled driver.
func (cl *Cluster) parallelCtx(ctx context.Context, fn func(ctx context.Context, i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(cl.sites))
	for i := range cl.sites {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			errs[i] = fn(ctx, i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// dropSession best-effort releases a session's retained incremental
// state at every site.
func (cl *Cluster) dropSession(session string) {
	_ = cl.parallel(func(i int) error {
		_ = cl.sites[i].DropSession(session)
		return nil
	})
}

// cancelTask best-effort cancels the task at every site after a failed
// or cancelled run: deposits are drained and the task key tombstoned,
// so even a batch that was still in flight when the driver gave up is
// dropped on arrival instead of accumulating at a long-lived site
// (task keys are never reused). Failures are ignored: the run already
// has its error, and cleanup must proceed even under a dead context.
func (cl *Cluster) cancelTask(task string) {
	_ = cl.parallel(func(i int) error {
		_ = cl.sites[i].Cancel(task)
		return nil
	})
}

// broadcastControl records the control-plane cost of site i sending
// payloadBytes to every other site (the lstat exchange).
func (cl *Cluster) broadcastControl(m *dist.Metrics, from int, payloadBytes int64) {
	for to := range cl.sites {
		if to != from {
			m.Control(from, to, payloadBytes)
		}
	}
}

// fragmentSizes fetches |Di| for every site.
func (cl *Cluster) fragmentSizes() ([]int, error) {
	sizes := make([]int, cl.N())
	err := cl.parallel(func(i int) error {
		n, err := cl.sites[i].NumTuples()
		if err != nil {
			return err
		}
		sizes[i] = n
		return nil
	})
	return sizes, err
}
