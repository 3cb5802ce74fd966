package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"distcfd/internal/cfd"
	"distcfd/internal/engine"
	"distcfd/internal/mining"
	"distcfd/internal/relation"
)

// LocalInput tells a coordinator which of its own tuples participate
// in a detection task, alongside whatever was deposited for the task.
type LocalInput struct {
	// Spec is the σ-partitioning in effect (nil for deposit-only tasks).
	Spec *BlockSpec
	// Block selects the local σ-block; BlockAllMatching means every
	// tuple matching any pattern (the CTRDetect coordinator), and
	// BlockNone means deposited tuples only.
	Block int
}

// Sentinels for LocalInput.Block.
const (
	BlockAllMatching = -1
	BlockNone        = -2
)

// SiteAPI is the complete set of operations the detection algorithms
// ask of a site. Every method executes *at the site*: implementations
// are the in-process Site below and the net/rpc client in
// internal/remote. Only Deposit and FoldDetect's shipped delta blocks
// move tuples between sites; everything else returns counts, patterns,
// or (projections of) local data the caller explicitly ships.
//
// Work methods take a context.Context: the in-process site checks it
// before starting, and the remote proxy additionally honors it while
// the call is in flight (abandoning the wait on cancellation and
// capping it with the configured per-call budget). Identity accessors
// and the cleanup operations (Abort, Cancel) stay context-free —
// cleanup must run even when the run's context is already dead.
type SiteAPI interface {
	// ID is the site index (fragment Di resides at site Si).
	ID() int
	// NumTuples returns |Di|.
	NumTuples() (int, error)
	// Predicate returns the fragment predicate Fi (always-true when
	// unknown).
	Predicate() (relation.Predicate, error)
	// SigmaStats returns lstat[l] = |H_i^l| for each pattern of spec.
	// The returned slice is the caller's to mutate.
	SigmaStats(ctx context.Context, spec *BlockSpec) ([]int, error)
	// ExtractBlock returns the local σ-block l projected onto attrs.
	ExtractBlock(ctx context.Context, spec *BlockSpec, l int, attrs []string) (*relation.Relation, error)
	// ExtractMatching returns all tuples matching any spec pattern,
	// projected onto attrs (the CTRDetect shipment unit).
	ExtractMatching(ctx context.Context, spec *BlockSpec, attrs []string) (*relation.Relation, error)
	// ExtractBlocksBatch returns, in a single pass over the fragment,
	// the σ-blocks listed in wanted, each projected onto attrs.
	ExtractBlocksBatch(ctx context.Context, spec *BlockSpec, attrs []string, wanted []int) (map[int]*relation.Relation, error)
	// Deposit buffers tuples shipped to this site under a task key.
	// Deposits for a cancelled task are dropped silently. A non-empty
	// nonce makes the deposit at-most-once: a retried deposit whose
	// earlier attempt already landed (lost response, not lost request)
	// is recognized and dropped instead of double-buffered. The empty
	// nonce disables dedup (direct test callers).
	Deposit(ctx context.Context, task string, batch *relation.Relation, nonce string) error
	// Abort drains every deposit buffered under taskKey itself or any
	// of its BlockTask-derived keys, releasing the memory of a run
	// that failed before detection consumed them. Aborting a task with
	// no deposits is a no-op.
	Abort(taskKey string) error
	// Cancel is Abort plus a tombstone: besides draining the task's
	// buffers it marks the task key cancelled, so deposits still in
	// flight when the driver gave up (an abandoned RPC whose payload
	// lands after the drain) are dropped on arrival instead of leaking
	// in a long-lived site. Task keys are never reused, so the
	// tombstone can never suppress a legitimate later run.
	Cancel(taskKey string) error
	// DetectTask runs local detection over the chosen local tuples plus
	// all deposits for the task, for each CFD in cfds, returning the
	// distinct violating X-patterns per CFD (aligned with cfds). The
	// deposit buffer for the task is consumed.
	DetectTask(ctx context.Context, task string, local LocalInput, cfds []*cfd.CFD) ([]*relation.Relation, error)
	// DetectAssignedSingle is DetectAssignedSet for one CFD. The driver
	// never calls it; bench/trace.go's wrapper keeps it in the interface.
	DetectAssignedSingle(ctx context.Context, taskPrefix string, spec *BlockSpec, blocks []int, c *cfd.CFD) (*relation.Relation, error)
	// DetectAssignedSet is the coordinator step: for every block l in
	// blocks it checks each CFD of cfds, restricted to the block (Lemma
	// 6, BlockSpec.Restrict), over the local block plus the deposits
	// under task key BlockTask(taskPrefix, l), returning per-CFD distinct
	// violating X-patterns (aligned with cfds). Deposits are consumed.
	DetectAssignedSet(ctx context.Context, taskPrefix string, spec *BlockSpec, blocks []int, cfds []*cfd.CFD) ([]*relation.Relation, error)
	// DetectConstantsLocal checks the constant units of c against the
	// local fragment only (Proposition 5), returning distinct violating
	// X-patterns projected on c.X. The result is cached per CFD and
	// fragment state and must be treated as read-only.
	DetectConstantsLocal(ctx context.Context, c *cfd.CFD) (*relation.Relation, error)
	// MineFrequent mines closed frequent LHS patterns over x with
	// support ≥ theta·|Di| (Section IV-B wildcard optimization),
	// reporting each pattern's relative support at this site.
	MineFrequent(ctx context.Context, x []string, theta float64) ([]mining.Pattern, error)
	// Ping is the liveness probe (wire v5): it does no work and fails
	// only when the site is unreachable or dead. Circuit breakers use
	// it to decide half-open recovery.
	Ping(ctx context.Context) error

	// Incremental surface (wire v4). ApplyDelta is the one writer of
	// the local fragment: it mutates it, rolls the serving caches
	// forward instead of resetting them, and appends the delta to a
	// bounded log the methods below read. It must not run concurrently
	// with detection against the same site — the driver serializes them.
	// A non-empty nonce makes the apply at-most-once: a retried apply
	// whose earlier attempt landed returns the remembered DeltaInfo
	// instead of applying twice. The empty nonce disables dedup.
	ApplyDelta(ctx context.Context, d relation.Delta, nonce string) (DeltaInfo, error)
	// ExtractDeltaBlocks σ-routes the log suffix after fromGen and
	// returns, per wanted block, the inserted and deleted tuples
	// projected onto attrs, beside the spec's σ counts (SigmaStats).
	// fromGen < 0 seeds: the full current blocks are returned as
	// inserts. A fromGen the log no longer covers fails with a stale
	// error (IsStaleIncremental), telling the driver to reseed.
	ExtractDeltaBlocks(ctx context.Context, spec *BlockSpec, attrs []string, wanted []int, fromGen int64) (*DeltaBlocks, error)
	// FoldDetect folds this site's own delta (its local blocks) plus
	// the other sites' delta blocks args.Shipped carries into the
	// session's retained per-(CFD, block) group states and returns, per
	// CFD, the X-patterns that flipped since the session's last reply.
	FoldDetect(ctx context.Context, args FoldArgs) (*FoldReply, error)
	// DropSession releases the retained incremental state of a session
	// (reseed or teardown). Unknown sessions are a no-op.
	DropSession(session string) error
}

const (
	// servingCacheCap bounds each of the site's serving caches: one is
	// reset wholesale when it reaches the cap, so churn from one-shot
	// callers (every call a fresh spec) cannot grow a long-lived site
	// without bound. Compiled plans and wire-decoded specs have stable
	// fingerprints, so serving traffic stays far below it.
	servingCacheCap = 128
	cancelledCap    = 1024
	// nonceCap bounds the seen-deposit-nonce set (FIFO eviction, like
	// cancelled tombstones); deltaNonceCap bounds the remembered
	// ApplyDelta replies. Nonces are minted per attempt group and never
	// reused, so eviction can only readmit a duplicate retried more
	// than a cap's worth of deposits later.
	nonceCap      = 4096
	deltaNonceCap = 128
)

// fifo is a string-keyed memo bounded by first-in-first-out eviction:
// once it holds cap keys, recording a new one forgets the oldest. The
// site's three at-most-once memos (cancel tombstones, deposit nonces,
// ApplyDelta replies) are each one, under the lock of the state they
// guard.
type fifo[V any] struct {
	cap int
	m   map[string]V
	log []string // keys in insertion order
}

func newFifo[V any](cap int) fifo[V] { return fifo[V]{cap: cap, m: make(map[string]V)} }

func (f *fifo[V]) get(k string) (V, bool) {
	v, ok := f.m[k]
	return v, ok
}

// put records k → v; a key already held keeps its place in the
// eviction order.
func (f *fifo[V]) put(k string, v V) {
	if _, held := f.m[k]; !held {
		if len(f.log) >= f.cap {
			delete(f.m, f.log[0])
			f.log = f.log[1:]
		}
		f.log = append(f.log, k)
	}
	f.m[k] = v
}

// servingCache is the site's serving cache, stated once for the
// σ-routings and the constant-unit states: entries are keyed by content
// fingerprint and describe the fragment as it stands, because
// ApplyDelta — the only writer of the site's rows — rolls every entry
// forward (maintain).
type servingCache[V any] struct {
	mu sync.Mutex
	m  map[string]V
	// epoch counts delta edges: begin and maintain each step it, so it
	// is odd while a delta rewrites the rows. A miss built across any
	// part of a delta is handed back but not stored — only maintain
	// carries an entry across a delta.
	epoch uint64
}

// lookup probes for key: one lock, one map probe. A miss is built by
// the caller outside the lock — concurrent misses on different keys
// (independent clusters of a parallel run) must not serialize — and
// handed to store with the epoch lookup returned.
func (c *servingCache[V]) lookup(key string) (V, uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, c.epoch, ok
}

// store records the entry a lookup miss built at epoch and returns the
// entry to use: v itself, or the one a racing builder of the same key
// stored first (they are identical). A build a delta overlapped gets v
// back without poisoning the cache.
func (c *servingCache[V]) store(epoch uint64, key string, v V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch != epoch || epoch%2 == 1 {
		return v
	}
	if prev, ok := c.m[key]; ok {
		return prev
	}
	if c.m == nil || len(c.m) >= servingCacheCap {
		c.m = make(map[string]V)
	}
	c.m[key] = v
	return v
}

// begin marks a delta in flight: no miss built from here until the
// matching maintain is stored.
func (c *servingCache[V]) begin() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
}

// maintain ends the delta begin marked and carries every entry across
// it; roll reporting false, or a nil roll for a delta that failed,
// abandons them all.
func (c *servingCache[V]) maintain(roll func(V) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	for _, v := range c.m {
		if roll == nil || !roll(v) {
			c.m = nil
			return
		}
	}
}

// sigmaEntry is one cached σ-routing of the fragment: the per-tuple
// block (int32, -1 = unmatched), the per-block counts, and the block
// index built on first use — each block's rows, ascending — so a routed
// row costs 8 B. Readers share entries and index; between detection
// runs ApplyDelta maintains them in place (replaying the delta's row
// swaps, routing only the inserted tuples, dropping the index), safe
// under the single-writer contract: mutation never overlaps detection.
type sigmaEntry struct {
	spec   *BlockSpec
	assign []int32
	counts []int
	index  atomic.Pointer[[][]int32]
}

// blocks returns the block index, built by one pass over the routing
// outside any lock (a racing call's identical index may win the CAS).
func (e *sigmaEntry) blocks() [][]int32 {
	if ix := e.index.Load(); ix != nil {
		return *ix
	}
	lists := make([][]int32, len(e.counts))
	for l, n := range e.counts {
		lists[l] = make([]int32, 0, n)
	}
	for i, l := range e.assign {
		if l >= 0 {
			lists[l] = append(lists[l], int32(i))
		}
	}
	e.index.CompareAndSwap(nil, &lists)
	return *e.index.Load()
}

// applyDelta maintains the entry across one fragment delta: deletes
// replay the same swap-with-last moves the tuple slice saw, inserts
// are routed and appended. xi maps spec.X into the fragment schema.
func (e *sigmaEntry) applyDelta(delIdx []int, ins []relation.Tuple, xi []int) {
	e.index.Store(nil)
	for _, di := range delIdx {
		if l := e.assign[di]; l >= 0 {
			e.counts[l]--
		}
	}
	e.assign = relation.SwapRemove(e.assign, delIdx)
	xv := make([]string, len(xi))
	for _, t := range ins {
		for j, c := range xi {
			xv[j] = t[c]
		}
		l := e.spec.Assign(xv)
		e.assign = append(e.assign, int32(l))
		if l >= 0 {
			e.counts[l]++
		}
	}
}

// Site is the in-process SiteAPI: it owns one horizontal fragment and
// executes all site-local computation. It is safe for the concurrent
// use the parallel phases of the algorithms make of it.
//
// A Site caches data-dependent artifacts that survive across detection
// runs — the σ block assignment per spec and the constant-unit
// violations per CFD — keyed by content fingerprint and rolled forward
// by ApplyDelta, the only writer of the site's rows. This is the
// serving-path half of the plan-once/detect-many design: the driver's
// compiled plan reuses the Σ-side work, the site reuses the
// fragment-side routing.
type Site struct {
	id   int
	frag siteFragment
	pred relation.Predicate

	// kern and merges pool the kernel scratch of every check this site
	// runs and the relation.Merge its coordinator checks build blocks in;
	// intraWorkers is the row-shard budget of each such check
	// (GOMAXPROCS when the site is built, see SetDetectParallelism).
	kern         engine.Kernel
	merges       sync.Pool
	intraWorkers int

	mu        sync.Mutex
	deposits  map[string][]*relation.Relation
	cancelled fifo[struct{}] // tombstoned task keys
	nonces    fifo[struct{}] // deposit nonces already buffered

	sigma  servingCache[*sigmaEntry] // by BlockSpec.Fingerprint
	consts servingCache[*constEntry] // by cfdFingerprint

	// Incremental serving state (see site_delta.go): the fragment
	// generation, the bounded delta log and the retained fold sessions.
	deltaMu   sync.Mutex
	gen       int64
	dlog      []deltaLogEntry
	dlogStart int64 // the log covers generations (dlogStart, gen]
	// deltaNonces remembers recent ApplyDelta replies by nonce so a
	// retransmitted apply returns the original DeltaInfo (at-most-once).
	deltaNonces fifo[DeltaInfo]

	sessMu   sync.Mutex
	sessions map[string]*foldSession
}

var _ SiteAPI = (*Site)(nil)

// NewSite creates a site holding the in-memory fragment frag with
// predicate pred. The site keeps its own copy of frag's row slice —
// the rows are shared, never written — so ApplyDelta is the only
// writer of the site's rows: appending to or sorting frag afterwards
// leaves the site as it was.
func NewSite(id int, frag *relation.Relation, pred relation.Predicate) *Site {
	return newSiteWith(id, memFrag{r: ownRows(frag)}, pred)
}

// ID returns the site index.
func (s *Site) ID() int { return s.id }

// NumTuples returns the local fragment size.
func (s *Site) NumTuples() (int, error) { return s.frag.Len(), nil }

// Predicate returns the fragment predicate.
func (s *Site) Predicate() (relation.Predicate, error) { return s.pred, nil }

// Schema returns the fragment schema — the handle a server needs to
// describe the site regardless of whether the fragment lives in memory
// or in a store directory.
func (s *Site) Schema() *relation.Schema { return s.frag.Schema() }

// Fragment returns a copy of the in-memory fragment for in-process
// tests and local tools: a row slice of its own over the site's rows,
// so mutating it never reaches the site. It is deliberately not part
// of SiteAPI and returns nil for store-backed sites (their tuples have
// no materialized relation).
func (s *Site) Fragment() *relation.Relation {
	if m, ok := s.frag.(memFrag); ok {
		return ownRows(m.r)
	}
	return nil
}

// SetDetectParallelism overrides the row-shard budget of this site's
// coordinator checks (≤ 1 checks serially). Call it before the site
// serves traffic; it is not synchronized against in-flight detection.
func (s *Site) SetDetectParallelism(n int) { s.intraWorkers = n }

// DetectParallelism returns the row-shard budget of this site's
// coordinator checks: runtime.GOMAXPROCS(0) unless overridden.
func (s *Site) DetectParallelism() int { return s.intraWorkers }

// PendingDeposits reports how many task keys currently hold buffered
// deposits — zero on a healthy idle site. Exposed for operational
// introspection and the no-leak tests.
func (s *Site) PendingDeposits() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.deposits)
}

// assignAll returns the fragment's σ-routing under spec, serving it
// from the per-site cache when the same spec content was already
// routed against the current fragment state, after checking spec and
// the blocks the caller will read. The returned entry is shared and
// read-only.
func (s *Site) assignAll(spec *BlockSpec, blocks ...int) (*sigmaEntry, error) {
	// Before the cache: a malformed spec can share a well-formed one's
	// fingerprint.
	if err := spec.check(blocks...); err != nil {
		return nil, err
	}
	fp := spec.Fingerprint()
	ent, epoch, ok := s.sigma.lookup(fp)
	if ok {
		return ent, nil
	}
	assign, counts, err := s.route(spec, gatherBatchRows)
	if err != nil {
		return nil, err
	}
	return s.sigma.store(epoch, fp, &sigmaEntry{spec: spec, assign: assign, counts: counts}), nil
}

// route σ-routes the fragment under spec as BlockSpec.AssignAll does,
// one ProjectBlocks batch of X (batch rows) at a time: a cold routing
// holds one batch of columns beside the assignment. An empty fragment
// still projects once, so an X the schema lacks is always refused.
func (s *Site) route(spec *BlockSpec, batch int) (assign []int32, counts []int, err error) {
	n := s.frag.Len()
	assign, counts = make([]int32, 0, n), make([]int, spec.K())
	for lo := 0; lo == 0 || lo < n; lo += batch {
		proj, err := s.frag.ProjectBlocks(s.frag.Schema().Name()+"_sigma", spec.X, [][]int32{rowSpan(lo, min(lo+batch, n))})
		if err != nil {
			return nil, nil, err
		}
		assign, _ = appendAssign(spec, assign, counts, proj[0]) // proj's schema is X itself
	}
	return assign, counts, nil
}

// rowSpan returns the row list lo, lo+1, …, hi-1.
func rowSpan(lo, hi int) []int32 {
	rows := make([]int32, hi-lo)
	for k := range rows {
		rows[k] = int32(lo + k)
	}
	return rows
}

// SigmaStats computes lstat[l] = |H_i^l| per pattern.
func (s *Site) SigmaStats(ctx context.Context, spec *BlockSpec) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ent, err := s.assignAll(spec)
	if err != nil {
		return nil, err
	}
	return append([]int(nil), ent.counts...), nil
}

// ExtractBlock returns σ-block l projected onto attrs: a batch of one.
func (s *Site) ExtractBlock(ctx context.Context, spec *BlockSpec, l int, attrs []string) (*relation.Relation, error) {
	out, err := s.ExtractBlocksBatch(ctx, spec, attrs, []int{l})
	if err != nil {
		return nil, err
	}
	return out[l], nil
}

// ExtractMatching returns all σ-assigned tuples projected onto attrs.
func (s *Site) ExtractMatching(ctx context.Context, spec *BlockSpec, attrs []string) (*relation.Relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ent, err := s.assignAll(spec)
	if err != nil {
		return nil, err
	}
	var rows []int32
	for i, n := 0, s.frag.Len(); i < n; i++ {
		if ent.assign[i] >= 0 {
			rows = append(rows, int32(i))
		}
	}
	// The projection shares the fragment's dictionaries, so shipping and
	// coordinator checks keep the fragment's interning.
	out, err := s.frag.ProjectBlocks(s.frag.Schema().Name()+"_ship", attrs, [][]int32{rows})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// BlockTask derives the deposit key for block l of a run. Injective
// for this repo's prefixes: newTask's output never ends in "/b<digits>",
// so distinct (prefix, l) pairs cannot produce equal keys.
func BlockTask(taskPrefix string, l int) string {
	//distcfd:keyjoin-ok — prefix alphabet excludes "/b<digits>" suffixes
	return fmt.Sprintf("%s/b%d", taskPrefix, l)
}

// ExtractBlocksBatch extracts several σ-blocks in one fragment pass.
func (s *Site) ExtractBlocksBatch(ctx context.Context, spec *BlockSpec, attrs []string, wanted []int) (map[int]*relation.Relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.fullBlocks(spec, attrs, wanted, s.frag.Schema().Name()+"_ship")
}

// blockRows σ-routes the fragment once (via the maintained cache) and
// returns, parallel to blocks, the ascending row indices of every
// requested block — the cheap half of an extraction (ints, not
// materialized tuples), shared by the batch extraction and the
// coordinator's detection. The lists are slices of the entry's shared
// block index, read-only, so a call costs O(len(blocks)) however many
// rows the fragment holds. spec.check refuses a block listed twice.
func (s *Site) blockRows(spec *BlockSpec, blocks []int) ([][]int32, error) {
	ent, err := s.assignAll(spec, blocks...)
	if err != nil {
		return nil, err
	}
	lists, rows := ent.blocks(), make([][]int32, len(blocks))
	for bi, l := range blocks {
		rows[bi] = lists[l]
	}
	return rows, nil
}

// fullBlocks returns every requested block projected onto attrs, empty
// blocks included as empty relations — the one-shot extraction behind
// ExtractBlocksBatch and the incremental surface's seed paths.
func (s *Site) fullBlocks(spec *BlockSpec, attrs []string, blocks []int, name string) (map[int]*relation.Relation, error) {
	rows, err := s.blockRows(spec, blocks)
	if err != nil {
		return nil, err
	}
	rels, err := s.frag.ProjectBlocks(name, attrs, rows)
	if err != nil {
		return nil, err
	}
	out := make(map[int]*relation.Relation, len(blocks))
	for bi, l := range blocks {
		out[l] = rels[bi]
	}
	return out, nil
}

// gatherBatchRows is the row budget of one projection batch of
// detectAssigned and of route: large enough that a batch is one or a
// few chunk passes, small enough (≈ 4 MiB per projected column) that a
// batch of a fragment far bigger than RAM stays resident.
const gatherBatchRows = 1 << 20

// batchEnd returns the end of the batch that starts at block lo: the
// longest run of consecutive blocks whose rows fit the budget. A block
// above the budget is a batch of its own; empty blocks stay in line.
func batchEnd(rows [][]int32, lo, budget int) int {
	hi, n := lo+1, len(rows[lo])
	for hi < len(rows) && n+len(rows[hi]) <= budget {
		n += len(rows[hi])
		hi++
	}
	return hi
}

// DetectAssignedSingle is DetectAssignedSet for one CFD.
func (s *Site) DetectAssignedSingle(ctx context.Context, taskPrefix string, spec *BlockSpec, blocks []int, c *cfd.CFD) (*relation.Relation, error) {
	out, err := s.DetectAssignedSet(ctx, taskPrefix, spec, blocks, []*cfd.CFD{c})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// DetectAssignedSet runs the coordinator step of PatDetectS/PatDetectRT
// and of a merged cluster: for every assigned block, the local block
// plus its deposits is checked against each CFD's Lemma 6 restriction
// to the block (BlockSpec.Restrict), skipping a CFD no row of which can
// match there. σ never splits an X-group, so the blocks report
// disjoint patterns and their union needs no dedup.
func (s *Site) DetectAssignedSet(ctx context.Context, taskPrefix string, spec *BlockSpec, blocks []int, cfds []*cfd.CFD) ([]*relation.Relation, error) {
	if len(cfds) == 0 {
		return nil, fmt.Errorf("core: site %d: DetectAssignedSet with no CFDs", s.id)
	}
	// The blocks are projected in batches under a fixed row budget, each
	// one chunk-ordered gather: however many blocks the site coordinates,
	// the peak is one batch beside the cached routing, which is what lets
	// a store-backed site check a fragment far bigger than RAM.
	rows, err := s.blockRows(spec, blocks)
	if err != nil {
		return nil, err
	}
	out, err := emptyPatternRelations(s.frag.Schema(), cfds)
	if err != nil {
		return nil, err
	}
	inBlock, err := spec.Restrict(cfds)
	if err != nil {
		return nil, err
	}
	attrs := taskAttrs(spec, cfds)
	shipName := s.frag.Schema().Name() + "_ship"
	merge := s.merges.Get().(*relation.Merge)
	defer func() { merge.Shrink(); s.merges.Put(merge) }()
	for lo, hi := 0, 0; lo < len(blocks); lo = hi {
		hi = batchEnd(rows, lo, gatherBatchRows)
		locals, err := s.frag.ProjectBlocks(shipName, attrs, rows[lo:hi])
		if err != nil {
			return nil, err
		}
		for bi, l := range blocks[lo:hi] {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			merged, err := mergeWithDeposits(merge, locals[bi], s.takeDeposits(BlockTask(taskPrefix, l)))
			if err != nil {
				return nil, err
			}
			for ci := range cfds {
				c := inBlock(ci, l)
				if c == nil {
					continue
				}
				pats, err := s.kern.ViolationPatterns(merged, c, engine.Opts{Workers: s.intraWorkers})
				if err != nil {
					return nil, err
				}
				for _, t := range pats.Tuples() {
					out[ci].MustAppend(t)
				}
			}
		}
	}
	return out, nil
}

// mergeWithDeposits unions the local block with the shipped batches:
// the local block as it is when nothing was shipped, else m's merge
// under the local block's dictionaries, valid until m merges again and
// checked in place, in ID space. Arity mismatches surface here.
func mergeWithDeposits(m *relation.Merge, local *relation.Relation, deps []*relation.Relation) (*relation.Relation, error) {
	if len(deps) == 0 {
		return local, nil
	}
	return m.Concat(append([]*relation.Relation{local}, deps...)...)
}

// taskBase strips a BlockTask suffix: "prefix/b3" → "prefix".
func taskBase(task string) string {
	if i := strings.IndexByte(task, '/'); i >= 0 {
		return task[:i]
	}
	return task
}

// Deposit buffers a shipped batch under the task key. Batches for a
// cancelled task are dropped: the driver that would consume them has
// already given up on the run. A duplicate nonce marks a retransmit of
// a batch that already landed; it is acknowledged without buffering.
func (s *Site) Deposit(ctx context.Context, task string, batch *relation.Relation, nonce string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dead := s.cancelled.get(task); dead {
		return nil
	}
	if _, dead := s.cancelled.get(taskBase(task)); dead {
		return nil
	}
	if nonce != "" {
		if _, dup := s.nonces.get(nonce); dup {
			return nil
		}
		s.nonces.put(nonce, struct{}{})
	}
	s.deposits[task] = append(s.deposits[task], batch)
	return nil
}

// Ping reports liveness: an in-process site is alive whenever its
// caller's context is.
func (s *Site) Ping(ctx context.Context) error { return ctx.Err() }

// drainLocked removes the deposit buffers of taskKey and its block
// tasks; callers hold s.mu.
func (s *Site) drainLocked(taskKey string) {
	prefix := taskKey + "/"
	for k := range s.deposits {
		if k == taskKey || strings.HasPrefix(k, prefix) {
			delete(s.deposits, k)
		}
	}
}

// Abort drains the deposit buffers of taskKey and all its block tasks.
func (s *Site) Abort(taskKey string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainLocked(taskKey)
	return nil
}

// Cancel drains taskKey like Abort and additionally tombstones the key
// so late deposits — an RPC payload that was in flight when the driver
// cancelled — are dropped on arrival. The tombstone set is bounded
// (FIFO eviction at cancelledCap); task keys are never reused, so an
// evicted tombstone can only readmit a leak for a run cancelled more
// than cancelledCap cancellations ago.
func (s *Site) Cancel(taskKey string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainLocked(taskKey)
	s.cancelled.put(taskKey, struct{}{})
	return nil
}

func (s *Site) takeDeposits(task string) []*relation.Relation {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.deposits[task]
	delete(s.deposits, task)
	return out
}

// DetectTask assembles the task input (local selection ∪ deposits) and
// finds the distinct violating X-patterns of each CFD in it.
func (s *Site) DetectTask(ctx context.Context, task string, local LocalInput, cfds []*cfd.CFD) ([]*relation.Relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(cfds) == 0 {
		return nil, fmt.Errorf("core: site %d: DetectTask with no CFDs", s.id)
	}
	// The working schema is the shipped projection schema when deposits
	// exist, else the local projection; all CFD attributes must be in it.
	var parts []*relation.Relation
	if local.Block != BlockNone {
		if local.Spec == nil {
			return nil, fmt.Errorf("core: site %d: block %d without spec", s.id, local.Block)
		}
		attrs := taskAttrs(local.Spec, cfds)
		var r *relation.Relation
		var err error
		if local.Block == BlockAllMatching {
			r, err = s.ExtractMatching(ctx, local.Spec, attrs)
		} else {
			r, err = s.ExtractBlock(ctx, local.Spec, local.Block, attrs)
		}
		if err != nil {
			return nil, err
		}
		parts = append(parts, r)
	}
	parts = append(parts, s.takeDeposits(task)...)
	if len(parts) == 0 {
		return emptyPatternRelations(s.frag.Schema(), cfds)
	}
	merged, err := relation.Concat(parts...)
	if err != nil {
		return nil, err
	}
	out := make([]*relation.Relation, len(cfds))
	for ci, c := range cfds {
		pats, err := s.kern.ViolationPatterns(merged, c, engine.Opts{Workers: s.intraWorkers})
		if err != nil {
			return nil, err
		}
		out[ci] = pats
	}
	return out, nil
}

// constEntry pairs a maintained constant-unit state with its last
// extracted result: the extraction is invalidated (out = nil) whenever
// a delta folds into the state, so a warm repeated rule still costs
// one cache probe, as the plan-once/detect-many path always did. The
// state itself is only touched under the cache's lock.
type constEntry struct {
	st  *engine.IncrementalState
	out atomic.Pointer[relation.Relation]
}

// DetectConstantsLocal checks c's constant units against the local
// fragment (no shipment, Proposition 5), reporting distinct violating
// X-patterns over c.X. The matched-set state behind the answer is
// cached per CFD content and maintained generation-by-generation by
// ApplyDelta, so under delta traffic the constant phase of a repeated
// rule costs at most an extraction over the current violations instead
// of a fragment scan; a scan happens only on first sight of the CFD
// (or after the cache was reset at its cap). The returned relation is
// shared — callers must not mutate it.
func (s *Site) DetectConstantsLocal(ctx context.Context, c *cfd.CFD) (*relation.Relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fp := cfdFingerprint(c)
	ent, epoch, ok := s.consts.lookup(fp)
	if !ok {
		built, err := s.buildConstState(c)
		if err != nil {
			return nil, err
		}
		ent = s.consts.store(epoch, fp, &constEntry{st: built})
	}
	if out := ent.out.Load(); out != nil {
		return out, nil
	}
	ps, err := s.frag.Schema().Project("viopi_"+c.Name, c.X)
	if err != nil {
		return nil, err
	}
	out := relation.New(ps)
	// Extraction runs under the lock: the state's maps must not be read
	// while ApplyDelta folds a delta into them, and concurrent callers
	// of the same entry should share one extraction.
	s.consts.mu.Lock()
	defer s.consts.mu.Unlock()
	if prev := ent.out.Load(); prev != nil {
		return prev, nil
	}
	ent.st.Patterns(out)
	if err := out.SortBy(c.X...); err != nil {
		return nil, err
	}
	ent.out.Store(out)
	return out, nil
}

// buildConstState scans the fragment into a fresh constant-unit state.
func (s *Site) buildConstState(c *cfd.CFD) (*engine.IncrementalState, error) {
	st, err := engine.NewIncrementalState(s.frag.Schema(), c, true)
	if err != nil {
		return nil, err
	}
	if st.HasUnits() {
		// Scan streams tuples (a store-backed fragment decodes them
		// chunk by chunk); Insert projects what it keeps, so the reused
		// scan buffer never escapes.
		if err := s.frag.Scan(func(t relation.Tuple) error {
			st.Insert(t)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// MineFrequent mines closed frequent LHS patterns over x with support
// theta·|Di| at this site, with per-pattern relative supports, over
// the X-projection of every row (read through ProjectBlocks).
func (s *Site) MineFrequent(ctx context.Context, x []string, theta float64) ([]mining.Pattern, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	proj, err := s.frag.ProjectBlocks(s.frag.Schema().Name()+"_mine", x, [][]int32{rowSpan(0, s.frag.Len())})
	if err != nil {
		return nil, err
	}
	return mining.ClosedPatternsWithSupport(proj[0], x, theta)
}

// cfdFingerprint returns an unambiguous content key for a CFD: equal
// fingerprints iff name, X, Y, and the tableau (in order) are equal.
// Unlike cfd.String()'s ", "-joined rendering, every component is
// length-prefixed, so values that themselves contain separators cannot
// make two different CFDs share a constants-cache entry.
func cfdFingerprint(c *cfd.CFD) string {
	b := relation.AppendKey(nil, c.Name)
	b = binary.AppendUvarint(b, uint64(len(c.X)))
	b = relation.AppendKey(b, c.X...)
	b = binary.AppendUvarint(b, uint64(len(c.Y)))
	b = relation.AppendKey(b, c.Y...)
	b = binary.AppendUvarint(b, uint64(len(c.Tp)))
	for _, tp := range c.Tp {
		b = relation.AppendKey(b, tp.LHS...)
		b = relation.AppendKey(b, tp.RHS...)
	}
	return string(b)
}

// taskAttrs lists what a task projects, once each in first-seen order:
// spec.X (checked, so without repeats), then each CFD's X and Y.
func taskAttrs(spec *BlockSpec, cfds []*cfd.CFD) []string {
	out := slices.Clone(spec.X)
	for _, c := range cfds {
		for _, attrs := range [2][]string{c.X, c.Y} {
			for _, a := range attrs {
				if !slices.Contains(out, a) {
					out = append(out, a)
				}
			}
		}
	}
	return out
}

// emptyPatternRelations checks every CFD against schema and returns an
// empty X-pattern relation for each.
func emptyPatternRelations(schema *relation.Schema, cfds []*cfd.CFD) ([]*relation.Relation, error) {
	out := make([]*relation.Relation, len(cfds))
	for i, c := range cfds {
		if err := c.Validate(schema); err != nil {
			return nil, err
		}
		ps, err := schema.Project("viopi_"+c.Name, c.X)
		if err != nil {
			return nil, err
		}
		out[i] = relation.New(ps)
	}
	return out, nil
}
