package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distcfd/internal/cfd"
	"distcfd/internal/core"
	"distcfd/internal/dist"
	"distcfd/internal/mining"
	"distcfd/internal/relation"
)

// The traced run times calls into core.SiteAPI from outside: every
// site is wrapped twice — around the *core.Site a server hands to
// remote.ServeAPIContext (server side) and around each dialled proxy
// before core.NewCluster (client side). Nothing inside the program
// under test records anything.

type side uint8

const (
	clientSide side = iota
	serverSide
)

func (s side) String() string {
	if s == serverSide {
		return "server"
	}
	return "client"
}

// span is one timed call into a site's public surface.
type span struct {
	Op         int // operation the call belongs to; -1 outside the traced loop
	Site       int
	Side       side
	Method     string
	Start, End time.Duration // since the recorder's epoch
	Rows       int           // tuples carried (extracts, deposits, deltas)
	Bytes      int64         // dist.RelationBytes of a deposited batch (client side)
}

// recorder keeps spans in memory; they are written out when the run
// ends. Driver and sites share one process, so both sides stamp spans
// from the same clock.
type recorder struct {
	epoch time.Time
	op    atomic.Int64

	mu    sync.Mutex
	spans []span
	// largest is the biggest batch any client-side Deposit carried: the
	// block the direct wire-codec measurements run on.
	largest *relation.Relation
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.op.Store(-1)
	return r
}

func (r *recorder) since(t time.Time) time.Duration { return t.Sub(r.epoch) }

// snapshot copies out what has been recorded so far.
func (r *recorder) snapshot() ([]span, *relation.Relation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...), r.largest
}

// tracedSite records a span around each work method of the site it
// wraps. It embeds the interface, so identity accessors and Ping pass
// straight through, and forwards the optional interfaces the tree
// probes for with type assertions.
type tracedSite struct {
	core.SiteAPI
	rec  *recorder
	side side
}

func traced(s core.SiteAPI, rec *recorder, sd side) *tracedSite {
	return &tracedSite{SiteAPI: s, rec: rec, side: sd}
}

func (t *tracedSite) done(method string, start, end time.Time, rows int, bytes int64) {
	sp := span{
		Op: int(t.rec.op.Load()), Site: t.ID(), Side: t.side, Method: method,
		Start: t.rec.since(start), End: t.rec.since(end), Rows: rows, Bytes: bytes,
	}
	t.rec.mu.Lock()
	t.rec.spans = append(t.rec.spans, sp)
	t.rec.mu.Unlock()
}

func relRows(r *relation.Relation) int {
	if r == nil {
		return 0
	}
	return r.Len()
}

func mapRows(m map[int]*relation.Relation) int {
	n := 0
	for _, r := range m {
		n += relRows(r)
	}
	return n
}

func (t *tracedSite) SigmaStats(ctx context.Context, spec *core.BlockSpec) ([]int, error) {
	start := time.Now()
	out, err := t.SiteAPI.SigmaStats(ctx, spec)
	t.done("SigmaStats", start, time.Now(), 0, 0)
	return out, err
}

func (t *tracedSite) ExtractBlock(ctx context.Context, spec *core.BlockSpec, l int, attrs []string) (*relation.Relation, error) {
	start := time.Now()
	out, err := t.SiteAPI.ExtractBlock(ctx, spec, l, attrs)
	t.done("ExtractBlock", start, time.Now(), relRows(out), 0)
	return out, err
}

func (t *tracedSite) ExtractMatching(ctx context.Context, spec *core.BlockSpec, attrs []string) (*relation.Relation, error) {
	start := time.Now()
	out, err := t.SiteAPI.ExtractMatching(ctx, spec, attrs)
	t.done("ExtractMatching", start, time.Now(), relRows(out), 0)
	return out, err
}

func (t *tracedSite) ExtractBlocksBatch(ctx context.Context, spec *core.BlockSpec, attrs []string, wanted []int) (map[int]*relation.Relation, error) {
	start := time.Now()
	out, err := t.SiteAPI.ExtractBlocksBatch(ctx, spec, attrs, wanted)
	t.done("ExtractBlocksBatch", start, time.Now(), mapRows(out), 0)
	return out, err
}

func (t *tracedSite) Deposit(ctx context.Context, task string, batch *relation.Relation, nonce string) error {
	start := time.Now()
	err := t.SiteAPI.Deposit(ctx, task, batch, nonce)
	end := time.Now()
	var bytes int64
	if t.side == clientSide {
		// The driver bills the same batch through the same function
		// right after this call returns, so the encoded view this
		// touches is one the run builds anyway.
		bytes = dist.RelationBytes(batch)
		t.rec.mu.Lock()
		if t.rec.largest == nil || batch.Len() > t.rec.largest.Len() {
			t.rec.largest = batch
		}
		t.rec.mu.Unlock()
	}
	t.done("Deposit", start, end, relRows(batch), bytes)
	return err
}

func (t *tracedSite) Abort(taskKey string) error {
	start := time.Now()
	err := t.SiteAPI.Abort(taskKey)
	t.done("Abort", start, time.Now(), 0, 0)
	return err
}

func (t *tracedSite) Cancel(taskKey string) error {
	start := time.Now()
	err := t.SiteAPI.Cancel(taskKey)
	t.done("Cancel", start, time.Now(), 0, 0)
	return err
}

func (t *tracedSite) DetectTask(ctx context.Context, task string, local core.LocalInput, cfds []*cfd.CFD) ([]*relation.Relation, error) {
	start := time.Now()
	out, err := t.SiteAPI.DetectTask(ctx, task, local, cfds)
	t.done("DetectTask", start, time.Now(), 0, 0)
	return out, err
}

func (t *tracedSite) DetectAssignedSingle(ctx context.Context, taskPrefix string, spec *core.BlockSpec, blocks []int, c *cfd.CFD) (*relation.Relation, error) {
	start := time.Now()
	out, err := t.SiteAPI.DetectAssignedSingle(ctx, taskPrefix, spec, blocks, c)
	t.done("DetectAssignedSingle", start, time.Now(), 0, 0)
	return out, err
}

func (t *tracedSite) DetectAssignedSet(ctx context.Context, taskPrefix string, spec *core.BlockSpec, blocks []int, cfds []*cfd.CFD) ([]*relation.Relation, error) {
	start := time.Now()
	out, err := t.SiteAPI.DetectAssignedSet(ctx, taskPrefix, spec, blocks, cfds)
	t.done("DetectAssignedSet", start, time.Now(), 0, 0)
	return out, err
}

func (t *tracedSite) DetectConstantsLocal(ctx context.Context, c *cfd.CFD) (*relation.Relation, error) {
	start := time.Now()
	out, err := t.SiteAPI.DetectConstantsLocal(ctx, c)
	t.done("DetectConstantsLocal", start, time.Now(), 0, 0)
	return out, err
}

func (t *tracedSite) MineFrequent(ctx context.Context, x []string, theta float64) ([]mining.Pattern, error) {
	start := time.Now()
	out, err := t.SiteAPI.MineFrequent(ctx, x, theta)
	t.done("MineFrequent", start, time.Now(), 0, 0)
	return out, err
}

func (t *tracedSite) ApplyDelta(ctx context.Context, d relation.Delta, nonce string) (core.DeltaInfo, error) {
	start := time.Now()
	out, err := t.SiteAPI.ApplyDelta(ctx, d, nonce)
	t.done("ApplyDelta", start, time.Now(), len(d.Inserts)+len(d.Deletes), 0)
	return out, err
}

func (t *tracedSite) ExtractDeltaBlocks(ctx context.Context, spec *core.BlockSpec, attrs []string, wanted []int, fromGen int64) (*core.DeltaBlocks, error) {
	start := time.Now()
	out, err := t.SiteAPI.ExtractDeltaBlocks(ctx, spec, attrs, wanted, fromGen)
	end := time.Now()
	rows := 0
	if out != nil {
		rows = mapRows(out.Ins) + mapRows(out.Del)
	}
	t.done("ExtractDeltaBlocks", start, end, rows, 0)
	return out, err
}

func (t *tracedSite) FoldDetect(ctx context.Context, args core.FoldArgs) (*core.FoldReply, error) {
	start := time.Now()
	out, err := t.SiteAPI.FoldDetect(ctx, args)
	t.done("FoldDetect", start, time.Now(), 0, 0)
	return out, err
}

func (t *tracedSite) DropSession(session string) error {
	start := time.Now()
	err := t.SiteAPI.DropSession(session)
	t.done("DropSession", start, time.Now(), 0, 0)
	return err
}

// The optional interfaces: each forwards when the wrapped site has the
// method and otherwise answers as a site without it would be treated.

func (t *tracedSite) SetCallTimeout(d time.Duration) {
	if s, ok := t.SiteAPI.(interface{ SetCallTimeout(time.Duration) }); ok {
		s.SetCallTimeout(d)
	}
}

func (t *tracedSite) DetectParallelism() int {
	if s, ok := t.SiteAPI.(interface{ DetectParallelism() int }); ok {
		return s.DetectParallelism()
	}
	return 0
}

func (t *tracedSite) SetDetectParallelism(n int) {
	if s, ok := t.SiteAPI.(interface{ SetDetectParallelism(int) }); ok {
		s.SetDetectParallelism(n)
	}
}

func (t *tracedSite) Draining() bool {
	if s, ok := t.SiteAPI.(interface{ Draining() bool }); ok {
		return s.Draining()
	}
	return false
}

func (t *tracedSite) PendingDeposits() int {
	if s, ok := t.SiteAPI.(interface{ PendingDeposits() int }); ok {
		return s.PendingDeposits()
	}
	return 0
}

func (t *tracedSite) Close() error {
	if s, ok := t.SiteAPI.(interface{ Close() error }); ok {
		return s.Close()
	}
	return nil
}

// methodGroup maps a SiteAPI method to the per-layer metric stem that
// reports it.
func methodGroup(method string) string {
	switch method {
	case "SigmaStats":
		return "sigma_stats"
	case "DetectConstantsLocal":
		return "constants"
	case "ExtractBlock", "ExtractMatching", "ExtractBlocksBatch":
		return "extract"
	case "Deposit":
		return "deposit"
	case "DetectTask", "DetectAssignedSingle", "DetectAssignedSet":
		return "detect"
	case "ApplyDelta":
		return "apply_delta"
	case "ExtractDeltaBlocks":
		return "extract_delta"
	case "FoldDetect":
		return "fold_detect"
	}
	return "other"
}

var methodGroups = []string{
	"sigma_stats", "constants", "extract", "deposit", "detect",
	"apply_delta", "extract_delta", "fold_detect", "other",
}

// opShares is one operation's wall time split among the layers. The
// critical-path fields sum to the operation's wall time; siteSum is
// total site work regardless of overlap.
type opShares struct {
	wall       float64            // seconds
	driverSelf float64            // no site call in flight
	rpc        float64            // inside a client span, outside its server span
	site       map[string]float64 // methodGroup → seconds on the critical path
	siteSum    map[string]float64 // methodGroup → seconds summed over sites
	calls      int                // client-side site calls
}

// attribute sweeps one operation's window. At every instant the
// elapsed time is divided equally among the client spans in flight;
// each span's part counts as site work while its matching server span
// is also in flight and as remote overhead otherwise. With no client
// span in flight the time is the driver's own. remote says whether
// server spans exist at all: in-process, the whole client span is site
// work.
func attribute(start, end time.Duration, spans []span, remote bool) opShares {
	sh := opShares{
		wall:    (end - start).Seconds(),
		site:    make(map[string]float64),
		siteSum: make(map[string]float64),
	}
	var clients, servers []span
	for _, sp := range spans {
		if sp.End <= start || sp.Start >= end {
			continue
		}
		sp.Start, sp.End = max(sp.Start, start), min(sp.End, end)
		if sp.Side == clientSide {
			clients = append(clients, sp)
		} else {
			servers = append(servers, sp)
		}
	}
	sh.calls = len(clients)
	twin := matchServerSpans(clients, servers)

	work := servers
	if !remote {
		work = clients
	}
	for _, sp := range work {
		sh.siteSum[methodGroup(sp.Method)] += (sp.End - sp.Start).Seconds()
	}

	cuts := []time.Duration{start, end}
	for _, sp := range clients {
		cuts = append(cuts, sp.Start, sp.End)
	}
	for _, sp := range servers {
		cuts = append(cuts, sp.Start, sp.End)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })

	var active []int
	for k := 0; k+1 < len(cuts); k++ {
		a, b := cuts[k], cuts[k+1]
		if a == b {
			continue
		}
		dt := (b - a).Seconds()
		active = active[:0]
		for i, c := range clients {
			if c.Start <= a && c.End >= b {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			sh.driverSelf += dt
			continue
		}
		part := dt / float64(len(active))
		for _, i := range active {
			g := methodGroup(clients[i].Method)
			if !remote {
				sh.site[g] += part
				continue
			}
			if j := twin[i]; j >= 0 && servers[j].Start <= a && servers[j].End >= b {
				sh.site[g] += part
			} else {
				sh.rpc += part
			}
		}
	}
	return sh
}

// matchServerSpans pairs each client span with the server span it
// caused: same site and method, and the server span lies inside the
// client span. Calls to one site may overlap, so among several
// candidates the earliest unclaimed server span wins. The result is
// indexed like clients; -1 means no server span was found.
func matchServerSpans(clients, servers []span) []int {
	twin := make([]int, len(clients))
	order := make([]int, len(clients))
	for i := range clients {
		twin[i] = -1
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return clients[order[i]].Start < clients[order[j]].Start })
	sorder := make([]int, len(servers))
	for j := range servers {
		sorder[j] = j
	}
	sort.Slice(sorder, func(i, j int) bool { return servers[sorder[i]].Start < servers[sorder[j]].Start })
	claimed := make([]bool, len(servers))
	for _, i := range order {
		c := clients[i]
		for _, j := range sorder {
			s := servers[j]
			if s.Start > c.End {
				break
			}
			if claimed[j] || s.Site != c.Site || s.Method != c.Method || s.Start < c.Start || s.End > c.End {
				continue
			}
			twin[i], claimed[j] = j, true
			break
		}
	}
	return twin
}

// chromeEvent is one complete event of the Chrome trace format
// (chrome://tracing, ui.perfetto.dev).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type opWindow struct {
	Op         int
	Start, End time.Duration
}

// writeChromeTrace writes the spans as complete events: one process
// per site (pid = site + 1; pid 0 is the driver's operations), client
// and server spans on separate thread lanes, overlapping calls spread
// over further lanes so that no two events on a lane intersect.
func writeChromeTrace(path string, st stamp, ops []opWindow, spans []span) error {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]chromeEvent, 0, len(ops)+len(spans))
	for _, o := range ops {
		events = append(events, chromeEvent{
			Name: "op", Cat: "driver", Ph: "X", Ts: us(o.Start), Dur: us(o.End - o.Start),
			Args: map[string]any{"op": o.Op},
		})
	}
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	type laneKey struct {
		site int
		side side
	}
	laneEnds := make(map[laneKey][]time.Duration)
	for _, sp := range sorted {
		k := laneKey{sp.Site, sp.Side}
		lane := -1
		for i, e := range laneEnds[k] {
			if e <= sp.Start {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnds[k])
			laneEnds[k] = append(laneEnds[k], 0)
		}
		laneEnds[k][lane] = sp.End
		events = append(events, chromeEvent{
			Name: sp.Method, Cat: sp.Side.String(), Ph: "X", Ts: us(sp.Start), Dur: us(sp.End - sp.Start),
			Pid: sp.Site + 1, Tid: int(sp.Side)*1000 + lane,
			Args: map[string]any{"op": sp.Op, "rows": sp.Rows, "bytes": sp.Bytes},
		})
	}
	doc := map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": st}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
