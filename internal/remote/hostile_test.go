package remote

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"net/rpc"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/colstore"
	"distcfd/internal/core"
	"distcfd/internal/dist"
	"distcfd/internal/engine"
	"distcfd/internal/relation"
)

// Peer-supplied packed bytes: a WirePackedRelation is adopted as a
// relation's storage, so whatever FromWire lets through is decoded
// later by code with no error channel (Encoded.Column, PayloadSizes)
// inside handlers net/rpc does not recover. These tests pin the trust
// boundary: malformed payloads are a plain error at FromWire, on the
// site that receives a Deposit and on the driver that relays an
// extract — never a panic downstream.

var hostileSchema = relation.MustSchema("R_ship", []string{"a", "b"})

var hostileCFD = cfd.MustParse(`h: [a] -> [b]`)

// hostileBase is the valid payload every case starts from: 100 rows,
// two columns (a cycles through 10 values, b through 3, so [a] -> [b]
// is violated), packed at 32 rows per chunk — four chunks a column.
func hostileBase(t testing.TB) (*relation.Relation, *WireRelation) {
	t.Helper()
	d := relation.New(hostileSchema)
	for i := 0; i < 100; i++ {
		d.MustAppend(relation.Tuple{fmt.Sprintf("a%d", i%10), fmt.Sprintf("b%d", i%3)})
	}
	const chunkRows = 32
	e := d.Encoded()
	w := &WireRelation{
		Name: hostileSchema.Name(), Attrs: hostileSchema.Attrs(), Rows: d.Len(),
		Packed: &WirePackedRelation{Rows: d.Len(), ChunkRows: chunkRows},
	}
	for j := 0; j < e.Arity(); j++ {
		col, dict := e.Column(j)
		wc := WirePackedColumn{Dict: colstore.EncodeDictSection(nil, dict.Vals())}
		for lo := 0; lo < len(col); lo += chunkRows {
			chunk, _, _ := colstore.EncodeChunk(nil, col[lo:min(lo+chunkRows, len(col))])
			wc.Chunks = append(wc.Chunks, chunk)
		}
		w.Packed.Cols = append(w.Packed.Cols, wc)
	}
	return d, w
}

// rleBomb rewrites w into the smallest payload announcing the most
// rows: Rows = ChunkRows = 1<<30 and, per column, one chunk holding a
// single run-length run of ID 0. Every chunk is well-formed and covers
// its span, so only the chunkRows cap stands between these ~60 bytes
// and a 4 GiB-per-column decode.
func rleBomb(w *WireRelation) {
	const rows = 1 << 30
	w.Rows, w.Packed.Rows, w.Packed.ChunkRows = rows, rows, rows
	run := binary.AppendUvarint(binary.AppendUvarint([]byte{0}, rows<<1|1), 0)
	for j := range w.Packed.Cols {
		c := &w.Packed.Cols[j]
		c.Chunks = [][]byte{run}
	}
}

// hostileCases are the confirmed crashers, as edits of the base,
// followed by the malformed values sections (sectionCases).
var hostileCases = append([]struct {
	name   string
	mutate func(*WireRelation)
}{
	// Chunks hold IDs up to 9; under a 2-value dictionary the kernel (or
	// PayloadSizes) would index out of range.
	{"dict-shorter-than-ids", func(w *WireRelation) {
		w.Packed.Cols[0].Dict = colstore.EncodeDictSection(nil, []string{"a0", "a1"})
	}},
	// A chunk whose width byte is 255 cannot decode: the kernel's read
	// would fail, and Encoded.Column would panic materializing it.
	{"garbage-chunk", func(w *WireRelation) {
		w.Packed.Cols[1].Chunks[0] = []byte{0xff, 0xff, 0xff}
	}},
	// A truncated dictionary section: ColumnDict would panic.
	{"truncated-dict", func(w *WireRelation) {
		w.Packed.Cols[0].Dict = []byte{0xff}
	}},
	// Verifies chunk by chunk, then dies (or takes the machine with it)
	// allocating the first materialized column.
	{"rle-bomb", rleBomb},
	// A count column one count short of the rows: the billing would
	// index past it.
	{"counts-short", func(w *WireRelation) {
		w.Counts = colstore.EncodeCounts(counts(w.Rows-1, 2))
	}},
	// A zero count: a row standing for no tuple.
	{"count-zero", func(w *WireRelation) {
		c := counts(w.Rows, 1)
		c[7] = 0
		w.Counts = colstore.EncodeCounts(c)
	}},
	// Counts whose sum passes relation.MaxBag: ShippedTuples and the
	// σ-count check would wrap.
	{"counts-overflow", func(w *WireRelation) {
		w.Counts = colstore.EncodeCounts(counts(w.Rows, math.MaxUint32))
	}},
}, sectionCases...)

// counts returns a count column of n counts of c each.
func counts(n int, c uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = c
	}
	return out
}

// sectionCases are malformed values sections (colstore.DecodeDictSection)
// and payloads that set more than one wire form, as edits of any valid
// payload holding at least one row: each re-encodes it in the row form
// (asRows) or the dict+ID form (asDicts) first.
var sectionCases = []struct {
	name   string
	mutate func(*WireRelation)
}{
	// The last value's two-byte length prefix ends after its first byte.
	{"section-length-truncated", func(w *WireRelation) {
		long := strings.Repeat("v", 200)
		sec := colstore.EncodeDictSection(nil, append(asRows(w), long))
		w.Tuples = sec[:len(sec)-len(long)-1]
	}},
	// The last value's bytes run past the end of the section.
	{"section-value-overrun", func(w *WireRelation) {
		asRows(w)
		w.Tuples = w.Tuples[:len(w.Tuples)-1]
	}},
	// The count announces more values than the section has bytes.
	{"section-count-overrun", func(w *WireRelation) {
		asRows(w)
		_, k := binary.Uvarint(w.Tuples)
		w.Tuples = append(binary.AppendUvarint(nil, uint64(len(w.Tuples))), w.Tuples[k:]...)
	}},
	// Rows × arity overflows an int.
	{"section-rows-overflow", func(w *WireRelation) {
		asRows(w)
		w.Rows = math.MaxInt/2 + 1
	}},
	// Rows × arity does not match the values.
	{"section-rows-mismatch", func(w *WireRelation) {
		asRows(w)
		w.Rows++
	}},
	{"section-trailing-bytes", func(w *WireRelation) {
		asRows(w)
		w.Tuples = append(w.Tuples, 0)
	}},
	{"dict-section-trailing-bytes", func(w *WireRelation) {
		asDicts(w)
		w.Dicts[0] = append(w.Dicts[0], 0)
	}},
	// Two IDs name one value: Lookup would disagree with the ID vectors.
	{"dict-duplicate-value", func(w *WireRelation) {
		asDicts(w)
		vals, _ := colstore.DecodeDictSection(w.Dicts[0])
		w.Dicts[0] = colstore.EncodeDictSection(nil, append([]string{vals[0]}, vals...))
	}},
	// A dictionary value no row uses: adopted as a dense column, a relay
	// would ship it while the billing counts only the values present.
	{"dict-unused-value", func(w *WireRelation) {
		asDicts(w)
		vals, _ := colstore.DecodeDictSection(w.Dicts[0])
		w.Dicts[0] = colstore.EncodeDictSection(nil, append(vals, "unused"))
	}},
	// Both forms set: neither may silently win.
	{"two-forms", func(w *WireRelation) {
		asRows(w)
		tuples := w.Tuples
		asDicts(w)
		w.Tuples = tuples
	}},
}

// asRows re-encodes the valid payload w in the row form, as ToWire
// would (zero rows ship no section), and returns its values, row-major.
func asRows(w *WireRelation) []string {
	rel, err := FromWire(w)
	if err != nil {
		panic(err)
	}
	w.Packed, w.Tuples, w.Dicts, w.Cols, w.Rows = nil, nil, nil, nil, rel.Len()
	if rel.Len() == 0 {
		return nil
	}
	w.Tuples = colstore.EncodeRowSection(nil, rel.Tuples())
	vals, _ := colstore.DecodeDictSection(w.Tuples)
	return vals
}

// asDicts re-encodes the valid payload w in the dict+ID form.
func asDicts(w *WireRelation) {
	rel, err := FromWire(w)
	if err != nil {
		panic(err)
	}
	w.Packed, w.Tuples, w.Rows = nil, nil, rel.Len()
	w.Dicts, w.Cols = relation.Compact(rel.Encoded(), func(n int, val func(uint32) string) []byte { return colstore.AppendValues(nil, n, val) })
}

// TestHostilePackedDepositRejected drives each crasher through a live
// loopback server: the Deposit RPC carrying it returns an error, the
// server keeps serving — a valid deposit then detects normally over
// the same listener — and nothing stays buffered after Cancel.
func TestHostilePackedDepositRejected(t *testing.T) {
	base, _ := hostileBase(t)
	frag := relation.New(relation.MustSchema("R", []string{"a", "b"}))
	frag.MustAppend(relation.Tuple{"a0", "b9"})
	site := core.NewSite(0, frag, relation.True())
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = ServeAPIContext(ctx, lis, site, frag.Schema()) }()

	raw, err := rpc.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	sites, _, err := Dial([]string{lis.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer sites[0].(*RemoteSite).Close()
	spec, err := core.NewBlockSpec([]string{"a"}, [][]string{{cfd.Wildcard}})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range hostileCases {
		t.Run(tc.name, func(t *testing.T) {
			_, w := hostileBase(t)
			tc.mutate(w)
			task := "hostile-" + tc.name
			err := raw.Call(serviceName+".Deposit", DepositArgs{Task: core.BlockTask(task, 0), Batch: w}, &struct{}{})
			if err == nil {
				t.Fatal("malformed packed deposit was accepted")
			}
			if core.ErrCodeOf(decodeError(err)) != "" {
				t.Errorf("rejection should be a plain, non-transient error, got %v", err)
			}
			// The server is still up, and the rejected batch left nothing
			// behind: detection over the block sees the local row alone.
			pats, err := sites[0].DetectAssignedSet(context.Background(), task, spec, []int{0}, []*cfd.CFD{hostileCFD})
			if err != nil {
				t.Fatalf("server stopped serving after the rejected deposit: %v", err)
			}
			if pats[0].Len() != 0 {
				t.Errorf("rejected deposit leaked into detection: %v", pats[0])
			}
			if err := sites[0].Cancel(task); err != nil {
				t.Fatal(err)
			}
			if n := site.PendingDeposits(); n != 0 {
				t.Errorf("%d deposit tasks buffered after Cancel", n)
			}
		})
	}

	// Control: the unmutated payload is adopted, merged with the local
	// row, and detected.
	_, w := hostileBase(t)
	if err := raw.Call(serviceName+".Deposit", DepositArgs{Task: core.BlockTask("valid", 0), Batch: w}, &struct{}{}); err != nil {
		t.Fatal(err)
	}
	pats, err := sites[0].DetectAssignedSet(context.Background(), "valid", spec, []int{0}, []*cfd.CFD{hostileCFD})
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.ViolationPatterns(base, hostileCFD)
	if err != nil {
		t.Fatal(err)
	}
	if !pats[0].SameTuples(want) || want.Len() == 0 {
		t.Errorf("valid deposit detected %v, want %v", pats[0], want)
	}
}

// TestHostileShippedFoldRejected drives each crasher — among them chunks
// holding IDs past their dictionary — as a delta block shipped inside a
// FoldDetect: the call is refused with a plain error before the site
// sees any of it, the server keeps serving, and the session it named
// folded nothing — valid folds that follow report what a fresh
// detection over the same rows does.
func TestHostileShippedFoldRejected(t *testing.T) {
	frag := relation.New(relation.MustSchema("R", []string{"a", "b"}))
	frag.MustAppend(relation.Tuple{"a0", "b9"})
	site := core.NewSite(0, frag, relation.True())
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = ServeAPIContext(ctx, lis, site, frag.Schema()) }()
	raw, err := rpc.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	sites, _, err := Dial([]string{lis.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer sites[0].(*RemoteSite).Close()
	spec, err := core.NewBlockSpec([]string{"a"}, [][]string{{cfd.Wildcard}})
	if err != nil {
		t.Fatal(err)
	}
	// fold ships w into the session as block 0's inserts or deletes and
	// returns the session's patterns: the seed's, plus every fold's
	// additions, minus its removals.
	held := relation.NewCountedSet(relation.MustSchema("viopi_h", []string{"a"}))
	fold := func(w *WireRelation, ins bool) (*relation.Relation, error) {
		args := FoldArgs{Session: "s", Spec: spec, Blocks: []int{0}, CFDs: []*cfd.CFD{hostileCFD}}
		if ins {
			args.Shipped = []DeltaBlocksReply{{Ins: map[int]*WireRelation{0: w}}}
		} else {
			args.Shipped = []DeltaBlocksReply{{Del: map[int]*WireRelation{0: w}}}
		}
		var reply FoldReply
		if err := raw.Call(serviceName+".FoldDetect", args, &reply); err != nil {
			return nil, err
		}
		added, err := fromWireSlice(reply.Added)
		if err != nil {
			return nil, err
		}
		removed, err := fromWireSlice(reply.Removed)
		if err != nil {
			return nil, err
		}
		return held.Update(added, removed)
	}
	// fresh detects block 0 over the local row plus w, if any.
	fresh := func(w *WireRelation) *relation.Relation {
		task := "fresh-" + strconv.FormatBool(w != nil)
		if w != nil {
			if err := raw.Call(serviceName+".Deposit", DepositArgs{Task: core.BlockTask(task, 0), Batch: w}, &struct{}{}); err != nil {
				t.Fatal(err)
			}
		}
		pats, err := sites[0].DetectAssignedSet(context.Background(), task, spec, []int{0}, []*cfd.CFD{hostileCFD})
		if err != nil {
			t.Fatal(err)
		}
		return pats[0]
	}
	// Seed the session over the local row alone.
	if err := raw.Call(serviceName+".FoldDetect", FoldArgs{Session: "s", Spec: spec, Blocks: []int{0},
		CFDs: []*cfd.CFD{hostileCFD}, Seed: true}, &FoldReply{}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range hostileCases {
		t.Run(tc.name, func(t *testing.T) {
			_, w := hostileBase(t)
			tc.mutate(w)
			_, err := fold(w, true)
			if err == nil {
				t.Fatal("malformed shipped block was accepted")
			}
			if core.ErrCodeOf(decodeError(err)) != "" {
				t.Errorf("rejection should be a plain, non-transient error, got %v", err)
			}
		})
	}
	_, w := hostileBase(t)
	got, err := fold(w, true)
	if err != nil {
		t.Fatalf("server stopped folding after the rejected blocks: %v", err)
	}
	if want := fresh(w); !got.SameTuples(want) || want.Len() == 0 {
		t.Errorf("valid fold after the rejected ones %v, fresh detection %v", got, want)
	}
	// Deleting the payload again leaves the local row alone: nothing a
	// rejected block carried stayed in the session.
	if got, err = fold(w, false); err != nil {
		t.Fatal(err)
	}
	if want := fresh(nil); !got.SameTuples(want) {
		t.Errorf("fold after deleting the payload %v, fresh detection %v", got, want)
	}
	if n := site.PendingDeposits(); n != 0 {
		t.Errorf("%d deposit tasks buffered", n)
	}
}

// TestHostileSpecRejected: a σ spec whose pattern is longer than its X
// killed the serving process from inside SigmaStats. The served site
// now answers it with a plain error and goes on serving.
func TestHostileSpecRejected(t *testing.T) {
	frag := relation.MustFromRows(relation.MustSchema("R", []string{"a", "b"}), []string{"a0", "b0"})
	site := core.NewSite(0, frag, relation.True())
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = ServeAPIContext(ctx, lis, site, frag.Schema()) }()
	raw, err := rpc.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	bad := &core.BlockSpec{X: []string{"a"}, Patterns: [][]string{{"a0", "b0"}}}
	var stats []int
	err = raw.Call(serviceName+".SigmaStats", SpecArgs{Spec: bad}, &stats)
	if err == nil {
		t.Fatal("malformed spec accepted")
	}
	if core.ErrCodeOf(decodeError(err)) != "" {
		t.Errorf("rejection should be a plain, non-transient error, got %v", err)
	}
	good, err := core.NewBlockSpec([]string{"a"}, [][]string{{"a0"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.Call(serviceName+".SigmaStats", SpecArgs{Spec: good}, &stats); err != nil {
		t.Fatalf("server stopped serving after the rejected spec: %v", err)
	}
	if !reflect.DeepEqual(stats, []int{1}) {
		t.Errorf("stats = %v, want [1]", stats)
	}
}

// TestHostileApplyDeltaRejected: an insert shorter than the schema
// killed a serving process whose fragment has a predicate, which read
// the tuple's attributes before anything checked its arity. The served
// site now answers it with a plain error and goes on serving.
func TestHostileApplyDeltaRejected(t *testing.T) {
	frag := relation.MustFromRows(relation.MustSchema("R", []string{"a", "b"}), []string{"a0", "b0"})
	site := core.NewSite(0, frag, relation.And(relation.Eq("b", "b0")))
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = ServeAPIContext(ctx, lis, site, frag.Schema()) }()
	raw, err := rpc.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	var reply ApplyDeltaReply
	short := DeltaToWire(relation.Delta{Inserts: []relation.Tuple{{"x"}}})
	good := ApplyDeltaArgs{Delta: DeltaToWire(relation.Delta{Inserts: []relation.Tuple{{"a1", "b0"}}})}
	ins := good.Delta.Inserts
	for name, bad := range map[string]WireDelta{
		"short-insert":     short,
		"length-truncated": {Inserts: ins[:len(ins)-3], Rows: 1},
		"value-overrun":    {Inserts: ins[:len(ins)-1], Rows: 1},
		"count-overrun":    {Inserts: append([]byte{byte(len(ins))}, ins[1:]...), Rows: 1},
		"rows-overflow":    {Inserts: ins, Rows: math.MaxInt/2 + 1},
		"rows-mismatch":    {Inserts: ins, Rows: 3},
		"rows-unset":       {Inserts: ins},
		"trailing-bytes":   {Inserts: append(slices.Clone(ins), 0), Rows: 1},
	} {
		err = raw.Call(serviceName+".ApplyDelta", ApplyDeltaArgs{Delta: bad}, &reply)
		if err == nil {
			t.Fatalf("%s: malformed delta accepted", name)
		}
		if core.ErrCodeOf(decodeError(err)) != "" {
			t.Errorf("%s: rejection should be a plain, non-transient error, got %v", name, err)
		}
	}
	if err := raw.Call(serviceName+".ApplyDelta", good, &reply); err != nil {
		t.Fatalf("server stopped serving after the rejected delta: %v", err)
	}
	if reply.Gen != 1 || reply.NumTuples != 2 {
		t.Errorf("reply = %+v, want generation 1 over 2 tuples", reply)
	}
}

// hostileService is a peer whose extracts are malformed: everything
// else is the real service.
type hostileService struct {
	*SiteService
	reply *WireRelation
}

func (h hostileService) ExtractBlocksBatch(_ ExtractArgs, reply *map[int]*WireRelation) error {
	*reply = map[int]*WireRelation{0: h.reply}
	return nil
}

// TestHostilePackedRelayRejected is the driver side: an
// ExtractBlocksBatch reply carrying a malformed payload must come back
// from the proxy as an error — were it adopted, the driver would die in
// dist.RelationBytes (PayloadSizes has no error channel) the moment it
// charged the shipment.
func TestHostilePackedRelayRejected(t *testing.T) {
	frag := relation.New(relation.MustSchema("R", []string{"a", "b"}))
	site := core.NewSite(0, frag, relation.True())
	spec, err := core.NewBlockSpec([]string{"a"}, [][]string{{cfd.Wildcard}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range hostileCases {
		t.Run(tc.name, func(t *testing.T) {
			_, w := hostileBase(t)
			tc.mutate(w)
			addr := serveRPC(t, hostileService{SiteService: NewSiteServiceContext(context.Background(), site, frag.Schema()), reply: w})
			sites, _, err := Dial([]string{addr})
			if err != nil {
				t.Fatal(err)
			}
			defer sites[0].(*RemoteSite).Close()
			if _, err := sites[0].ExtractBlocksBatch(context.Background(), spec, []string{"a", "b"}, []int{0}); err == nil {
				t.Fatal("malformed packed extract was adopted by the driver")
			}
			if err := sites[0].Ping(context.Background()); err != nil {
				t.Errorf("proxy unusable after the rejected reply: %v", err)
			}
		})
	}
}

// serveRPC serves svc as the site service on a loopback listener until
// the test ends and returns the listener's address.
func serveRPC(t *testing.T, svc any) string {
	t.Helper()
	srv := rpc.NewServer()
	if err := srv.RegisterName(serviceName, svc); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	return lis.Addr().String()
}

// hostileReplies serves a real site but, while mode names a garbling,
// rewrites one kind of reply on its way out: the σ counts of SigmaStats
// or of a later round's extract (one too many, one too few, a negative
// one), a fresh run's or a seed's extracted blocks (one row more than
// the σ count, as valid packed payloads named "oversized", or its rows
// counted one tuple past it), a fresh
// run's coordinator check (no pattern set at all, or more patterns than
// the fragments hold rows), or a later fold's
// pattern changes (missing, over more attributes than the CFD's X, over
// an attribute outside it, removing a pattern never added, adding more
// patterns than the fold holds rows, adding one already added).
// forwarded counts the oversized blocks that reach a Deposit or a fold.
type hostileReplies struct {
	*SiteService
	mode      *atomic.Value
	forwarded *atomic.Int64
}

// oversized re-encodes w's rows and a second copy of its first row as
// a valid packed payload named "oversized".
func oversized(w *WireRelation) *WireRelation {
	r, err := FromWire(w)
	if err != nil || r.Len() == 0 {
		panic(fmt.Sprintf("oversized: cannot grow %v: %v", w, err))
	}
	d := relation.New(relation.MustSchema("oversized", w.Attrs))
	for _, t := range append(r.Tuples(), r.Tuple(0)) {
		d.MustAppend(t)
	}
	e := d.Encoded()
	dicts, cols := make([]*relation.Dict, e.Arity()), make([][]uint32, e.Arity())
	for j := range cols {
		cols[j], dicts[j] = e.Column(j)
	}
	p, err := colstore.PackColumns(dicts, cols, d.Len())
	if err != nil {
		panic(err)
	}
	return &WireRelation{Name: "oversized", Attrs: w.Attrs, Rows: d.Len(), Packed: packedToWire(p)}
}

func (h hostileReplies) ExtractBlocksBatch(args ExtractArgs, reply *map[int]*WireRelation) error {
	err := h.SiteService.ExtractBlocksBatch(args, reply)
	switch {
	case err != nil:
	case h.mode.Load() == "ship-oversized":
		for l, w := range *reply {
			(*reply)[l] = oversized(w)
		}
	case h.mode.Load() == "ship-counted-oversized":
		// Well-formed counts, one tuple more than the σ count.
		for _, w := range *reply {
			c := counts(w.Rows, 1)
			c[0] = 2
			w.Name, w.Counts = "oversized", colstore.EncodeCounts(c)
		}
	}
	return err
}

func (h hostileReplies) DetectAssignedSet(args DetectAssignedArgs, reply *[]*WireRelation) error {
	if err := h.SiteService.DetectAssignedSet(args, reply); err != nil {
		return err
	}
	switch h.mode.Load() {
	case "detect-short":
		*reply = nil
	case "detect-inflated": // more patterns than the 4 rows of the fragments
		rows := []relation.Tuple{{"z0"}, {"z1"}, {"z2"}, {"z3"}, {"z4"}}
		(*reply)[0] = &WireRelation{Name: "viopi_h", Attrs: []string{"a"}, Rows: len(rows),
			Tuples: colstore.EncodeRowSection(nil, rows)}
	}
	return nil
}

func (h hostileReplies) Deposit(args DepositArgs, reply *struct{}) error {
	if args.Batch != nil && args.Batch.Name == "oversized" {
		h.forwarded.Add(1)
	}
	return h.SiteService.Deposit(args, reply)
}

func (h hostileReplies) garble(kind string, counts *[]int) {
	switch h.mode.Load() {
	case kind + "-long":
		*counts = append(*counts, 1)
	case kind + "-short":
		*counts = (*counts)[:len(*counts)-1]
	case kind + "-negative":
		(*counts)[0] = -1
	}
}

func (h hostileReplies) SigmaStats(args SpecArgs, reply *[]int) error {
	err := h.SiteService.SigmaStats(args, reply)
	if err == nil {
		h.garble("sigma", reply)
	}
	return err
}

func (h hostileReplies) ExtractDeltaBlocks(args DeltaBlocksArgs, reply *DeltaBlocksReply) error {
	err := h.SiteService.ExtractDeltaBlocks(args, reply)
	if err == nil && args.FromGen >= 0 {
		h.garble("extract", &reply.Counts)
	}
	if err == nil && args.FromGen < 0 && h.mode.Load() == "seed-oversized" {
		for l, w := range reply.Ins {
			reply.Ins[l] = oversized(w)
		}
	}
	return err
}

func (h hostileReplies) FoldDetect(args FoldArgs, reply *FoldReply) error {
	for _, db := range args.Shipped {
		for _, w := range db.Ins {
			if w != nil && w.Name == "oversized" {
				h.forwarded.Add(1)
			}
		}
	}
	err := h.SiteService.FoldDetect(args, reply)
	if err != nil || args.Seed {
		return err
	}
	pattern := func(attrs []string, vals ...string) *WireRelation {
		return &WireRelation{Name: "viopi_h", Attrs: attrs, Rows: 1,
			Tuples: colstore.EncodeRowSection(nil, []relation.Tuple{vals})}
	}
	overA := func(vals ...string) *WireRelation { // one pattern over [a] per value
		rows := make([]relation.Tuple, len(vals))
		for i, v := range vals {
			rows[i] = relation.Tuple{v}
		}
		return &WireRelation{Name: "viopi_h", Attrs: []string{"a"}, Rows: len(rows),
			Tuples: colstore.EncodeRowSection(nil, rows)}
	}
	for _, c := range sectionCases {
		if h.mode.Load() == "fold-"+c.name {
			reply.Added[0] = pattern([]string{"a"}, "a7")
			c.mutate(reply.Added[0])
		}
	}
	switch h.mode.Load() {
	case "fold-missing":
		reply.Added = nil
	case "fold-wider-than-X":
		reply.Added[0] = pattern([]string{"a", "b"}, "a7", "b7")
	case "fold-outside-X":
		reply.Added[0] = pattern([]string{"b"}, "b7")
	case "fold-removes-unheld":
		reply.Removed[0] = pattern([]string{"a"}, "a7")
	case "fold-inflated": // more patterns than the 5 rows the fold holds
		reply.Added[0] = overA("a2", "z0", "z1", "z2", "z3", "z4")
	case "fold-duplicate-added": // a0 has violated since the seed
		reply.Added[0] = overA("a0", "a2")
	}
	return nil
}

// TestHostileRepliesRefused is the driver's side of the σ-count,
// extract and pattern-change replies: a count vector of the wrong
// length or with a negative count — from SigmaStats at the seed or from
// a later round's extract — an extracted block longer than its σ count
// or counted past it — in a fresh run's ExtractBlocksBatch or a seed's ExtractDeltaBlocks,
// refused before anything forwards it — a coordinator check replying
// no pattern set or more patterns than its blocks hold tuples, and a
// fold reply with its
// pattern sets missing, over other attributes than the CFD's X,
// removing a pattern never added, adding more patterns than its blocks
// hold rows or one already added, or carried in a malformed values
// section (sectionCases), fail the run with a plain error instead of a
// panic or a wrong answer, and the next round reseeds and equals a
// fresh Detect.
func TestHostileRepliesRefused(t *testing.T) {
	ctx := context.Background()
	schema := relation.MustSchema("R", []string{"a", "b"})
	frags := []*relation.Relation{
		relation.MustFromRows(schema, []string{"a0", "b0"}, []string{"a1", "b1"}),
		relation.MustFromRows(schema, []string{"a0", "b1"}, []string{"a2", "b2"}),
	}
	modes := []string{
		"sigma-long", "sigma-short", "sigma-negative",
		"extract-long", "extract-short", "extract-negative",
		"ship-oversized", "ship-counted-oversized", "seed-oversized", "detect-short", "detect-inflated",
		"fold-missing", "fold-wider-than-X", "fold-outside-X", "fold-removes-unheld",
		"fold-inflated", "fold-duplicate-added",
	}
	for _, c := range sectionCases {
		modes = append(modes, "fold-"+c.name)
	}
	for _, mode := range modes {
		t.Run(mode, func(t *testing.T) {
			var garbling atomic.Value
			garbling.Store("")
			var forwarded atomic.Int64
			addrs := make([]string, len(frags))
			for i, f := range frags {
				site := core.NewSite(i, f, relation.True())
				addrs[i] = serveRPC(t, hostileReplies{SiteService: NewSiteServiceContext(ctx, site, schema), mode: &garbling, forwarded: &forwarded})
			}
			sites, _, err := Dial(addrs)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, s := range sites {
					s.(*RemoteSite).Close()
				}
			}()
			cl, err := core.NewCluster(schema, sites)
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.CompileSet(ctx, cl, []*cfd.CFD{hostileCFD}, core.PatDetectS, core.Options{}, true)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(mode, "extract") || strings.HasPrefix(mode, "fold") {
				// Seed, then make a2 violate, so the garbled round has a delta.
				if _, err := p.DetectIncremental(ctx); err != nil {
					t.Fatal(err)
				}
				if _, err := sites[0].ApplyDelta(ctx, relation.Delta{Inserts: []relation.Tuple{{"a2", "b9"}}}, ""); err != nil {
					t.Fatal(err)
				}
			}
			garbled := p.DetectIncremental
			if strings.HasPrefix(mode, "ship") || strings.HasPrefix(mode, "detect") {
				garbled = p.Detect
			}
			garbling.Store(mode)
			_, err = garbled(ctx)
			if err == nil {
				t.Fatal("the garbled reply was accepted")
			}
			if core.IsStaleIncremental(err) || core.ErrCodeOf(err) != "" {
				t.Errorf("want a plain error, got %v", err)
			}
			if n := forwarded.Load(); n != 0 {
				t.Errorf("%d oversized block(s) forwarded", n)
			}
			garbling.Store("")
			got, err := p.DetectIncremental(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Detect(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got.PerCFD[0].String() != want.PerCFD[0].String() || want.PerCFD[0].Len() == 0 {
				t.Errorf("after the refusal: incremental %v, fresh %v", got.PerCFD[0], want.PerCFD[0])
			}
		})
	}
}

// applyWireEdits mutates w by a byte-coded edit script, four bytes an
// edit (op, target, x, y): the vocabulary FuzzWirePacked explores and
// its checked-in seeds are written in. target picks a column and one
// of its chunks; positions wrap, so every script applies to any
// payload with at least one column. The one to three bytes a script
// ends with past its whole edits give the payload a count column
// (applyCountEdit).
func applyWireEdits(w *WireRelation, script []byte) {
	p := w.Packed
	defer func() { applyCountEdit(w, script[len(script)/4*4:]) }()
	for ; len(script) >= 4 && len(p.Cols) > 0; script = script[4:] {
		op, target, x, y := script[0], int(script[1]), script[2], script[3]
		c := &p.Cols[target%len(p.Cols)]
		k := -1
		if len(c.Chunks) > 0 {
			k = (target / len(p.Cols)) % len(c.Chunks)
		}
		word := uint32(x) | uint32(y)<<8
		switch op % 13 {
		case 0: // flip bits of one dictionary byte
			if len(c.Dict) > 0 {
				c.Dict = append([]byte(nil), c.Dict...)
				c.Dict[int(x)%len(c.Dict)] ^= y | 1
			}
		case 1: // flip bits of one chunk byte
			if k >= 0 && len(c.Chunks[k]) > 0 {
				c.Chunks[k] = append([]byte(nil), c.Chunks[k]...)
				c.Chunks[k][int(x)%len(c.Chunks[k])] ^= y | 1
			}
		case 2: // keep only the dictionary's first x values
			if vals, err := colstore.DecodeDictSection(c.Dict); err == nil {
				c.Dict = colstore.EncodeDictSection(nil, vals[:min(int(x), len(vals))])
			}
		case 3: // overwrite a chunk with three bytes
			if k >= 0 {
				c.Chunks[k] = []byte{x, y, y}
			}
		case 4: // overwrite the dictionary section with one byte
			c.Dict = []byte{x}
		case 5, 6: // re-encode a chunk with every ID raised to at least word (5), or with its row x set to word (6)
			n := min(p.ChunkRows, p.Rows-k*p.ChunkRows)
			if k < 0 || n <= 0 || n > colstore.MaxChunkRows {
				break
			}
			ids := make([]uint32, n)
			if colstore.DecodeChunk(c.Chunks[k], ids) != nil {
				break
			}
			if op%13 == 5 {
				for i := range ids {
					ids[i] = max(ids[i], word)
				}
			} else {
				ids[int(x)%n] = word
			}
			c.Chunks[k], _, _ = colstore.EncodeChunk(nil, ids)
		case 7: // row counts stay small: the one bomb in scope is op 12
			p.Rows, w.Rows = int(word), int(word)
		case 8:
			p.ChunkRows = int(x)
		case 9: // truncate a chunk
			if k >= 0 {
				c.Chunks[k] = c.Chunks[k][:int(x)%(len(c.Chunks[k])+1)]
			}
		case 10: // drop the last chunk (and, by y's parity, the rows it covered)
			if n := len(c.Chunks); n > 0 {
				c.Chunks = c.Chunks[:n-1]
				if y%2 == 0 {
					p.Rows = min(p.Rows, (n-1)*p.ChunkRows)
					w.Rows = p.Rows
				}
			}
		case 11: // drop a column
			p.Cols = p.Cols[:len(p.Cols)-1]
		case 12:
			rleBomb(w)
		}
	}
}

// applyCountEdit gives w, after its edits, a count column when tail
// holds one to three bytes (kind, c, at): every row counted c+1, one
// row counted zero, one count short, or counts of 2³²−1 a row, and then
// byte at of the coded section flipped when tail has three bytes.
func applyCountEdit(w *WireRelation, tail []byte) {
	rows := w.Packed.Rows
	if len(tail) == 0 || rows < 0 || rows > 1<<16 {
		return
	}
	c := uint32(1)
	if len(tail) > 1 {
		c += uint32(tail[1])
	}
	cs := counts(rows, c)
	switch tail[0] % 4 {
	case 1:
		if rows > 0 {
			cs[int(c)%rows] = 0
		}
	case 2:
		cs = cs[:max(rows-1, 0)]
	case 3:
		cs = counts(rows, math.MaxUint32)
	}
	w.Counts = colstore.EncodeCounts(cs)
	if len(tail) > 2 && len(w.Counts) > 0 {
		w.Counts[int(tail[2])%len(w.Counts)] ^= tail[2] | 1
	}
}

// wireBytes is what a peer sends of w: every section and chunk, the
// count column's included.
func wireBytes(w *WireRelation) int {
	n := len(w.Tuples)
	for _, b := range w.Dicts {
		n += len(b)
	}
	n += 4 * len(w.Cols) * w.Rows
	if p := w.Packed; p != nil {
		for _, c := range p.Cols {
			n += len(c.Dict)
			for _, ch := range c.Chunks {
				n += len(ch)
			}
		}
	}
	return n + len(w.Counts)
}

// FuzzWirePacked mutates the bytes of a valid WirePackedRelation —
// dictionary sections, chunk payloads and the IDs they hold, Rows,
// ChunkRows, chunk and column counts — and holds everything downstream of
// FromWire to the trust boundary: either FromWire rejects the payload,
// or the adopted relation is safe to check (Kernel.ViolationPatterns
// decoding the packed chunks), to materialize (relation.Concat) and to
// charge (dist.RelationBytes), and detection over the payload and over
// its materialized copy agree with each other and with the row-path
// reference over the payload's own tuples — and with the unmutated
// answer whenever the edit left the tuples intact. A count column the
// script attaches (applyCountEdit) leaves the patterns as they were,
// and an adopted one prices and bills the bag it stands for. What
// FromWire decodes — the rows' IDs and the counts — stays within
// 8·MaxChunkRows bytes a byte received: no chunk, column or count
// announces rows it did not pay for. Nothing may panic. The seed corpus
// under testdata/fuzz/FuzzWirePacked holds the confirmed crashers.
func FuzzWirePacked(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 2, 0})       // dict-shorter-than-ids
	f.Add([]byte{3, 1, 0xff, 0xff}) // garbage-chunk
	f.Add([]byte{4, 0, 0xff, 0})    // truncated-dict
	f.Add([]byte{6, 0, 200, 0})     // an ID past the dictionary
	f.Add([]byte{1, 0, 1, 0x0e, 5, 2, 3, 0})
	f.Add([]byte{7, 0, 99, 0, 8, 0, 33, 0})
	f.Add([]byte{12, 0, 0, 0})       // rle-bomb
	f.Add([]byte{0})                 // every row counted once
	f.Add([]byte{0, 6})              // every row counted seven times
	f.Add([]byte{1, 3})              // a zero count
	f.Add([]byte{2})                 // a count short
	f.Add([]byte{3})                 // counts past relation.MaxBag
	f.Add([]byte{0, 1, 5})           // a count chunk's byte flipped
	f.Add([]byte{10, 0, 0, 1, 0, 4}) // the last chunk dropped, then counted
	base, _ := hostileBase(f)
	wantPats, err := engine.ViolationPatterns(base, hostileCFD)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		_, w := hostileBase(t)
		applyWireEdits(w, script)
		rel, err := FromWire(w)
		if err != nil {
			return
		}
		if decoded, sent := 4*(rel.Len()*rel.Schema().Arity()+len(rel.Counts())), wireBytes(w); decoded > 8*colstore.MaxChunkRows*(sent+1) {
			t.Fatalf("%d bytes received decode to %d", sent, decoded)
		}
		if cs := rel.Counts(); cs != nil {
			bag := 0
			for _, c := range cs {
				bag += int(c)
			}
			if rel.BagLen() != bag || bag > relation.MaxBag {
				t.Fatalf("BagLen %d over counts summing to %d", rel.BagLen(), bag)
			}
			wantRaw, wantEnc := naiveSizes(rel)
			if raw, enc := rel.PayloadSizes(); raw != wantRaw || enc != wantEnc {
				t.Fatalf("counted payload prices %d, %d; its bag %d, %d", raw, enc, wantRaw, wantEnc)
			}
		}
		var k engine.Kernel
		packed, err := k.ViolationPatterns(rel, hostileCFD, engine.Opts{})
		if err != nil {
			t.Fatalf("adopted payload failed to check: %v", err)
		}
		flat, err := relation.Concat(rel)
		if err != nil {
			t.Fatalf("adopted payload failed to materialize: %v", err)
		}
		if n := dist.RelationBytes(rel); n < 0 {
			t.Fatalf("RelationBytes = %d", n)
		}
		materialized, err := k.ViolationPatterns(flat, hostileCFD, engine.Opts{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(packed.Tuples(), materialized.Tuples()) {
			t.Fatalf("packed patterns %v != materialized %v", packed.Tuples(), materialized.Tuples())
		}
		rows, err := k.DetectSet(rel, []*cfd.CFD{hostileCFD}, engine.Opts{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := engine.DetectRows(flat, hostileCFD)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rows, ref) {
			t.Fatalf("packed rows %v != row-path reference %v", rows, ref)
		}
		if flat.SameTuples(base) && !packed.SameTuples(wantPats) {
			t.Fatalf("tuples intact but patterns %v != unmutated %v", packed, wantPats)
		}
	})
}
