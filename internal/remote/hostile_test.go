package remote

import (
	"context"
	"encoding/binary"
	"fmt"
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

// hostileCases are the confirmed crashers, as edits of the base.
var hostileCases = []struct {
	name   string
	mutate func(*WireRelation)
}{
	// Chunks hold IDs up to 9; under a 2-value dictionary the kernel (or
	// PayloadSizes) would index out of range.
	{"dict-shorter-than-ids", func(w *WireRelation) {
		w.Packed.Cols[0].Dict = colstore.EncodeDictSection(nil, []string{"a0", "a1"})
	}},
	// A chunk whose width byte is 255 cannot decode: Encoded.Column would
	// panic inside relation.Concat.
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
	err = raw.Call(serviceName+".ApplyDelta", ApplyDeltaArgs{Delta: WireDelta{Inserts: [][]string{{"x"}}}}, &reply)
	if err == nil {
		t.Fatal("short insert accepted")
	}
	if core.ErrCodeOf(decodeError(err)) != "" {
		t.Errorf("rejection should be a plain, non-transient error, got %v", err)
	}
	good := ApplyDeltaArgs{Delta: WireDelta{Inserts: [][]string{{"a1", "b0"}}}}
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
// one), or a later fold's pattern changes (missing, over more attributes
// than the CFD's X, over an attribute outside it, removing a pattern
// never added).
type hostileReplies struct {
	*SiteService
	mode *atomic.Value
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
	return err
}

func (h hostileReplies) FoldDetect(args FoldArgs, reply *FoldReply) error {
	err := h.SiteService.FoldDetect(args, reply)
	if err != nil || args.Seed {
		return err
	}
	pattern := func(attrs []string, vals ...string) *WireRelation {
		return &WireRelation{Name: "viopi_h", Attrs: attrs, Tuples: [][]string{vals}}
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
	}
	return nil
}

// TestHostileRepliesRefused is the driver's side of the σ-count and
// pattern-change replies: a count vector of the wrong length or with a
// negative count — from SigmaStats at the seed or from a later round's
// extract — and a fold reply with its pattern sets missing, over other
// attributes than the CFD's X, or removing a pattern never added, fail
// the round with a plain error instead of a panic or a wrong answer, and
// the next round reseeds and equals a fresh Detect.
func TestHostileRepliesRefused(t *testing.T) {
	ctx := context.Background()
	schema := relation.MustSchema("R", []string{"a", "b"})
	frags := []*relation.Relation{
		relation.MustFromRows(schema, []string{"a0", "b0"}, []string{"a1", "b1"}),
		relation.MustFromRows(schema, []string{"a0", "b1"}, []string{"a2", "b2"}),
	}
	for _, mode := range []string{
		"sigma-long", "sigma-short", "sigma-negative",
		"extract-long", "extract-short", "extract-negative",
		"fold-missing", "fold-wider-than-X", "fold-outside-X", "fold-removes-unheld",
	} {
		t.Run(mode, func(t *testing.T) {
			var garbling atomic.Value
			garbling.Store("")
			addrs := make([]string, len(frags))
			for i, f := range frags {
				site := core.NewSite(i, f, relation.True())
				addrs[i] = serveRPC(t, hostileReplies{SiteService: NewSiteServiceContext(ctx, site, schema), mode: &garbling})
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
			if !strings.HasPrefix(mode, "sigma") {
				// Seed, then make a2 violate, so the garbled round has a delta.
				if _, err := p.DetectIncremental(ctx); err != nil {
					t.Fatal(err)
				}
				if _, err := sites[0].ApplyDelta(ctx, relation.Delta{Inserts: []relation.Tuple{{"a2", "b9"}}}, ""); err != nil {
					t.Fatal(err)
				}
			}
			garbling.Store(mode)
			_, err = p.DetectIncremental(ctx)
			if err == nil {
				t.Fatal("the garbled reply was accepted")
			}
			if core.IsStaleIncremental(err) || core.ErrCodeOf(err) != "" {
				t.Errorf("want a plain error, got %v", err)
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
// payload with at least one column.
func applyWireEdits(w *WireRelation, script []byte) {
	p := w.Packed
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

// FuzzWirePacked mutates the bytes of a valid WirePackedRelation —
// dictionary sections, chunk payloads and the IDs they hold, Rows,
// ChunkRows, chunk and column counts — and holds everything downstream of
// FromWire to the trust boundary: either FromWire rejects the payload,
// or the adopted relation is safe to check (Kernel.ViolationPatterns
// decoding the packed chunks), to materialize (relation.Concat) and to
// charge (dist.RelationBytes), and detection over the payload and over
// its materialized copy agree with each other and with the row-path
// reference over the payload's own tuples — and with the unmutated
// answer whenever the edit left the tuples intact. Nothing may panic. The seed corpus under
// testdata/fuzz/FuzzWirePacked holds the confirmed crashers.
func FuzzWirePacked(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 2, 0})       // dict-shorter-than-ids
	f.Add([]byte{3, 1, 0xff, 0xff}) // garbage-chunk
	f.Add([]byte{4, 0, 0xff, 0})    // truncated-dict
	f.Add([]byte{6, 0, 200, 0})     // an ID past the dictionary
	f.Add([]byte{1, 0, 1, 0x0e, 5, 2, 3, 0})
	f.Add([]byte{7, 0, 99, 0, 8, 0, 33, 0})
	f.Add([]byte{12, 0, 0, 0}) // rle-bomb
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
