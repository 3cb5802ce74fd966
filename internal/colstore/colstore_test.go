package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"distcfd/internal/relation"
)

func mustSchema(t *testing.T, name string, attrs []string, key ...string) *relation.Schema {
	t.Helper()
	s, err := relation.NewSchema(name, attrs, key...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomRelation builds a relation whose columns mix low-cardinality
// (RLE-friendly), high-cardinality (bit-packed), and sorted-run value
// distributions.
func randomRelation(t *testing.T, rng *rand.Rand, rows, arity int) *relation.Relation {
	t.Helper()
	attrs := make([]string, arity)
	for j := range attrs {
		attrs[j] = fmt.Sprintf("a%d", j)
	}
	schema := mustSchema(t, "rand", attrs)
	card := make([]int, arity)
	for j := range card {
		switch rng.Intn(3) {
		case 0:
			card[j] = 1 + rng.Intn(3) // long runs
		case 1:
			card[j] = 1 + rng.Intn(50)
		default:
			card[j] = 1 + rows // effectively unique
		}
	}
	ts := make([]relation.Tuple, rows)
	for i := range ts {
		tp := make(relation.Tuple, arity)
		for j := range tp {
			tp[j] = fmt.Sprintf("v%d_%d", j, rng.Intn(card[j]))
		}
		ts[i] = tp
	}
	r, err := relation.FromTuples(schema, ts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkEquivalent asserts the opened fragment is column-for-column,
// ID-for-ID identical to the in-memory encoding of r — the property
// that lets the engine's reader path produce byte-identical output.
func checkEquivalent(t *testing.T, f *Fragment, r *relation.Relation) {
	t.Helper()
	enc := r.Encoded()
	if f.Rows() != enc.Rows() {
		t.Fatalf("rows: fragment %d, encoded %d", f.Rows(), enc.Rows())
	}
	if f.Schema().String() != r.Schema().String() {
		t.Fatalf("schema mismatch: %v vs %v", f.Schema(), r.Schema())
	}
	for j := 0; j < f.NumColumns(); j++ {
		col, dict := enc.Column(j)
		got := make([]uint32, f.Rows())
		if err := f.ReadColumn(j, 0, got); err != nil {
			t.Fatalf("ReadColumn(%d): %v", j, err)
		}
		if len(col) > 0 && !reflect.DeepEqual(got, col) {
			t.Fatalf("column %d IDs differ", j)
		}
		fd := f.ColumnDict(j)
		if !reflect.DeepEqual(fd.Vals(), dict.Vals()) {
			t.Fatalf("column %d dict values differ:\n  frag: %q\n  enc:  %q", j, fd.Vals(), dict.Vals())
		}
	}
}

func writeOpen(t *testing.T, r *relation.Relation) (*Fragment, Stats) {
	t.Helper()
	path := filepath.Join(t.TempDir(), FragmentFile)
	st, err := WriteRelation(path, r)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, st
}

func TestRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			rows := rng.Intn(3 * DefaultChunkRows) // 0 up to multi-chunk
			r := randomRelation(t, rng, rows, 1+rng.Intn(5))
			f, st := writeOpen(t, r)
			if st.Rows != rows {
				t.Fatalf("stats rows %d, want %d", st.Rows, rows)
			}
			checkEquivalent(t, f, r)
		})
	}
}

func TestRoundTripSeparatorAdjacentValues(t *testing.T) {
	// Values around the \x1f unit separator the pattern keys use: the
	// store is length-prefixed everywhere, so separators, empties, and
	// values that concatenate ambiguously must all survive.
	schema := mustSchema(t, "sep", []string{"a", "b"})
	ts := []relation.Tuple{
		{"\x1f", ""},
		{"a\x1fb", "a"},
		{"a", "\x1fb"},
		{"", "\x1f\x1f"},
		{"x\x1f", "\x1fx"},
	}
	r, err := relation.FromTuples(schema, ts)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := writeOpen(t, r)
	checkEquivalent(t, f, r)
	for i, got := range fragmentRows(t, f) {
		if !reflect.DeepEqual(got, ts[i]) {
			t.Fatalf("row %d: got %q, want %q", i, got, ts[i])
		}
	}
}

// fragmentRows reads every row of f back as values: each column whole
// (ReadColumn), its IDs mapped through its dictionary.
func fragmentRows(t *testing.T, f *Fragment) []relation.Tuple {
	t.Helper()
	rows, ids := make([]relation.Tuple, f.Rows()), make([]uint32, f.Rows())
	for i := range rows {
		rows[i] = make(relation.Tuple, f.NumColumns())
	}
	for j := 0; j < f.NumColumns(); j++ {
		if err := f.ReadColumn(j, 0, ids); err != nil {
			t.Fatal(err)
		}
		d, err := f.Dict(j)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			rows[i][j] = d.Val(id)
		}
	}
	return rows
}

func TestRoundTripEmptyRelation(t *testing.T) {
	schema := mustSchema(t, "empty", []string{"a", "b", "c"}, "a")
	r, err := relation.FromTuples(schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := writeOpen(t, r)
	if f.Rows() != 0 {
		t.Fatalf("rows = %d", f.Rows())
	}
	if f.Schema().String() != schema.String() {
		t.Fatalf("schema mismatch")
	}
	for j := 0; j < 3; j++ {
		n, err := f.ColumnChunks(j)
		if err != nil || n != 0 {
			t.Fatalf("column %d: %d chunks, err %v", j, n, err)
		}
		if err := f.ReadColumn(j, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRoundTripSingleValueRLE(t *testing.T) {
	// One distinct value per column: the degenerate all-RLE, width-0
	// case, across a chunk boundary.
	schema := mustSchema(t, "rle", []string{"a"})
	rows := DefaultChunkRows + 17
	ts := make([]relation.Tuple, rows)
	for i := range ts {
		ts[i] = relation.Tuple{"only"}
	}
	r, err := relation.FromTuples(schema, ts)
	if err != nil {
		t.Fatal(err)
	}
	f, st := writeOpen(t, r)
	checkEquivalent(t, f, r)
	// The whole column should compress to a handful of bytes per chunk.
	if perRow := float64(st.BytesOnDisk) / float64(rows); perRow > 0.1 {
		t.Fatalf("single-value column costs %.2f bytes/row on disk", perRow)
	}
	if c := packedColumn(t, f, 0); c.Chunks[0][0] != 0 {
		t.Fatalf("chunk width %d, want 0", c.Chunks[0][0])
	}
}

func TestChainedDictsFlattenedAtPersist(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := randomRelation(t, rng, 500, 3)
	for j := 0; j < 3; j++ {
		r.Encoded().Column(j) // build columns so Apply chains overlay dicts
	}
	for g := 0; g < 12; g++ {
		ins := make([]relation.Tuple, 5)
		for i := range ins {
			ins[i] = relation.Tuple{
				fmt.Sprintf("g%d_%d", g, i), fmt.Sprintf("g%d", g), "const",
			}
		}
		if _, err := r.Apply(relation.Delta{Inserts: ins, Deletes: []int{g}}); err != nil {
			t.Fatal(err)
		}
	}
	// Column 0 took fresh values every round, so its dictionary is an
	// overlay chain by now (relation's TestInternInserts pins that).
	f, _ := writeOpen(t, r)
	// The writer re-interns in current tuple order, so the persisted
	// dictionaries are flat roots whatever the source chained; decoded
	// values match the live relation row for row (IDs may differ).
	for i, got := range fragmentRows(t, f) {
		if want := r.Tuple(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d: got %q, want %q", i, got, want)
		}
	}
}

// TestCorruptionDetected flips bytes across the file and asserts every
// flip surfaces as an error from Open or from reading — never a
// silently different answer.
func TestCorruptionDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := randomRelation(t, rng, 1000, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, FragmentFile)
	if _, err := WriteRelation(path, r); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := r.Encoded()
	want := make([][]uint32, 2)
	for j := range want {
		want[j], _ = enc.Column(j)
	}

	readAll := func(f *Fragment) error {
		for j := 0; j < f.NumColumns(); j++ {
			// Validate the chunk directory (which cross-checks the footer's
			// row count) before allocating by Rows().
			if _, err := f.ColumnChunks(j); err != nil {
				return err
			}
			got := make([]uint32, f.Rows())
			if err := f.ReadColumn(j, 0, got); err != nil {
				return err
			}
			if !reflect.DeepEqual(got, want[j]) {
				t.Fatalf("flip produced silently wrong column %d", j)
			}
			d, err := f.Dict(j)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(d.Vals(), wantDictVals(enc, j)) {
				t.Fatalf("flip produced silently wrong dict %d", j)
			}
		}
		return nil
	}

	step := 13 // sample offsets; every region is multiple steps wide
	for off := 0; off < len(orig); off += step {
		for bit := 0; bit < 8; bit += 5 {
			mut := make([]byte, len(orig))
			copy(mut, orig)
			mut[off] ^= 1 << bit
			p := filepath.Join(dir, "mut.col")
			if err := os.WriteFile(p, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := Open(p)
			if err != nil {
				continue // detected at open
			}
			err = readAll(f)
			f.Close()
			if err == nil {
				t.Fatalf("flipping byte %d bit %d went undetected", off, bit)
			}
		}
	}
}

func wantDictVals(enc *relation.Encoded, j int) []string {
	_, d := enc.Column(j)
	return d.Vals()
}

func TestDeltaLogReplayAndTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, DeltaLogFile)
	deltas := []relation.Delta{
		{Inserts: []relation.Tuple{{"a", "1"}, {"b\x1f", ""}}},
		{Deletes: []int{3, 0}},
		{Inserts: []relation.Tuple{{"c", "2"}}, Deletes: []int{1}},
	}
	l, replayed, err := OpenDeltaLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh log replayed %d deltas", len(replayed))
	}
	for _, d := range deltas {
		if err := l.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, replayed, err := OpenDeltaLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, deltas) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", replayed, deltas)
	}
	// Appending after replay continues the log.
	extra := relation.Delta{Inserts: []relation.Tuple{{"d", "3"}}}
	if err := l2.Append(extra); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	// Tear the tail mid-record: replay keeps the intact prefix and
	// truncates the torn bytes away.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	l3, replayed, err := OpenDeltaLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, deltas) {
		t.Fatalf("torn-tail replay mismatch: got %d deltas", len(replayed))
	}
	// The torn record is gone from disk: a subsequent append+replay
	// round-trips cleanly.
	if err := l3.Append(extra); err != nil {
		t.Fatal(err)
	}
	l3.Close()
	_, replayed, err = OpenDeltaLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(deltas)+1 || !reflect.DeepEqual(replayed[len(deltas)], extra) {
		t.Fatalf("post-truncate append lost: %d deltas", len(replayed))
	}
}

func TestStreamingWriterMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := randomRelation(t, rng, 2*DefaultChunkRows+100, 4)
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.col")
	p2 := filepath.Join(dir, "b.col")
	if _, err := WriteRelation(p1, r); err != nil {
		t.Fatal(err)
	}
	w, err := Create(p2, r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, tp := range r.Tuples() {
		if err := w.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if !reflect.DeepEqual(b1, b2) {
		t.Fatal("streaming writer and WriteRelation produced different bytes")
	}
}

func TestWriterAbortLeavesNoTemps(t *testing.T) {
	dir := t.TempDir()
	schema := mustSchema(t, "abort", []string{"a"})
	w, err := CreateDir(dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(relation.Tuple{"x"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Fatalf("aborted writer left %s behind", e.Name())
	}
}

func TestReadAfterCloseErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := randomRelation(t, rng, 100, 2)
	path := filepath.Join(t.TempDir(), FragmentFile)
	if _, err := WriteRelation(path, r); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	got := make([]uint32, f.Rows())
	if err := f.ReadColumn(0, 0, got); err == nil {
		t.Fatal("ReadColumn after Close succeeded")
	}
	if _, err := f.Dict(0); err == nil {
		t.Fatal("Dict after Close succeeded")
	}
	// Column 1 is untouched: every reader method reports the closed
	// mapping on its own, whichever is asked first — the ones without
	// an error channel by the documented neutral answer, ColumnDict by
	// its documented panic.
	if _, err := f.ColumnChunks(1); err == nil {
		t.Fatal("ColumnChunks after Close succeeded")
	}
	if err := f.ReadColumn(1, 0, got[:1]); err == nil {
		t.Fatal("ReadColumn of one row after Close succeeded")
	}
	if _, err := f.PackBase([]int{1}); err == nil {
		t.Fatal("PackBase after Close succeeded")
	}
	if lo, hi := f.ChunkSpan(1, 0); lo != 0 || hi != 0 {
		t.Fatalf("ChunkSpan after Close = [%d,%d), want empty", lo, hi)
	}
	if n := f.PackedSize(); n != 0 {
		t.Fatalf("PackedSize after Close = %d", n)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ColumnDict after Close did not panic")
			}
		}()
		f.ColumnDict(1)
	}()
}

// oneRunColumn makes c a single chunk of n rows, all ID 0.
func oneRunColumn(c *PackedColumn, n int) (rows, chunkRows int) {
	chunk, _, _ := EncodeChunk(nil, make([]uint32, n))
	*c = PackedColumn{Dict: EncodeDictSection(nil, []string{"a"}), Chunks: [][]byte{chunk}}
	return n, n
}

// TestNewPackedVerifiesForeignParts pins the adoption check: NewPacked
// is where bytes this process did not write become storage, so a part
// that would fail (or mislead) a later decode is an error there. Each
// case edits a valid one-column, two-chunk payload.
func TestNewPackedVerifiesForeignParts(t *testing.T) {
	valid := func() PackedColumn {
		c0, _, _ := EncodeChunk(nil, []uint32{0, 1, 2, 1})
		c1, _, _ := EncodeChunk(nil, []uint32{3, 4, 4})
		return PackedColumn{
			Dict:   EncodeDictSection(nil, []string{"a", "b", "c", "d", "e"}),
			Chunks: [][]byte{c0, c1},
		}
	}
	if _, err := NewPacked(7, 4, []PackedColumn{valid()}); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	cases := []struct {
		name string
		edit func(c *PackedColumn) (rows, chunkRows int)
	}{
		// Width 3 admits IDs up to 7 and the dictionary has 5 values, so
		// only a look at the IDs themselves catches a 6.
		{"id past the dictionary", func(c *PackedColumn) (int, int) {
			c.Chunks[1], _, _ = EncodeChunk(nil, []uint32{3, 6, 4})
			return 7, 4
		}},
		{"column missing a chunk", func(c *PackedColumn) (int, int) { c.Chunks = c.Chunks[:1]; return 7, 4 }},
		{"chunk shorter than its span", func(c *PackedColumn) (int, int) {
			c.Chunks[0], _, _ = EncodeChunk(nil, []uint32{0, 1, 2})
			return 7, 4
		}},
		{"chunk longer than its span", func(c *PackedColumn) (int, int) {
			c.Chunks[1], _, _ = EncodeChunk(nil, []uint32{3, 4, 4, 4})
			return 7, 4
		}},
		{"width byte out of range", func(c *PackedColumn) (int, int) { c.Chunks[0] = []byte{0xff, 0xff, 0xff}; return 7, 4 }},
		{"dictionary truncated", func(c *PackedColumn) (int, int) { c.Dict = []byte{0xff}; return 7, 4 }},
		{"dictionary duplicate", func(c *PackedColumn) (int, int) {
			c.Dict = EncodeDictSection(nil, []string{"a", "b", "c", "d", "a"})
			return 7, 4
		}},
		{"row count that overflows the chunk arithmetic", func(c *PackedColumn) (int, int) { return math.MaxInt, math.MaxInt }},
		// One well-formed run a row past the cap: it verifies in O(1), so
		// only the cap keeps its decode cost tied to what was shipped.
		{"chunk rows above MaxChunkRows", func(c *PackedColumn) (int, int) { return oneRunColumn(c, MaxChunkRows+1) }},
	}
	var atCap PackedColumn
	oneRunColumn(&atCap, MaxChunkRows)
	if _, err := NewPacked(MaxChunkRows, MaxChunkRows, []PackedColumn{atCap}); err != nil {
		t.Errorf("chunk of exactly MaxChunkRows rows rejected: %v", err)
	}
	for _, tc := range cases {
		c := valid()
		rows, chunkRows := tc.edit(&c)
		if _, err := NewPacked(rows, chunkRows, []PackedColumn{c}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestDecodeDictSectionAllocsFlat pins the section decoders' cost, at
// 10³ values as at 10⁵: DecodeDictSection's one string for the section
// and one slice of values, every value a slice of that one string, and
// DecodeDict's dictionary, its arena and its one index array.
func TestDecodeDictSectionAllocsFlat(t *testing.T) {
	section := func(n int) []byte {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("v%06d", i)
		}
		return EncodeDictSection(nil, vals)
	}
	for _, n := range []int{1_000, 100_000} {
		b := section(n)
		if allocs := testing.AllocsPerRun(5, func() {
			if _, err := DecodeDictSection(b); err != nil {
				t.Fatal(err)
			}
		}); allocs != 2 {
			t.Errorf("decoding %d values allocates %v times, want 2", n, allocs)
		}
		if allocs := testing.AllocsPerRun(5, func() {
			if _, err := DecodeDict(b); err != nil {
				t.Fatal(err)
			}
		}); allocs != 3 {
			t.Errorf("decoding %d values into a dictionary allocates %v times, want 3", n, allocs)
		}
	}
}

// TestDecodeRowSection pins the row section's shape checks: the row
// count divides the values into rows of at least one value, no bytes
// are zero rows, and a count that would overflow rows × arity is
// refused like any other mismatch.
func TestDecodeRowSection(t *testing.T) {
	rows := []relation.Tuple{{"a", ""}, {"\x1f", "\xff"}, {"c", "d"}}
	b := EncodeRowSection(nil, rows)
	got, err := DecodeRowSection(b, 3)
	if err != nil || !reflect.DeepEqual(got, rows) {
		t.Fatalf("DecodeRowSection = %q, %v; want %q", got, err, rows)
	}
	if got, err := DecodeRowSection(nil, 0); err != nil || got != nil {
		t.Errorf("no bytes: %v, %v; want zero rows", got, err)
	}
	for _, bad := range []struct {
		b    []byte
		rows int
	}{
		{b, 4}, {b, 0}, {b, -3}, {b, math.MaxInt/2 + 1}, {nil, 1},
		{EncodeRowSection(nil, nil), 1}, {append(b, 0), 3}, {b[:len(b)-1], 3},
	} {
		if _, err := DecodeRowSection(bad.b, bad.rows); err == nil {
			t.Errorf("DecodeRowSection(% x, %d) accepted", bad.b, bad.rows)
		}
	}
}
