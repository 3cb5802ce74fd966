package remote

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/colstore"
	"distcfd/internal/core"
	"distcfd/internal/engine"
	"distcfd/internal/relation"
)

// gobTrip sends w through gob and back, as a call does.
func gobTrip(t testing.TB, w *WireRelation) *WireRelation {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	var back *WireRelation
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	return back
}

// FuzzWireSections holds the row and dict+ID forms to their contract. A
// relation built from the input — values of any bytes, empty ones, the
// unit separator and invalid UTF-8 among them, zero rows included —
// comes back tuple for tuple from ToWire → gob → FromWire in the form
// ToWire picks, and from FromWire in both forms forced; and the input
// read as raw section bytes never panics FromWire or DeltaFromWire.
// Read as one values section, it never makes colstore.DecodeDict — the
// parse straight into a dictionary's arena — allocate past
// decodeDictBytesPerByte times its length plus decodeDictSlack bytes,
// whatever count it claims.
func FuzzWireSections(f *testing.F) {
	f.Add(uint8(1), []byte{})
	f.Add(uint8(2), []byte("\x01a\x00\x01\x1f\x02\xff\xfe\x01a"))
	f.Add(uint8(0), []byte("\x03abc\x03abc\x03abc\x03abc\x03abc"))
	f.Add(uint8(3), []byte{0x80})
	f.Fuzz(func(t *testing.T, arity uint8, data []byte) {
		attrs := []string{"a", "b", "c", "d"}[:arity%4+1]
		rel := relation.New(relation.MustSchema("S", attrs))
		var vals []string
		for rest := data; len(rest) > 0; {
			n := min(int(rest[0]%8), len(rest)-1)
			vals, rest = append(vals, string(rest[1:1+n])), rest[1+n:]
		}
		for i := 0; i+len(attrs) <= len(vals); i += len(attrs) {
			rel.MustAppend(relation.Tuple(vals[i : i+len(attrs)]))
		}
		rows, dicts := ToWire(rel), ToWire(rel)
		asRows(rows)
		asDicts(dicts)
		for _, w := range []*WireRelation{gobTrip(t, ToWire(rel)), rows, dicts} {
			got, err := FromWire(w)
			if err != nil {
				t.Fatalf("valid payload refused: %v", err)
			}
			if !slices.EqualFunc(got.Tuples(), rel.Tuples(), slices.Equal) {
				t.Fatalf("round trip: %q, want %q", got.Tuples(), rel.Tuples())
			}
		}
		_, _ = FromWire(&WireRelation{Name: "S", Attrs: attrs, Tuples: data, Rows: int(arity)})
		_, _ = FromWire(&WireRelation{Name: "S", Attrs: attrs[:1], Dicts: [][]byte{data},
			Cols: [][]uint32{{0, uint32(arity)}}, Rows: 2})
		_, _ = DeltaFromWire(WireDelta{Inserts: data, Rows: int(arity)})
		grew := uint64(math.MaxUint64) // the least of three: the fuzzer's own goroutines allocate too
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _ = colstore.DecodeDict(data)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if bound := decodeDictBytesPerByte*uint64(len(data)) + decodeDictSlack; grew > bound {
			t.Fatalf("DecodeDict of %d bytes allocated %d, past %d", len(data), grew, bound)
		}
	})
}

// A values section of L bytes holds at most L values of at most L bytes
// in all: the arena takes at most L, the table and offsets at most 24 B
// a value (a table of under four slots a value, offsets for half the
// table). decodeDictSlack covers the dictionary itself and what else
// the process allocates beside it.
const (
	decodeDictBytesPerByte = 32
	decodeDictSlack        = 4096
)

// TestFromWireReusesSchema pins that receiving a shape again allocates
// no schema: two payloads of one name, attribute list and key, each
// decoded from its own gob stream, rebuild relations that share one
// schema, and a third of another shape does not.
func TestFromWireReusesSchema(t *testing.T) {
	rel := relation.MustFromRows(relation.MustSchema("B", []string{"a", "b"}, "a"), []string{"x", "y"}, []string{"z", "y"})
	first, err := FromWire(gobTrip(t, ToWire(rel)))
	if err != nil {
		t.Fatal(err)
	}
	second, err := FromWire(gobTrip(t, ToWire(rel)))
	if err != nil {
		t.Fatal(err)
	}
	if first.Schema() != second.Schema() {
		t.Fatal("the second receipt of a shape built another schema")
	}
	other, err := FromWire(gobTrip(t, ToWire(relation.MustFromRows(relation.MustSchema("B", []string{"a", "c"}), []string{"x", "y"}))))
	if err != nil {
		t.Fatal(err)
	}
	if other.Schema() == first.Schema() || other.Schema().String() != "B(a, c)" {
		t.Fatalf("another shape came back under %v", other.Schema())
	}
}

// TestReceiveAllocsFlat pins what receiving a payload allocates — gob
// decode plus FromWire — in the row form and the dict+ID form: the same
// at 10³ and 10⁵ rows, and fewer than the 1 500 values the dict+ID
// form's dictionaries hold, because each values section decodes in two
// allocations however many values it holds.
func TestReceiveAllocsFlat(t *testing.T) {
	payload := func(rows int, form func(*WireRelation)) []byte {
		r := relation.New(relation.MustSchema("U", []string{"a", "b"}))
		for i := 0; i < rows; i++ {
			r.MustAppend(relation.Tuple{fmt.Sprintf("a%03d", i%1000), fmt.Sprintf("b%03d", i%500)})
		}
		w := ToWire(r)
		form(w)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// A collection mid-run empties sync.Pools, whose refills would count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	receive := func(b []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			var w WireRelation
			if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
				t.Fatal(err)
			}
			if _, err := FromWire(&w); err != nil {
				t.Fatal(err)
			}
		})
	}
	forms := map[string]func(*WireRelation){"rows": func(w *WireRelation) { asRows(w) }, "dicts": asDicts}
	for name, form := range forms {
		small, large := receive(payload(1_000, form)), receive(payload(100_000, form))
		if small != large || large >= 1_500 {
			t.Errorf("%s form: receiving allocates %v at 10³ rows, %v at 10⁵", name, small, large)
		}
	}
}

// TestReceivedValuesNotRetained folds 10³ rounds of received values into
// state that outlives them: an engine.IncrementalState fed shipped
// blocks, and a store-backed site fed deltas through ApplyDelta. Each
// round's section carries a 64 KiB padding value beside values one new
// group keeps, and every round's group stays alive. The state clones
// what it keeps; a kept value sharing its section's string would hold
// every round's padding, 64 MiB in all.
func TestReceivedValuesNotRetained(t *testing.T) {
	const rounds = 1_000
	pad := strings.Repeat("p", 64<<10)
	schema := relation.MustSchema("R", []string{"x", "a", "pad"})
	round := func(r int) relation.Tuple {
		return relation.Tuple{fmt.Sprintf("x%04d", r), fmt.Sprintf("a%04d", r), pad}
	}
	heapGrowth := func(run func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		run()
		runtime.GC()
		runtime.ReadMemStats(&after)
		return max(after.HeapInuse, before.HeapInuse) - before.HeapInuse
	}

	st, err := engine.NewIncrementalState(schema, cfd.MustParse(`r: [x] -> [a]`), false)
	if err != nil {
		t.Fatal(err)
	}
	grew := heapGrowth(func() {
		for r := 0; r < rounds; r++ {
			rel, err := FromWire(ToWire(relation.MustFromRows(schema, round(r))))
			if err != nil {
				t.Fatal(err)
			}
			if err := st.FoldRelation(rel, true); err != nil {
				t.Fatal(err)
			}
		}
	})
	if grew > 8<<20 {
		t.Errorf("incremental state: %d rounds grew the heap by %d MiB", rounds, grew>>20)
	}
	runtime.KeepAlive(st)

	// The site's delta log keeps its last deltas whole, padding included:
	// that much is allowed on top of what the site keeps of each round.
	dir := t.TempDir()
	if _, err := colstore.WriteRelationDir(dir, relation.MustFromRows(schema, round(-1))); err != nil {
		t.Fatal(err)
	}
	site, err := core.OpenStoreSite(0, dir, relation.True())
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	const deltaLogCap = 512 // the deltas a site's log keeps (core)
	logged := uint64(deltaLogCap) * uint64(len(pad))
	grew = heapGrowth(func() {
		for r := 0; r < rounds; r++ {
			d, err := DeltaFromWire(DeltaToWire(relation.Delta{Inserts: []relation.Tuple{round(r)}}))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := site.ApplyDelta(context.Background(), d, ""); err != nil {
				t.Fatal(err)
			}
		}
	})
	if grew > logged+16<<20 {
		t.Errorf("store site: %d rounds grew the heap by %d MiB, the delta log holds %d MiB", rounds, grew>>20, logged>>20)
	}
}
