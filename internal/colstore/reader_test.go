package colstore

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"distcfd/internal/relation"
)

// packedKinds renders r every way a packed column set comes to be: the
// fragment file itself, a whole-fragment PackBase, a PackColumns
// re-encode of the in-memory columns, and that payload taken apart and
// adopted again the way a wire receive does.
func packedKinds(t *testing.T, r *relation.Relation) map[string]relation.PackedColumnReader {
	t.Helper()
	f, _ := writeOpen(t, r)
	all := make([]int, f.NumColumns())
	dicts := make([]*relation.Dict, len(all))
	cols := make([][]uint32, len(all))
	for j := range all {
		all[j] = j
		cols[j], dicts[j] = r.Encoded().Column(j)
	}
	base, err := f.PackBase(all)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := PackColumns(dicts, cols, r.Len())
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]PackedColumn, len(all))
	for j := range parts {
		parts[j] = packed.Column(j)
	}
	adopted, err := NewPacked(packed.Rows(), packed.ChunkRows(), parts)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]relation.PackedColumnReader{
		"fragment": f, "PackBase": base, "PackColumns": packed, "NewPacked": adopted,
	}
}

// packedColumn returns column j's parts: Packed.Column, through a
// one-column PackBase for a fragment file.
func packedColumn(t *testing.T, pr relation.PackedColumnReader, j int) PackedColumn {
	t.Helper()
	if f, ok := pr.(*Fragment); ok {
		p, err := f.PackBase([]int{j})
		if err != nil {
			t.Fatal(err)
		}
		return p.Column(0)
	}
	return pr.(*Packed).Column(j)
}

// TestReadersAgree pins that there is one packed column behind every
// container: the same data read through a file Fragment, PackBase,
// PackColumns and a NewPacked round trip answers every reader method
// identically — and as the in-memory encoding says it must.
func TestReadersAgree(t *testing.T) {
	const cr = DefaultChunkRows
	r := randomRelation(t, rand.New(rand.NewSource(11)), 2*cr+37, 3)
	enc := r.Encoded()
	ranges := [][2]int{
		{0, 0}, {0, cr}, {cr, 2 * cr}, // empty, aligned
		{5, 100}, {cr - 3, cr}, {2 * cr, 2*cr + 37}, // inside one chunk
		{cr - 9, cr + 9}, {1, 2*cr + 37}, {0, 2*cr + 37}, // across chunks
	}
	for name, pr := range packedKinds(t, r) {
		if pr.Rows() != enc.Rows() || pr.NumColumns() != enc.Arity() {
			t.Fatalf("%s: %d×%d, want %d×%d", name, pr.Rows(), pr.NumColumns(), enc.Rows(), enc.Arity())
		}
		var size int64
		for j := 0; j < pr.NumColumns(); j++ {
			col, dict := enc.Column(j)
			if got := pr.ColumnDict(j).Vals(); !reflect.DeepEqual(got, dict.Vals()) {
				t.Fatalf("%s: column %d dictionary differs", name, j)
			}
			size += int64(len(EncodeDictSection(nil, dict.Vals())))
			if n, err := pr.ColumnChunks(j); err != nil || n != 3 {
				t.Fatalf("%s: column %d: %d chunks, err %v", name, j, n, err)
			}
			for k := 0; k < 3; k++ {
				lo, hi := pr.ChunkSpan(j, k)
				if lo != k*cr || hi != min(lo+cr, enc.Rows()) {
					t.Fatalf("%s: ChunkSpan(%d,%d) = [%d,%d)", name, j, k, lo, hi)
				}
				want, _, _ := EncodeChunk(nil, col[lo:hi])
				if !bytes.Equal(packedColumn(t, pr, j).Chunks[k], want) {
					t.Fatalf("%s: column %d chunk %d payload differs", name, j, k)
				}
				size += int64(len(want))
			}
			for _, rg := range ranges {
				got := make([]uint32, rg[1]-rg[0])
				if err := pr.ReadColumn(j, rg[0], got); err != nil {
					t.Fatalf("%s: ReadColumn(%d, %d..%d): %v", name, j, rg[0], rg[1], err)
				}
				if !reflect.DeepEqual(got, append([]uint32{}, col[rg[0]:rg[1]]...)) {
					t.Fatalf("%s: ReadColumn(%d, %d..%d) differs", name, j, rg[0], rg[1])
				}
			}
			if err := pr.ReadColumn(j, enc.Rows()-1, make([]uint32, 2)); err == nil {
				t.Fatalf("%s: ReadColumn past the last row succeeded", name)
			}
		}
		if pr.PackedSize() != size {
			t.Fatalf("%s: PackedSize %d, want %d", name, pr.PackedSize(), size)
		}
	}
}

// TestChunkBoundsOnUntouchedColumn is the regression test for a
// Fragment answering ChunkSpan and chunk payloads from a chunk
// directory it had not parsed yet: on a freshly opened file the first
// question about a column other than the one already read got span
// (0, 0) or an index panic.
func TestChunkBoundsOnUntouchedColumn(t *testing.T) {
	r := randomRelation(t, rand.New(rand.NewSource(5)), DefaultChunkRows+10, 2)
	col, _ := r.Encoded().Column(1)
	want, _, _ := EncodeChunk(nil, col[:DefaultChunkRows])

	f, _ := writeOpen(t, r)
	if _, err := f.ColumnChunks(0); err != nil {
		t.Fatal(err)
	}
	if lo, hi := f.ChunkSpan(1, 0); lo != 0 || hi != DefaultChunkRows {
		t.Fatalf("ChunkSpan(1,0) on an untouched column = [%d,%d), want [0,%d)", lo, hi, DefaultChunkRows)
	}
	f, _ = writeOpen(t, r)
	if c := packedColumn(t, f, 1); !bytes.Equal(c.Chunks[0], want) {
		t.Fatal("chunk 0 of an untouched column differs from its encoding")
	}
}

// sectionOffsets reads a fragment file's segment table: the offset and
// length of every section, schema first, then dictionaries, then
// column segments.
func sectionOffsets(data []byte) (offs, lens []uint64) {
	ft := data[len(data)-footerSize:]
	table := data[binary.LittleEndian.Uint64(ft[24:]):][:binary.LittleEndian.Uint64(ft[32:])]
	for e := table; len(e) > 0; e = e[tableEntrySize:] {
		offs = append(offs, binary.LittleEndian.Uint64(e))
		lens = append(lens, binary.LittleEndian.Uint64(e[8:]))
	}
	return offs, lens
}

// TestCorruptColumnSurfacesOnFirstAccess pins the laziness the shared
// column must keep: Open checksums neither dictionaries nor column
// segments, so a fragment whose column 1 is damaged — dictionary
// section and segment both — opens, serves every other column, and
// reports the damage on the first read of column 1, from whichever side
// is read first.
func TestCorruptColumnSurfacesOnFirstAccess(t *testing.T) {
	const arity, bad = 3, 1
	r := randomRelation(t, rand.New(rand.NewSource(9)), 500, arity)
	path := filepath.Join(t.TempDir(), FragmentFile)
	if _, err := WriteRelation(path, r); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs, lens := sectionOffsets(data)
	for _, sec := range []int{1 + bad, 1 + arity + bad} {
		data[offs[sec]+lens[sec]/2] ^= 0x40
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, first := range []string{"dictionary", "segment"} {
		f, err := Open(path)
		if err != nil {
			t.Fatalf("Open checked a column section eagerly: %v", err)
		}
		for _, j := range []int{0, 2} {
			if _, err := f.Dict(j); err != nil {
				t.Fatalf("column %d dictionary: %v", j, err)
			}
			if err := f.ReadColumn(j, 0, make([]uint32, f.Rows())); err != nil {
				t.Fatalf("column %d: %v", j, err)
			}
		}
		var dictErr, readErr error
		if first == "segment" {
			readErr = f.ReadColumn(bad, 0, make([]uint32, f.Rows()))
		}
		_, dictErr = f.Dict(bad)
		if first == "dictionary" {
			readErr = f.ReadColumn(bad, 0, make([]uint32, f.Rows()))
		}
		for side, err := range map[string]error{"dictionary": dictErr, "segment": readErr} {
			if err == nil || !strings.Contains(err.Error(), side+" checksum mismatch") {
				t.Fatalf("%s first: damaged %s read back as %v", first, side, err)
			}
		}
		if _, err := f.PackBase([]int{0, bad}); err == nil {
			t.Fatal("PackBase shipped a damaged column")
		}
		f.Close()
	}
}

// TestSegmentChunkRowsCapped: a file is bytes this process may not have
// written, so a segment announcing more rows per chunk than any writer
// emits is refused at its first read, as NewPacked refuses a peer's —
// a partial read of such a chunk would allocate all of it.
func TestSegmentChunkRowsCapped(t *testing.T) {
	r := randomRelation(t, rand.New(rand.NewSource(5)), 20, 2)
	path := filepath.Join(t.TempDir(), FragmentFile)
	if _, err := WriteRelation(path, r); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs, _ := sectionOffsets(data)
	binary.LittleEndian.PutUint32(data[offs[1+2]:], MaxChunkRows+1) // column 0's segment header
	f, err := parseFragment(path, reseal(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ReadColumn(0, 0, make([]uint32, 1)); err == nil || !strings.Contains(err.Error(), "chunkRows") {
		t.Fatalf("ReadColumn over a %d-row chunk: %v, want a chunkRows error", MaxChunkRows+1, err)
	}
	if err := f.ReadColumn(1, 0, make([]uint32, 1)); err != nil {
		t.Fatalf("the untouched column: %v", err)
	}
}
