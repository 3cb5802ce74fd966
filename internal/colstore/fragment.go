package colstore

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"

	"distcfd/internal/relation"
)

// Fragment is an open persisted fragment: a file header — footer,
// segment table, schema, the mapping's lifetime, the section checksums
// — over the same packed columns a Packed holds. Column data and
// dictionaries stay packed in the mapping; ReadColumn decodes only the
// chunks a scan visits, and each column's dictionary is verified and
// decoded on its first access, so reads over a few low-cardinality
// columns never pay the O(rows) dictionaries of unique-valued ones.
// Fragment is safe for concurrent readers.
//
// A Fragment holds an OS mapping (or the file's bytes) until Close;
// reading after Close returns an error.
type Fragment struct {
	path   string
	data   []byte
	unmap  func([]byte) error
	schema *relation.Schema
	columns

	mu     sync.Mutex
	closed bool
}

// Fragment is the storage side of the engine's chunk reader seam.
var _ relation.PackedColumnReader = (*Fragment)(nil)

// Open maps the fragment file at path and verifies its footer, table,
// and schema. Dictionaries and column segments are checksum-verified
// on first access. The caller must Close the returned Fragment.
func Open(path string) (*Fragment, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, fmt.Errorf("colstore: opening %s: %w", path, err)
	}
	f, err := parseFragment(path, data, unmap)
	if err != nil {
		unmap(data)
		return nil, err
	}
	return f, nil
}

// OpenDir opens the fragment file of a store directory.
func OpenDir(dir string) (*Fragment, error) {
	return Open(filepath.Join(dir, FragmentFile))
}

func parseFragment(path string, data []byte, unmap func([]byte) error) (*Fragment, error) {
	if len(data) < footerSize {
		return nil, fmt.Errorf("colstore: %s: %d bytes is smaller than the footer", path, len(data))
	}
	ft := data[len(data)-footerSize:]
	if string(ft[:8]) != Magic {
		return nil, fmt.Errorf("colstore: %s: bad magic %q", path, ft[:8])
	}
	version := binary.LittleEndian.Uint32(ft[8:])
	if version != FormatVersion {
		return nil, fmt.Errorf("colstore: %s: format version %d, want %d", path, version, FormatVersion)
	}
	arity := int(binary.LittleEndian.Uint32(ft[12:]))
	rows := binary.LittleEndian.Uint64(ft[16:])
	tableOff := binary.LittleEndian.Uint64(ft[24:])
	tableLen := binary.LittleEndian.Uint64(ft[32:])
	tableSum := binary.LittleEndian.Uint64(ft[40:])
	if arity <= 0 || arity > 1<<16 {
		return nil, fmt.Errorf("colstore: %s: arity %d out of range", path, arity)
	}
	if rows > (1<<32)-1 {
		// Row references are uint32 throughout (chunk IDs, overlay views),
		// so a larger count can only be footer corruption.
		return nil, fmt.Errorf("colstore: %s: row count %d out of range", path, rows)
	}
	body := uint64(len(data) - footerSize)
	if tableOff > body || tableLen > body-tableOff {
		return nil, fmt.Errorf("colstore: %s: segment table out of bounds", path)
	}
	table := data[tableOff : tableOff+tableLen]
	if checksum(table) != tableSum {
		return nil, fmt.Errorf("colstore: %s: segment table checksum mismatch", path)
	}
	wantEntries := 1 + 2*arity
	if len(table) != wantEntries*tableEntrySize {
		return nil, fmt.Errorf("colstore: %s: segment table has %d bytes, want %d entries",
			path, len(table), wantEntries)
	}
	entries := make([]tableEntry, wantEntries)
	for i := range entries {
		e := table[i*tableEntrySize:]
		entries[i] = tableEntry{
			off:    binary.LittleEndian.Uint64(e),
			length: binary.LittleEndian.Uint64(e[8:]),
			sum:    binary.LittleEndian.Uint64(e[16:]),
		}
		if entries[i].off > body || entries[i].length > body-entries[i].off {
			return nil, fmt.Errorf("colstore: %s: segment %d out of bounds", path, i)
		}
	}

	f := &Fragment{
		path:    path,
		data:    data,
		unmap:   unmap,
		columns: columns{rows: int(rows), cols: make([]*column, arity)},
	}
	for j := range f.cols {
		f.cols[j] = &column{
			PackedColumn: PackedColumn{Dict: f.section(entries[1+j])},
			rows:         f.rows,
			name:         fmt.Sprintf("%s: column %d", path, j),
			file:         &backing{f: f, dictSum: entries[1+j].sum, seg: entries[1+arity+j]},
		}
	}

	sb := f.section(entries[0])
	if checksum(sb) != entries[0].sum {
		return nil, fmt.Errorf("colstore: %s: schema section checksum mismatch", path)
	}
	schema, err := decodeSchema(sb)
	if err != nil {
		return nil, fmt.Errorf("colstore: %s: %w", path, err)
	}
	if schema.Arity() != arity {
		return nil, fmt.Errorf("colstore: %s: schema arity %d does not match footer arity %d",
			path, schema.Arity(), arity)
	}
	f.schema = schema
	return f, nil
}

func (f *Fragment) section(e tableEntry) []byte {
	return f.data[e.off : e.off+e.length]
}

// Schema returns the fragment's schema.
func (f *Fragment) Schema() *relation.Schema { return f.schema }

// Close releases the file mapping. Close is idempotent.
func (f *Fragment) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	data := f.data
	f.data = nil
	if f.unmap != nil {
		return f.unmap(data)
	}
	return nil
}

// checkOpen guards the first touch of mapped bytes.
func (f *Fragment) checkOpen() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("colstore: read after Close on %s", f.path)
	}
	return nil
}

// loadSegment verifies segment bytes b against the table entry, fills
// the column's chunk side from its directory and checks every chunk
// against the dictionary (checkChunks), so no reader of a file column
// sees an ID its dictionary lacks:
//
//	u32 chunkRows | u32 numChunks | numChunks × u32 length | payloads
func (c *column) loadSegment(b []byte) error {
	if checksum(b) != c.file.seg.sum {
		return fmt.Errorf("colstore: %s: segment checksum mismatch", c.name)
	}
	if len(b) < 8 {
		return fmt.Errorf("colstore: %s: segment truncated", c.name)
	}
	c.chunkRows = int(binary.LittleEndian.Uint32(b))
	numChunks := int(binary.LittleEndian.Uint32(b[4:]))
	if c.chunkRows <= 0 && numChunks > 0 || c.chunkRows > MaxChunkRows {
		return fmt.Errorf("colstore: %s: chunkRows %d (want 1..%d)", c.name, c.chunkRows, MaxChunkRows)
	}
	if want := (c.rows + max(c.chunkRows, 1) - 1) / max(c.chunkRows, 1); numChunks != want {
		return fmt.Errorf("colstore: %s: %d chunks, want %d for %d rows", c.name, numChunks, want, c.rows)
	}
	if len(b) < 8+numChunks*4 {
		return fmt.Errorf("colstore: %s: chunk directory truncated", c.name)
	}
	dir, payload := b[8:8+numChunks*4], b[8+numChunks*4:]
	c.Chunks = make([][]byte, numChunks)
	for k := range c.Chunks {
		n := uint64(binary.LittleEndian.Uint32(dir[k*4:]))
		if n > uint64(len(payload)) {
			return fmt.Errorf("colstore: %s: chunk %d overruns the segment", c.name, k)
		}
		c.Chunks[k], payload = payload[:n:n], payload[n:]
	}
	if len(payload) != 0 {
		return fmt.Errorf("colstore: %s: %d segment bytes past the last chunk", c.name, len(payload))
	}
	return c.checkChunks()
}

// decodeSchema parses the schema section.
func decodeSchema(b []byte) (*relation.Schema, error) {
	str := func() (string, error) {
		n, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < n {
			return "", fmt.Errorf("schema section truncated")
		}
		v := string(b[sz : sz+int(n)])
		b = b[sz+int(n):]
		return v, nil
	}
	count := func() (int, error) {
		n, sz := binary.Uvarint(b)
		if sz <= 0 || n > uint64(len(b)) {
			return 0, fmt.Errorf("schema section truncated")
		}
		b = b[sz:]
		return int(n), nil
	}
	name, err := str()
	if err != nil {
		return nil, err
	}
	arity, err := count()
	if err != nil {
		return nil, err
	}
	attrs := make([]string, arity)
	for i := range attrs {
		if attrs[i], err = str(); err != nil {
			return nil, err
		}
	}
	nkey, err := count()
	if err != nil {
		return nil, err
	}
	key := make([]string, nkey)
	for i := range key {
		if key[i], err = str(); err != nil {
			return nil, err
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes in schema section", len(b))
	}
	return relation.NewSchema(name, attrs, key...)
}
