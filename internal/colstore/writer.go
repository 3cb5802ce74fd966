package colstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"distcfd/internal/relation"
)

// Writer streams tuples into a persisted fragment without ever
// materializing the relation: each appended tuple interns into
// per-column dictionaries and buffers one chunk of IDs per column;
// full chunks are encoded and spilled to per-column temporary files,
// so the writer's memory is the dictionaries plus one chunk per column
// regardless of row count. Finish assembles the final file and renames
// it into place (write-temp-then-rename); Close without Finish aborts
// and removes every temporary.
//
// Interning fresh per column means any overlay chain on the source's
// dictionaries (relation.Chain generations from incremental encoding)
// is flattened at persist time, and IDs follow first-occurrence order
// — exactly the order relation.Encoded assigns when building the
// column in memory, which is what makes packed segments and in-memory
// views byte-comparable.
type Writer struct {
	schema    *relation.Schema
	path      string
	chunkRows int

	dicts  []*relation.Dict
	chunks [][]uint32
	spills []*os.File
	lens   [][]uint32 // per column, each chunk's encoded length

	rows     int
	rawBytes int64
	encBuf   []byte
	finished bool
	closed   bool
}

// Stats reports a finished fragment.
type Stats struct {
	// Rows is the persisted row count.
	Rows int
	// BytesOnDisk is the final file size.
	BytesOnDisk int64
	// RawBytes is the row-oriented payload equivalent (value bytes plus
	// one separator per value — the Encoded.PayloadSizes raw measure),
	// the denominator of the compression ratio.
	RawBytes int64
}

// Create opens a streaming writer for a fragment file at path.
func Create(path string, schema *relation.Schema) (*Writer, error) {
	w := &Writer{
		schema:    schema,
		path:      path,
		chunkRows: DefaultChunkRows,
		dicts:     make([]*relation.Dict, schema.Arity()),
		chunks:    make([][]uint32, schema.Arity()),
		spills:    make([]*os.File, schema.Arity()),
		lens:      make([][]uint32, schema.Arity()),
	}
	dir := filepath.Dir(path)
	for j := range w.dicts {
		w.dicts[j] = relation.NewDict()
		w.chunks[j] = make([]uint32, 0, w.chunkRows)
		f, err := os.CreateTemp(dir, ".colstore-spill-*")
		if err != nil {
			w.cleanup()
			return nil, fmt.Errorf("colstore: creating spill: %w", err)
		}
		w.spills[j] = f
	}
	return w, nil
}

// CreateDir opens a streaming writer for the fragment file of a store
// directory, creating the directory if needed.
func CreateDir(dir string, schema *relation.Schema) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("colstore: %w", err)
	}
	return Create(filepath.Join(dir, FragmentFile), schema)
}

// Append adds one tuple. The tuple's values are interned; the tuple
// itself is not retained.
func (w *Writer) Append(t relation.Tuple) error {
	if w.finished || w.closed {
		return fmt.Errorf("colstore: Append on a finished writer")
	}
	if len(t) != w.schema.Arity() {
		return fmt.Errorf("colstore: tuple arity %d does not match schema %s arity %d",
			len(t), w.schema.Name(), w.schema.Arity())
	}
	for j, v := range t {
		w.chunks[j] = append(w.chunks[j], w.dicts[j].ID(v))
		w.rawBytes += int64(len(v)) + 1
		if len(w.chunks[j]) == w.chunkRows {
			if err := w.flushChunk(j); err != nil {
				return err
			}
		}
	}
	w.rows++
	return nil
}

func (w *Writer) flushChunk(j int) error {
	buf, _, _ := EncodeChunk(w.encBuf[:0], w.chunks[j])
	w.encBuf = buf
	if _, err := w.spills[j].Write(buf); err != nil {
		return fmt.Errorf("colstore: spilling column %d: %w", j, err)
	}
	w.lens[j] = append(w.lens[j], uint32(len(buf)))
	w.chunks[j] = w.chunks[j][:0]
	return nil
}

// Finish flushes pending chunks, assembles the fragment file, syncs it
// and renames it into place, returning the fragment's stats. After
// Finish, the writer is closed.
func (w *Writer) Finish() (Stats, error) {
	if w.finished || w.closed {
		return Stats{}, fmt.Errorf("colstore: Finish on a finished writer")
	}
	for j := range w.chunks {
		if len(w.chunks[j]) > 0 {
			if err := w.flushChunk(j); err != nil {
				return Stats{}, err
			}
		}
	}
	st, err := w.assemble()
	w.cleanup()
	if err != nil {
		return Stats{}, err
	}
	w.finished = true
	return st, nil
}

// Close aborts an unfinished writer, removing all temporaries. Closing
// a finished writer is a no-op. It always returns nil; the signature
// matches the usual closer shape.
func (w *Writer) Close() error {
	if !w.finished {
		w.cleanup()
	}
	return nil
}

func (w *Writer) cleanup() {
	for _, f := range w.spills {
		if f != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}
	w.spills = make([]*os.File, len(w.spills))
	// Drop the interning state too: the dictionaries hold every distinct
	// value — O(rows) for unique columns — and a finished writer kept
	// alive by a deferred Close must not pin them.
	w.dicts = nil
	w.chunks = nil
	w.lens = nil
	w.encBuf = nil
	w.closed = true
}

// sectionWriter tracks the offset of everything written to the final
// file and computes one FNV checksum per section.
type sectionWriter struct {
	w   *bufio.Writer
	off uint64
	h   hash.Hash64
}

func (sw *sectionWriter) begin()      { sw.h = fnv.New64a() }
func (sw *sectionWriter) sum() uint64 { return sw.h.Sum64() }
func (sw *sectionWriter) Write(p []byte) (int, error) {
	n, err := sw.w.Write(p)
	sw.off += uint64(n)
	if sw.h != nil {
		sw.h.Write(p[:n])
	}
	return n, err
}

// tableEntry is one section's record in the segment table.
type tableEntry struct {
	off, length, sum uint64
}

func (e tableEntry) append(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, e.off)
	b = binary.LittleEndian.AppendUint64(b, e.length)
	return binary.LittleEndian.AppendUint64(b, e.sum)
}

const tableEntrySize = 8 + 8 + 8

// assemble writes the final file next to w.path and renames it over.
func (w *Writer) assemble() (Stats, error) {
	dir := filepath.Dir(w.path)
	tmp, err := os.CreateTemp(dir, ".colstore-frag-*")
	if err != nil {
		return Stats{}, fmt.Errorf("colstore: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	sw := &sectionWriter{w: bufio.NewWriterSize(tmp, 1<<20)}
	entries := make([]tableEntry, 0, 1+2*w.schema.Arity())

	// Schema section.
	sw.begin()
	start := sw.off
	if _, err := sw.Write(encodeSchema(w.schema)); err != nil {
		return Stats{}, err
	}
	entries = append(entries, tableEntry{off: start, length: sw.off - start, sum: sw.sum()})

	// Dictionary sections, one per column with its own checksum, so
	// readers verify and decode each independently — a scan that never
	// touches a unique-valued column never pages in its dictionary.
	var db []byte
	for _, d := range w.dicts {
		sw.begin()
		start = sw.off
		db = AppendValues(db[:0], d.Len(), d.Val)
		if _, err := sw.Write(db); err != nil {
			return Stats{}, err
		}
		entries = append(entries, tableEntry{off: start, length: sw.off - start, sum: sw.sum()})
	}

	// Column segments: header + chunk directory, then the spilled
	// payload copied through the checksum.
	var hb []byte
	for j := range w.dicts {
		sw.begin()
		start = sw.off
		hb = hb[:0]
		hb = binary.LittleEndian.AppendUint32(hb, uint32(w.chunkRows))
		hb = binary.LittleEndian.AppendUint32(hb, uint32(len(w.lens[j])))
		for _, n := range w.lens[j] {
			hb = binary.LittleEndian.AppendUint32(hb, n)
		}
		if _, err := sw.Write(hb); err != nil {
			return Stats{}, err
		}
		if _, err := w.spills[j].Seek(0, io.SeekStart); err != nil {
			return Stats{}, fmt.Errorf("colstore: rewinding spill %d: %w", j, err)
		}
		if _, err := io.Copy(sw, w.spills[j]); err != nil {
			return Stats{}, fmt.Errorf("colstore: copying spill %d: %w", j, err)
		}
		entries = append(entries, tableEntry{off: start, length: sw.off - start, sum: sw.sum()})
	}

	// Segment table + footer.
	var tb []byte
	for _, e := range entries {
		tb = e.append(tb)
	}
	tableOff := sw.off
	sw.begin()
	if _, err := sw.Write(tb); err != nil {
		return Stats{}, err
	}
	tableSum := sw.sum()
	sw.h = nil
	var fb []byte
	fb = append(fb, Magic...)
	fb = binary.LittleEndian.AppendUint32(fb, FormatVersion)
	fb = binary.LittleEndian.AppendUint32(fb, uint32(w.schema.Arity()))
	fb = binary.LittleEndian.AppendUint64(fb, uint64(w.rows))
	fb = binary.LittleEndian.AppendUint64(fb, tableOff)
	fb = binary.LittleEndian.AppendUint64(fb, uint64(len(tb)))
	fb = binary.LittleEndian.AppendUint64(fb, tableSum)
	if _, err := sw.Write(fb); err != nil {
		return Stats{}, err
	}
	if err := sw.w.Flush(); err != nil {
		return Stats{}, err
	}
	if err := tmp.Sync(); err != nil {
		return Stats{}, fmt.Errorf("colstore: sync: %w", err)
	}
	size := int64(sw.off)
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		return Stats{}, err
	}
	if err := os.Rename(name, w.path); err != nil {
		return Stats{}, fmt.Errorf("colstore: %w", err)
	}
	tmp = nil
	return Stats{Rows: w.rows, BytesOnDisk: size, RawBytes: w.rawBytes}, nil
}

// encodeSchema serializes a schema: name, attributes, key attributes,
// every string length-prefixed.
func encodeSchema(s *relation.Schema) []byte {
	var b []byte
	app := func(v string) {
		b = binary.AppendUvarint(b, uint64(len(v)))
		b = append(b, v...)
	}
	app(s.Name())
	b = binary.AppendUvarint(b, uint64(s.Arity()))
	for _, a := range s.Attrs() {
		app(a)
	}
	key := s.Key()
	b = binary.AppendUvarint(b, uint64(len(key)))
	for _, a := range key {
		app(a)
	}
	return b
}

// WriteRelation persists r as a fragment file at path — the one-shot
// form of the streaming writer, used when the relation is already in
// memory (tests, conversion tools).
func WriteRelation(path string, r *relation.Relation) (Stats, error) {
	w, err := Create(path, r.Schema())
	if err != nil {
		return Stats{}, err
	}
	defer w.Close()
	for _, t := range r.Tuples() {
		if err := w.Append(t); err != nil {
			return Stats{}, err
		}
	}
	return w.Finish()
}

// WriteRelationDir persists r as the fragment file of a store
// directory, creating the directory if needed.
func WriteRelationDir(dir string, r *relation.Relation) (Stats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Stats{}, fmt.Errorf("colstore: %w", err)
	}
	return WriteRelation(filepath.Join(dir, FragmentFile), r)
}
