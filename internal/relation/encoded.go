package relation

import (
	"fmt"
	"slices"
	"sync"
)

// Encoded is a columnar, dictionary-encoded view of a Relation: one
// dense []uint32 ID vector per attribute, backed by a per-column Dict.
// It is the engine's native representation for the hot paths — the
// check(D, Σ) group-bys, σ-routing, joins and the wire form — where
// comparing and hashing fixed-width IDs beats rebuilding string keys
// per tuple (DESIGN.md ablation 8).
//
// Columns are built lazily, one at a time, on first use: an operation
// touching only X ∪ A pays for exactly those attributes, and later
// operations on the same relation reuse them. Construction is safe for
// concurrent use — the parallel phases of the detection algorithms hit
// one fragment's view from many goroutines — and a built column is
// immutable: its Dict must only be read (Lookup/Val), never interned
// into, after Column returns it.
//
// An Encoded snapshots the relation's tuple slice when created; the
// owning Relation invalidates its cached view on mutation (Append,
// AppendAll, SortBy), so a stale snapshot is never observed through
// Relation.Encoded.
type Encoded struct {
	// tuples is the snapshot the view was built from; nil for views over
	// lazy relations (ProjectRows, Merge windows, FromColumns), which
	// pre-build every column, so the tuple fallback in Column is never
	// needed there. rows carries the count explicitly.
	tuples []Tuple
	rows   int
	arity  int
	// reader, when non-nil, is the packed storage backing this view
	// (FromPackedReader): Column decodes from it on first use instead
	// of the tuple fallback, so a received packed block materializes
	// only the columns something actually reads.
	reader ColumnReader

	mu    sync.RWMutex
	cols  [][]uint32
	dicts []*Dict
	// dense[i] records that column i's dictionary holds exactly the
	// values occurring in the column. Derived views (ProjectRows) share
	// their source's dictionary instead of re-interning — IDs stay
	// valid but sparse — and compaction is deferred to the wire.
	dense []bool
}

func newEncoded(tuples []Tuple, arity int) *Encoded {
	return &Encoded{
		tuples: tuples,
		rows:   len(tuples),
		arity:  arity,
		cols:   make([][]uint32, arity),
		dicts:  make([]*Dict, arity),
		dense:  make([]bool, arity),
	}
}

// lazyView returns a lazy relation over s of rows rows and the view
// backing it, its columns for the caller to set before publishing it.
func lazyView(s *Schema, rows int) (*Relation, *Encoded) {
	out, enc := New(s), newEncoded(nil, s.Arity())
	out.lazy, enc.rows = &lazyTuples{rows: rows}, rows
	out.enc.Store(enc)
	return out, enc
}

// Rows returns the number of rows in the view.
func (e *Encoded) Rows() int { return e.rows }

// applyDelta derives the next-generation view after a delta: built
// columns are carried forward — swap-compacted under the same deletes
// the tuple slice saw, then extended with the inserted rows' IDs —
// and unbuilt columns stay lazy. Dictionaries grow by
// Dict.InternInserts, so nothing reachable from the previous
// generation is ever mutated: readers of the old view keep a
// consistent pre-delta snapshot while this one is constructed.
func (e *Encoded) applyDelta(newTuples []Tuple, delIdx []int, ins []Tuple) *Encoded {
	ne := newEncoded(newTuples, e.arity)
	e.mu.RLock()
	cols := append([][]uint32(nil), e.cols...)
	dicts := append([]*Dict(nil), e.dicts...)
	dense := append([]bool(nil), e.dense...)
	e.mu.RUnlock()
	for i := range cols {
		if cols[i] == nil {
			continue
		}
		col, dict, dn := cols[i], dicts[i], dense[i]
		if len(delIdx) > 0 {
			col = SwapRemove(slices.Clone(col), delIdx)
			// A removed value may no longer occur in the column while its
			// dictionary entry remains; the wire form must recompact.
			dn = false
		}
		// Appending may write into spare capacity shared with the
		// previous generation — beyond its length, which its readers
		// never index — or reallocate; both are safe.
		dict, col = dict.InternInserts(col, ins, i)
		ne.cols[i], ne.dicts[i], ne.dense[i] = col, dict, dn
	}
	return ne
}

// Arity returns the number of columns.
func (e *Encoded) Arity() int { return e.arity }

// Column returns attribute position i as an ID vector and its
// dictionary, building both on first use. The returned slice and Dict
// are shared and read-only.
func (e *Encoded) Column(i int) ([]uint32, *Dict) {
	e.mu.RLock()
	col, dict := e.cols[i], e.dicts[i]
	e.mu.RUnlock()
	if col != nil {
		return col, dict
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cols[i] == nil {
		if e.reader != nil {
			c := make([]uint32, e.rows)
			if err := e.reader.ReadColumn(i, 0, c); err != nil {
				// Mirrors ColumnDict's posture: the payload was adopted as
				// storage, so a malformed chunk is storage corruption, not
				// an input error the interface could surface.
				panic(fmt.Errorf("relation: decoding packed column %d: %w", i, err))
			}
			// The payload's dictionary may hold values the selection no
			// longer uses (a whole-fragment dict shipped raw), so the wire
			// form must recompact: not dense.
			e.cols[i], e.dicts[i] = c, e.reader.ColumnDict(i)
		} else {
			d := NewDict()
			c := make([]uint32, len(e.tuples))
			for j, t := range e.tuples {
				c[j] = d.ID(t[i])
			}
			e.cols[i], e.dicts[i], e.dense[i] = c, d, true
		}
	}
	return e.cols[i], e.dicts[i]
}

// PayloadSizes models the two wire forms of the relation: raw is the
// row-oriented payload (value bytes plus one separator byte per value),
// encoded the columnar form (each column's compacted dictionary
// payload — only values the column actually holds — plus four bytes
// per cell ID). Shippers pick the smaller form; the shipment metrics
// charge the same quantity so reported bytes match the wire. Each
// column is counted through a pooled Renumber, one Dict.Val a distinct
// value: distinctness runs over IDs, never by re-hashing values.
func (e *Encoded) PayloadSizes() (raw, encoded int64) { return e.payloadSizes(nil) }

// payloadSizes is PayloadSizes with row i weighed by w[i] (Renumber.Weigh);
// w nil weighs every row one.
func (e *Encoded) payloadSizes(w []uint32) (raw, encoded int64) {
	rn := getRenumber()
	defer putRenumber(rn)
	for i := 0; i < e.arity; i++ {
		col, dict := e.Column(i)
		rn.Start(dict)
		for lo := 0; lo < len(col); lo += len(rn.buf) {
			hi := min(lo+len(rn.buf), len(col))
			ids := rn.buf[:hi-lo]
			if err := rn.Map(ids, col[lo:hi]); err != nil {
				panic(err) // a built column holds only its dictionary's IDs
			}
			if w != nil {
				rn.Weigh(ids, w[lo:hi])
			}
		}
		r, en := rn.Sizes()
		raw, encoded = raw+r, encoded+en
	}
	return raw, encoded
}

// CompactColumns is Compact with each compact dictionary materialized
// as its values, strings aliasing the dictionaries.
func (e *Encoded) CompactColumns() (dicts [][]string, cols [][]uint32) {
	c := e.Compact(nil)
	defer c.Release()
	dicts = make([][]string, len(c.cols))
	for j := range dicts {
		n, val := c.Dict(j)
		dicts[j] = make([]string, n)
		for k := range dicts[j] {
			dicts[j][k] = val(uint32(k))
		}
	}
	return dicts, c.Cols()
}

// Compaction is a shipper's one pass over every column of a view: each
// column is renumbered onto a dictionary holding exactly the values
// present (Renumber), and the same pass prices the rows in the row and
// dict+ID wire forms (Sizes) — the integers PayloadSizes returns — so a
// sender prices a block and then emits either form from it, the row
// form's values (Value) or the compact columns (Cols, Dict), without a
// second pricing pass. Dense columns keep their IDs and dictionaries;
// sparse (shared-dictionary) ones are renumbered, the only place the
// deferred compaction is paid. Release returns its scratch.
type Compaction struct {
	cols         []compactColumn
	raw, encoded int64
}

// compactColumn is one column of a Compaction: the view's own IDs and
// dictionary, and their renumbering.
type compactColumn struct {
	src   []uint32
	dict  *Dict
	rn    *Renumber
	dense bool
}

// Compact renumbers and prices every column of e, row i weighed by
// w[i] (Renumber.Weigh; nil weighs every row one).
func (e *Encoded) Compact(w []uint32) *Compaction {
	c := &Compaction{cols: make([]compactColumn, e.arity)}
	for i := range c.cols {
		col, d := e.Column(i)
		e.mu.RLock()
		dense := e.dense[i]
		e.mu.RUnlock()
		rn := getRenumber()
		rn.Start(d)
		c.cols[i] = compactColumn{src: col, dict: d, rn: rn, dense: dense}
		for lo := 0; lo < len(col); lo += len(rn.buf) {
			hi := min(lo+len(rn.buf), len(col))
			ids := rn.buf[:hi-lo]
			if err := rn.Map(ids, col[lo:hi]); err != nil {
				panic(err) // a built column holds only its dictionary's IDs
			}
			if w != nil {
				rn.Weigh(ids, w[lo:hi])
			}
		}
		r, en := rn.Sizes()
		c.raw, c.encoded = c.raw+r, c.encoded+en
	}
	return c
}

// Sizes returns the rows' prices in the row and dict+ID wire forms.
func (c *Compaction) Sizes() (raw, encoded int64) { return c.raw, c.encoded }

// Cols returns every column's compact IDs: a dense column as it is, a
// sparse one through its renumbering (Renumber.Remap).
func (c *Compaction) Cols() [][]uint32 {
	out := make([][]uint32, len(c.cols))
	for j, col := range c.cols {
		if out[j] = col.src; !col.dense {
			out[j] = make([]uint32, len(col.src))
			col.rn.Remap(out[j], col.src)
		}
	}
	return out
}

// Dict returns column j's compact dictionary: n values, the k-th val(k),
// valid until Release.
func (c *Compaction) Dict(j int) (n int, val func(uint32) string) {
	if col := c.cols[j]; !col.dense {
		return col.rn.Len(), col.rn.Val
	}
	return c.cols[j].dict.Len(), c.cols[j].dict.Val
}

// Value returns row i's value in column j.
func (c *Compaction) Value(i, j int) string { return c.cols[j].dict.Val(c.cols[j].src[i]) }

// Release returns the renumberings to their pool.
func (c *Compaction) Release() {
	for _, col := range c.cols {
		putRenumber(col.rn)
	}
	c.cols = nil
}

// Encoded returns the relation's columnar dictionary-encoded view,
// building it lazily on first use. Safe for concurrent readers; like
// the rest of Relation, not safe against concurrent mutation.
func (r *Relation) Encoded() *Encoded {
	if e := r.enc.Load(); e != nil {
		return e
	}
	e := newEncoded(r.Tuples(), r.schema.Arity())
	if r.enc.CompareAndSwap(nil, e) {
		return e
	}
	if w := r.enc.Load(); w != nil {
		return w
	}
	return e
}

// invalidateEncoding drops the cached columnar view and any attached
// packed payload; every non-delta mutation of the tuple set calls it
// (Apply maintains the view instead — see applyDelta).
func (r *Relation) invalidateEncoding() {
	r.enc.Store(nil)
	r.packed.Store(nil)
}

// ProjectRows returns a new relation holding the given rows of r (in
// order) projected onto attrs, named name. The columnar encoded view
// is derived from r's by row gathering: the extract shares the source
// dictionaries (IDs stay valid, merely sparse), so extraction does no
// hashing at all. The result is lazy — extraction runs per shipped
// block on the serving path, where the string-tuple build was the
// single largest allocation site of a whole detection run, and the
// consumers work in ID space.
func (r *Relation) ProjectRows(name string, attrs []string, rows []int) (*Relation, error) {
	return Project(r, name, attrs, rows)
}

// Project is ProjectRows over row indices of either width: a site's
// σ-block row lists are int32.
func Project[I int | int32](r *Relation, name string, attrs []string, rows []I) (*Relation, error) {
	idx, err := r.schema.Indices(attrs)
	if err != nil {
		return nil, err
	}
	ps, err := r.schema.Project(name, attrs)
	if err != nil {
		return nil, err
	}
	e := r.Encoded()
	out, enc := lazyView(ps, len(rows))
	for j, c := range idx {
		srcCol, srcDict := e.Column(c)
		col := make([]uint32, len(rows))
		for k, i := range rows {
			col[k] = srcCol[i]
		}
		enc.cols[j], enc.dicts[j] = col, srcDict
	}
	return out, nil
}

// FromColumns builds a relation from per-column dictionaries, each
// given as its values in ID order, and ID vectors — the columnar form —
// installing the encoded view directly. The result is lazy: tuples
// materialize (aliasing the dictionaries' values) only if something
// leaves ID space. The columns are marked dense, so a column with a
// dictionary value no row uses (CompactColumns never emits one) is an
// error, as is an ID outside its dictionary.
func FromColumns(s *Schema, dicts [][]string, cols [][]uint32, rows int) (*Relation, error) {
	arity := s.Arity()
	if len(cols) != arity || len(dicts) != arity {
		return nil, fmt.Errorf("relation: columnar payload has %d/%d columns, schema %s wants %d",
			len(cols), len(dicts), s.Name(), arity)
	}
	out, enc := lazyView(s, rows)
	for j := range cols {
		if len(cols[j]) != rows {
			return nil, fmt.Errorf("relation: column %d has %d rows, header says %d", j, len(cols[j]), rows)
		}
		d, err := NewDictFromVals(dicts[j])
		if err != nil {
			return nil, err
		}
		n := d.Len()
		seen, used := make([]uint64, (n+63)/64), 0
		for i, id := range cols[j] {
			if int(id) >= n {
				return nil, fmt.Errorf("relation: column %d row %d: id %d outside dictionary of %d values",
					j, i, id, n)
			}
			if w, b := &seen[id>>6], uint64(1)<<(id&63); *w&b == 0 {
				*w |= b
				used++
			}
		}
		if used != n {
			return nil, fmt.Errorf("relation: column %d uses %d of its dictionary's %d values", j, used, n)
		}
		enc.cols[j], enc.dicts[j], enc.dense[j] = cols[j], d, true
	}
	return out, nil
}
