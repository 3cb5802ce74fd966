package relation

import "fmt"

// mergeShrinkIDs bounds the ID buffer a pooled Merge may retain: past
// it the buffer is dropped when Shrink runs, so one huge block cannot
// permanently inflate a long-lived site's pool (the bound the kernel's
// scratch keeps with its own row budget). 1<<23 IDs is 32 MiB, a
// 2M-row block of four columns.
const mergeShrinkIDs = 1 << 23

// Merge is the reusable destination of Concat. The relation a call
// returns reads its columns straight from the Merge's buffer, so it is
// valid only until the next call on the same Merge; whatever must
// outlive that is taken from it first (a coordinator keeps only the
// pattern tuples its check reports, which are strings). The zero value
// is ready to use; one Merge serves one caller at a time.
type Merge struct {
	ids []uint32 // every column of the last merge, one window each
	rn  Renumber // translates a part over another dictionary
}

// Concat is Merge.Concat into a fresh destination, so its result stays
// valid for as long as it is referenced.
func Concat(parts ...*Relation) (*Relation, error) {
	var m Merge
	return m.Concat(parts...)
}

// Concat returns a relation holding every part's tuples in order under
// parts[0]'s schema (parts must share its arity, like AppendAll). It
// merges under the first non-empty part's dictionaries: that part keeps
// its IDs, a part sharing its dictionary is copied as it is, and any
// other part is translated (Renumber.Translate) once per distinct value
// by a Lookup there — a row-backed part once per cell — so only values
// the base dictionary lacks are interned, into an overlay made at the
// first such value.
// The base dictionary is never written: the coordinators of one site
// share their fragment's. A packed part decodes through its reader
// straight into its window of the merged column, where a corrupt chunk
// is an error. The result is lazy and reads its columns in place, so a
// check over it copies nothing.
func (m *Merge) Concat(parts ...*Relation) (*Relation, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("relation: Concat with no inputs")
	}
	schema := parts[0].schema
	arity, total := schema.Arity(), 0
	for _, p := range parts {
		if p.schema.Arity() != arity {
			return nil, fmt.Errorf("relation: cannot concat %s (arity %d) with %s (arity %d)",
				p.schema.Name(), p.schema.Arity(), schema.Name(), arity)
		}
		total += p.Len()
	}
	if total == 0 {
		return New(schema), nil
	}
	m.ids = sized(m.ids, total*arity)
	out, enc := lazyView(schema, total)
	for j := 0; j < arity; j++ {
		col := m.ids[j*total : (j+1)*total : (j+1)*total]
		d, err := m.column(j, col, parts)
		if err != nil {
			return nil, err
		}
		enc.cols[j], enc.dicts[j] = col, d
	}
	return out, nil
}

// column fills col with every part's column j, in order, and returns
// the dictionary col reads through: the base part's, or an overlay
// over it once a value it lacks turned up.
func (m *Merge) column(j int, col []uint32, parts []*Relation) (*Dict, error) {
	var base, d *Dict // the first non-empty part's dictionary; what col reads through
	intern := func(v string) uint32 {
		if id, ok := d.Lookup(v); ok {
			return id
		}
		if d == base {
			d = overlay(base)
		}
		return d.ID(v)
	}
	off := 0
	for _, p := range parts {
		n := p.Len()
		if n == 0 {
			continue
		}
		win := col[off : off+n]
		off += n
		if p.lazy == nil && p.enc.Load() == nil {
			for i, t := range p.tuples {
				win[i] = intern(t[j])
			}
			continue
		}
		var src []uint32
		var pd *Dict
		if br := p.BackingReader(); br != nil {
			if err := br.ReadColumn(j, 0, win); err != nil {
				return nil, fmt.Errorf("relation: decoding packed column %d: %w", j, err)
			}
			src, pd = win, br.ColumnDict(j)
		} else {
			src, pd = p.Encoded().Column(j)
		}
		if d == nil {
			base, d = pd, pd
		}
		if pd == base {
			copy(win, src)
			continue
		}
		m.rn.Start(pd)
		if err := m.rn.Translate(win, src, intern); err != nil {
			return nil, fmt.Errorf("relation: column %d: %w", j, err)
		}
	}
	return d, nil
}

// Shrink drops the ID buffer if it grew past mergeShrinkIDs and resets
// the renumbering (Renumber.Reset); call it before returning m to a
// pool.
func (m *Merge) Shrink() {
	if cap(m.ids) > mergeShrinkIDs {
		m.ids = nil
	}
	m.rn.Reset()
}
