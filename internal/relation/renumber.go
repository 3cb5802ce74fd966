package relation

import (
	"fmt"
	"sync"
)

// tableMax is the one table/map rule: a Renumber indexes a source
// dictionary of up to tableMax values with a table (4 B a value, so at
// most 4 MiB) and a larger one with a map. It is also the shrink bound:
// Reset drops a map or list that grew past it. BenchmarkRenumber
// (internal/colstore; DESIGN.md ablation 21) read the table faster
// than the map on every input over a 10⁶-value dictionary.
const tableMax = 1 << 20

// Renumber is the one renumbering a column takes: it maps the column's
// IDs over a source dictionary onto dense first-occurrence IDs — the
// order Encoded assigns building a column, which keeps packed and
// dict+ID blocks byte-comparable — and counts each, so the same pass
// yields the compact dictionary (Len, Val) and the column's price in the
// row and dict+ID wire forms (Sizes); or, in the same pass, onto
// another dictionary's IDs, looked up once a distinct value
// (Translate). A dictionary is injective, so no value is hashed twice.
// CompactColumns, PayloadSizes, Merge's merges and colstore's packing
// and column pricing all run through it. It is reusable
// scratch: Start unsets only the entries the previous column set. The
// zero value is ready to use; one Renumber serves one caller at a time.
type Renumber struct {
	src    *Dict
	byMap  bool
	table  []uint32          // src ID -> compact ID (or translation) + 1, 0 when unseen
	m      map[uint32]uint32 // the same, over more than tableMax values
	srcs   []uint32          // compact ID -> src ID; its capacity is the high-water mark
	counts []uint32          // compact ID -> rows
	buf    [512]uint32       // PayloadSizes' throwaway compact IDs
}

var renumbers = sync.Pool{New: func() any { return new(Renumber) }}

func getRenumber() *Renumber { return renumbers.Get().(*Renumber) }

func putRenumber(rn *Renumber) {
	rn.Reset()
	renumbers.Put(rn)
}

// Start begins a column whose IDs index src.
func (rn *Renumber) Start(src *Dict) {
	rn.clear()
	n := src.Len()
	rn.src, rn.byMap = src, n > tableMax
	if rn.byMap && rn.m == nil {
		rn.m = make(map[uint32]uint32)
	} else if !rn.byMap && n > len(rn.table) {
		rn.table = make([]uint32, n)
	}
}

// clear unsets the entries the column set and empties its lists.
func (rn *Renumber) clear() {
	for _, s := range rn.srcs {
		if rn.byMap {
			delete(rn.m, s)
		} else {
			rn.table[s] = 0
		}
	}
	rn.src, rn.srcs, rn.counts = nil, rn.srcs[:0], rn.counts[:0]
}

// Reset forgets the column, so rn pins no dictionary, and drops the map
// and lists if a column ever grew them past tableMax entries: a map
// keeps its size when emptied, so the high-water mark decides. Call it
// before putting rn back in a pool.
func (rn *Renumber) Reset() {
	rn.clear()
	if cap(rn.srcs) > tableMax {
		rn.m, rn.srcs, rn.counts = nil, nil, nil
	}
}

// Map writes the compact ID of each of src's IDs to dst, which must be
// as long as src and may be src itself, and counts them. An ID outside
// the source dictionary is an error.
func (rn *Renumber) Map(dst, src []uint32) error { return rn.run(dst, src, nil) }

// Translate writes to dst the ID f returns for the value of each of
// src's IDs, calling f once a distinct value, at its first occurrence:
// the translation of a column onto another dictionary. It counts
// nothing: call neither Map nor Sizes before the next Start.
func (rn *Renumber) Translate(dst, src []uint32, f func(string) uint32) error {
	return rn.run(dst, src, f)
}

// run is Map with f nil and Translate otherwise, where the table and
// map hold each source ID's translation + 1 instead of its compact ID
// + 1.
func (rn *Renumber) run(dst, src []uint32, f func(string) uint32) error {
	dst = dst[:len(src)]
	bad := -1
	switch {
	case rn.byMap:
		bad = rn.runMap(dst, src, f)
	case f == nil:
		bad = rn.mapTable(dst, src)
	default:
		bad = rn.translateTable(dst, src, f)
	}
	if bad >= 0 {
		return fmt.Errorf("ID %d outside a dictionary of %d values", src[bad], rn.src.Len())
	}
	return nil
}

// runMap is run over the map; it returns the index of the first ID
// outside the source dictionary, or -1.
func (rn *Renumber) runMap(dst, src []uint32, f func(string) uint32) int {
	n, bad := uint32(rn.src.Len()), -1
	for i, s := range src {
		v := rn.m[s]
		if v == 0 {
			if s >= n {
				bad = i
				break
			}
			rn.srcs = append(rn.srcs, s)
			if v = uint32(len(rn.srcs)); f != nil {
				v = f(rn.src.Val(s)) + 1
			} else {
				rn.counts = append(rn.counts, 0)
			}
			rn.m[s] = v
		}
		dst[i] = v - 1
		if f == nil {
			rn.counts[v-1]++
		}
	}
	return bad
}

// mapTable and translateTable are run over the table, Map's and
// Translate's loops kept apart: with no per-row branch on which one
// runs, and little state live across the loop, the table side reads
// about twice as fast on a column of few values.
func (rn *Renumber) mapTable(dst, src []uint32) int {
	table, srcs, counts := rn.table[:rn.src.Len()], rn.srcs, rn.counts
	defer func() { rn.srcs, rn.counts = srcs, counts }()
	for i, s := range src {
		if int(s) >= len(table) {
			return i
		}
		v := table[s]
		if v == 0 {
			srcs, counts = append(srcs, s), append(counts, 0)
			v = uint32(len(srcs))
			table[s] = v
		}
		dst[i] = v - 1
		counts[v-1]++
	}
	return -1
}

func (rn *Renumber) translateTable(dst, src []uint32, f func(string) uint32) int {
	table, srcs := rn.table[:rn.src.Len()], rn.srcs
	defer func() { rn.srcs = srcs }()
	for i, s := range src {
		if int(s) >= len(table) {
			return i
		}
		v := table[s]
		if v == 0 {
			srcs = append(srcs, s)
			v = f(rn.src.Val(s)) + 1
			table[s] = v
		}
		dst[i] = v - 1
	}
	return -1
}

// Remap writes to dst the compact ID Map gave each of src's IDs, all
// of which the column mapped since Start, counting nothing.
func (rn *Renumber) Remap(dst, src []uint32) {
	if rn.byMap {
		for i, s := range src {
			dst[i] = rn.m[s] - 1
		}
		return
	}
	for i, s := range src {
		dst[i] = rn.table[s] - 1
	}
}

// Weigh weighs row i of the column Map just wrote to dst by w[i]
// instead of one: Sizes then prices each row as w[i] copies of it, the
// price of a counted column's expanded bag.
func (rn *Renumber) Weigh(dst, w []uint32) {
	for i, v := range dst {
		rn.counts[v] += w[i] - 1
	}
}

// Len returns the number of values the compact dictionary holds.
func (rn *Renumber) Len() int { return len(rn.srcs) }

// Val returns the compact dictionary's value k.
func (rn *Renumber) Val(k uint32) string { return rn.src.Val(rn.srcs[k]) }

// Sizes prices the column mapped since Start as Encoded.PayloadSizes
// does: raw is every row's value length plus one separator byte,
// encoded every distinct value's plus four bytes a row.
func (rn *Renumber) Sizes() (raw, encoded int64) {
	for k, s := range rn.srcs {
		l := int64(len(rn.src.Val(s))) + 1
		raw += int64(rn.counts[k]) * l
		encoded += l + 4*int64(rn.counts[k])
	}
	return raw, encoded
}

// sized returns buf with length n, reallocating when its capacity falls
// short; what it holds is unspecified until the caller fills it.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
