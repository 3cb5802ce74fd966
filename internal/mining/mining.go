// Package mining implements closed frequent pattern mining over the
// LHS attributes of a CFD, the preprocessing step of Section IV-B:
// when a CFD's pattern tuples carry many wildcards (the extreme case
// being a traditional FD), the σ-partitioning degenerates and
// PatDetectS/PatDetectRT collapse into CTRDetect. Mining each fragment
// for LHS patterns with support ≥ θ·|Di| and instantiating the
// wildcards with them restores a fine partitioning, which the paper
// shows cuts data shipment by up to ~80%.
//
// A pattern here is a vector over the X attributes whose entries are
// constants or the wildcard; its support is the number of tuples
// matching it. The miner is a levelwise (Apriori-style) search over
// itemsets of (attribute, value) pairs, keeping only *closed* patterns
// — those with no strictly more specific pattern of equal support —
// since a non-closed pattern is dominated by its closure for
// partitioning purposes.
package mining

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"distcfd/internal/relation"
)

// Wildcard mirrors cfd.Wildcard without importing it (mining is a
// lower-level substrate; internal/cfd depends on nothing here).
const Wildcard = "_"

// item is one (attribute position, constant) pair.
type item struct {
	pos int
	val string
}

// itemset is a sorted-by-position list of items with distinct positions.
type itemset []item

// key encodes the itemset injectively: uvarint position, uvarint
// value length, value bytes. The old "%d=%s"-join collided whenever a
// value contained the separator ({0:"a\x1f1=b"} vs {0:"a", 1:"b"}),
// silently fusing two itemsets' support counts.
func (s itemset) key() string {
	var b []byte
	for _, it := range s {
		b = binary.AppendUvarint(b, uint64(it.pos))
		b = relation.AppendKey(b, it.val)
	}
	return string(b)
}

// patternKey encodes a pattern vector injectively for dedup maps (the
// positions are implicit in the order, so lengths alone frame it).
func patternKey(p []string) string { return string(relation.AppendKey(nil, p...)) }

// Pattern is a mined LHS pattern with its relative support at the
// mining site. RelSupport drives the merge ranking: among patterns of
// equal generality, one concentrated at a single site keeps its
// σ-block local to that site, while one equally frequent everywhere
// buys no locality.
type Pattern struct {
	Vals       []string
	RelSupport float64
}

// ClosedPatternsWithSupport mines the closed frequent LHS patterns of
// the fragment over attributes x with relative support threshold theta
// ∈ (0, 1]. The returned patterns are vectors aligned with x
// (constants or Wildcard) with their relative support, sorted by
// descending constant count then lexicographically — the generality
// order σ wants. The all-wildcard pattern is never returned (callers
// append it as the catch-all row).
func ClosedPatternsWithSupport(frag *relation.Relation, x []string, theta float64) ([]Pattern, error) {
	if !(theta > 0 && theta <= 1) { // NaN included
		return nil, fmt.Errorf("mining: theta must be in (0,1], got %v", theta)
	}
	xi, err := frag.Schema().Indices(x)
	if err != nil {
		return nil, err
	}
	n := frag.Len()
	if n == 0 {
		return nil, nil
	}
	minSup := int(theta * float64(n))
	if float64(minSup) < theta*float64(n) {
		minSup++ // ceil
	}
	if minSup < 1 {
		minSup = 1
	}

	// Project tuples once.
	rows := make([][]string, n)
	for i, t := range frag.Tuples() {
		row := make([]string, len(xi))
		for j, c := range xi {
			row[j] = t[c]
		}
		rows[i] = row
	}

	// L1: frequent single items.
	counts := map[item]int{}
	for _, row := range rows {
		for pos, val := range row {
			counts[item{pos, val}]++
		}
	}
	var level []itemset
	support := map[string]int{}
	for it, c := range counts {
		if c >= minSup {
			s := itemset{it}
			level = append(level, s)
			support[s.key()] = c
		}
	}
	sortItemsets(level)

	all := append([]itemset(nil), level...)
	// Levelwise expansion up to |x| items.
	for k := 2; k <= len(x) && len(level) > 0; k++ {
		cands := candidates(level)
		var next []itemset
		for _, cand := range cands {
			c := countSupport(rows, cand)
			if c >= minSup {
				next = append(next, cand)
				support[cand.key()] = c
			}
		}
		sortItemsets(next)
		all = append(all, next...)
		level = next
	}

	// Closedness: a set is closed iff no one-item extension has equal
	// support. (Equal support implies the extension is frequent too, so
	// it is in `support`.)
	var closed []itemset
	for _, s := range all {
		if isClosed(s, support, counts, minSup, rows) {
			closed = append(closed, s)
		}
	}

	out := make([]Pattern, 0, len(closed))
	for _, s := range closed {
		p := make([]string, len(x))
		for i := range p {
			p[i] = Wildcard
		}
		for _, it := range s {
			p[it.pos] = it.val
		}
		out = append(out, Pattern{Vals: p, RelSupport: float64(support[s.key()]) / float64(n)})
	}
	sort.SliceStable(out, func(i, j int) bool {
		wi, wj := wildcards(out[i].Vals), wildcards(out[j].Vals)
		if wi != wj {
			return wi < wj
		}
		//distcfd:keyjoin-ok — comparator only; ordering needs no injectivity
		return strings.Join(out[i].Vals, "\x1f") < strings.Join(out[j].Vals, "\x1f")
	})
	return out, nil
}

func isClosed(s itemset, support map[string]int, singles map[item]int, minSup int, rows [][]string) bool {
	own := support[s.key()]
	used := map[int]bool{}
	for _, it := range s {
		used[it.pos] = true
	}
	for it, c := range singles {
		if used[it.pos] || c < minSup {
			continue
		}
		ext := extend(s, it)
		extSup, ok := support[ext.key()]
		if !ok {
			continue // infrequent superset: support strictly below minSup ≤ own only if own > extSup, fine
		}
		if extSup == own {
			return false
		}
	}
	return true
}

func extend(s itemset, it item) itemset {
	out := make(itemset, 0, len(s)+1)
	inserted := false
	for _, e := range s {
		if !inserted && it.pos < e.pos {
			out = append(out, it)
			inserted = true
		}
		out = append(out, e)
	}
	if !inserted {
		out = append(out, it)
	}
	return out
}

// candidates joins level-k itemsets sharing their first k-1 items,
// requiring distinct positions (at most one constant per attribute).
func candidates(level []itemset) []itemset {
	var out []itemset
	seen := map[string]bool{}
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			a, b := level[i], level[j]
			if !samePrefix(a, b) {
				continue
			}
			last := b[len(b)-1]
			if last.pos == a[len(a)-1].pos {
				continue
			}
			cand := extend(a, last)
			if k := cand.key(); !seen[k] {
				seen[k] = true
				out = append(out, cand)
			}
		}
	}
	return out
}

func samePrefix(a, b itemset) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func countSupport(rows [][]string, s itemset) int {
	c := 0
	for _, row := range rows {
		ok := true
		for _, it := range s {
			if row[it.pos] != it.val {
				ok = false
				break
			}
		}
		if ok {
			c++
		}
	}
	return c
}

func sortItemsets(sets []itemset) {
	sort.Slice(sets, func(i, j int) bool { return sets[i].key() < sets[j].key() })
}

func wildcards(p []string) int {
	n := 0
	for _, v := range p {
		if v == Wildcard {
			n++
		}
	}
	return n
}

// MergeRanked unions per-site mined patterns keeping, for each
// distinct pattern, the maximum per-site relative support seen, and
// orders the result by ascending wildcard count, then *descending*
// maximum support, then lexicographically. Concentration-first
// ordering matters for σ: among equally general patterns, the one a
// single site is dense in should claim its tuples, so that the block
// stays at that site; a pattern equally frequent at every site (e.g. a
// uniform attribute value) provides no locality and must not shadow
// one that does.
func MergeRanked(lists ...[]Pattern) []Pattern {
	best := map[string]Pattern{}
	var order []string
	for _, l := range lists {
		for _, p := range l {
			k := patternKey(p.Vals)
			if prev, ok := best[k]; !ok {
				best[k] = Pattern{Vals: append([]string(nil), p.Vals...), RelSupport: p.RelSupport}
				order = append(order, k)
			} else if p.RelSupport > prev.RelSupport {
				prev.RelSupport = p.RelSupport
				best[k] = prev
			}
		}
	}
	out := make([]Pattern, 0, len(order))
	for _, k := range order {
		out = append(out, best[k])
	}
	sort.SliceStable(out, func(i, j int) bool {
		wi, wj := wildcards(out[i].Vals), wildcards(out[j].Vals)
		if wi != wj {
			return wi < wj
		}
		if out[i].RelSupport != out[j].RelSupport {
			return out[i].RelSupport > out[j].RelSupport
		}
		//distcfd:keyjoin-ok — comparator only; ordering needs no injectivity
		return strings.Join(out[i].Vals, "\x1f") < strings.Join(out[j].Vals, "\x1f")
	})
	return out
}
