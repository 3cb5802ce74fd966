// Package core implements the paper's contribution: the distributed
// CFD violation detection algorithms of Section IV — CTRDetect,
// PatDetectS and PatDetectRT for a single CFD, the sequential and the
// clustered strategy for CFD sets — together with the local-validation
// rules (constant CFDs, Fi ∧ Fφ pruning), the σ tuple-partitioning
// function of Lemma 6, per-site statistics exchange, and the
// frequent-pattern mining preprocessing step for wildcard-heavy CFDs.
package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"distcfd/internal/cfd"
	"distcfd/internal/relation"
)

// BlockSpec describes a σ-partitioning of tuples: LHS attributes X and
// an ordered list of LHS patterns (already sorted by generality,
// fewest wildcards first). σ(t) is the index of the first pattern
// matched by t[X], or -1 when t matches none. Identical BlockSpecs are
// computed independently at every site, so the ordering must be — and
// is — deterministic.
type BlockSpec struct {
	X        []string
	Patterns [][]string

	idxOnce sync.Once
	idx     []maskGroup

	fpOnce sync.Once
	fp     string
}

// maskGroup indexes all patterns sharing a wildcard mask: the constant
// positions (within X) and a hash from the constants at those positions
// — as strings for Assign, as packed column IDs for AssignAll — to the
// smallest (most specific, first-match) pattern index. σ then costs
// one lookup per distinct mask instead of a scan over all patterns.
type maskGroup struct {
	positions []int
	lookup    map[string]int
}

// NewBlockSpec builds a spec from a CFD's LHS and tableau, sorting the
// patterns by generality (Section IV-B) with a deterministic
// tiebreaker.
func NewBlockSpec(x []string, patterns [][]string) (*BlockSpec, error) {
	sorted := append([][]string(nil), patterns...)
	sort.SliceStable(sorted, func(i, j int) bool {
		wi, wj := countWildcards(sorted[i]), countWildcards(sorted[j])
		if wi != wj {
			return wi < wj
		}
		//distcfd:keyjoin-ok — comparator only; ordering needs no injectivity
		return strings.Join(sorted[i], "\x1f") < strings.Join(sorted[j], "\x1f")
	})
	return NewBlockSpecOrdered(x, sorted)
}

// NewBlockSpecOrdered builds a spec keeping the caller's pattern
// order, for callers that already computed a deterministic
// better-than-generality order — the ranked mined patterns of the
// Section IV-B preprocessing. The order must still be consistent with
// σ's first-match semantics at every site, which holds because the
// order is a pure function of the (deterministically merged) pattern
// list. Identical patterns are deduplicated (they would form empty
// blocks).
func NewBlockSpecOrdered(x []string, patterns [][]string) (*BlockSpec, error) {
	var dedup [][]string
	seen := map[string]bool{}
	for _, p := range patterns {
		// Separator joins are banned as keys (distcfdvet keyjoin): they
		// collide as soon as a data value contains the separator.
		k := string(relation.AppendKey(nil, p...))
		if !seen[k] {
			seen[k] = true
			dedup = append(dedup, append([]string(nil), p...))
		}
	}
	s := &BlockSpec{X: append([]string(nil), x...), Patterns: dedup}
	if err := s.check(); err != nil {
		return nil, err
	}
	return s, nil
}

// check is the one check of a spec and block list: a non-empty X
// without a repeated attribute and at least one pattern, each of arity
// |X|, and every block in [0, K), none listed twice.
// Constructors build by it; a site applies it to a spec and blocks it
// did not build before routing with them.
func (s *BlockSpec) check(blocks ...int) error {
	if s == nil || len(s.X) == 0 || len(s.Patterns) == 0 {
		return fmt.Errorf("core: block spec needs a non-empty X and a pattern")
	}
	for i, a := range s.X {
		if slices.Contains(s.X[:i], a) {
			return fmt.Errorf("core: block spec repeats attribute %q in X", a)
		}
	}
	for _, p := range s.Patterns {
		if len(p) != len(s.X) {
			return fmt.Errorf("core: pattern %q has arity %d, want %d", p, len(p), len(s.X))
		}
	}
	listed := make(map[int]bool, len(blocks))
	for _, l := range blocks {
		if l < 0 || l >= s.K() {
			return fmt.Errorf("core: block %d out of range [0,%d)", l, s.K())
		}
		if listed[l] {
			return fmt.Errorf("core: block %d listed twice", l)
		}
		listed[l] = true
	}
	return nil
}

// SpecFromCFD builds the BlockSpec of a CFD's pattern tableau.
func SpecFromCFD(c *cfd.CFD) (*BlockSpec, error) {
	pats := make([][]string, len(c.Tp))
	for i, tp := range c.Tp {
		pats[i] = tp.LHS
	}
	return NewBlockSpec(c.X, pats)
}

func countWildcards(p []string) int {
	n := 0
	for _, v := range p {
		if v == cfd.Wildcard {
			n++
		}
	}
	return n
}

// K returns the number of patterns (blocks).
func (s *BlockSpec) K() int { return len(s.Patterns) }

// Fingerprint returns a content key for the spec: two specs have equal
// fingerprints iff X and the pattern list (in order) are equal. Sites
// key their σ-assignment caches on it, so a compiled plan reused across
// many runs — or the same spec re-decoded from the wire on every RPC —
// hits the same cache entry instead of re-routing the fragment. Every
// component is length-prefixed, so values containing separator-like
// bytes (0x1f-adjacent data is in scope since the columnar encoding
// work) can never make two different specs collide.
func (s *BlockSpec) Fingerprint() string {
	s.fpOnce.Do(func() {
		b := binary.AppendUvarint(nil, uint64(len(s.X)))
		b = relation.AppendKey(b, s.X...)
		// Rows all have arity len(X), so no per-row framing is needed.
		for _, p := range s.Patterns {
			b = relation.AppendKey(b, p...)
		}
		s.fp = string(b)
	})
	return s.fp
}

// Assign computes σ(t) for a single projected tuple value vector
// aligned with s.X: the first (most specific) matching pattern index,
// or -1. Uses a per-wildcard-mask hash index built on first use.
func (s *BlockSpec) Assign(xvals []string) int {
	s.idxOnce.Do(func() {
		s.idx = s.maskGroups(func(p []string, positions []int) (string, bool) {
			return relation.Tuple(p).Key(positions), true
		})
	})
	best := -1
	for _, g := range s.idx {
		if l, ok := g.lookup[relation.Tuple(xvals).Key(g.positions)]; ok && (best == -1 || l < best) {
			best = l
		}
	}
	return best
}

// maskGroups builds the σ index: one group per distinct wildcard mask,
// in first-seen order, each mapping key(p, positions) — an injective
// encoding of pattern p's constants at the mask's positions — to the
// smallest pattern index carrying it. A pattern whose key reports false
// can match nothing the caller will probe with and is left out.
func (s *BlockSpec) maskGroups(key func(p []string, positions []int) (string, bool)) []maskGroup {
	var out []maskGroup
	at := map[string]int{} // wildcard mask → position in out
	var mk []byte
	for l, p := range s.Patterns {
		var positions []int
		mk = mk[:0]
		for i, v := range p {
			if v != cfd.Wildcard {
				positions = append(positions, i)
				mk = binary.AppendUvarint(mk, uint64(i))
			}
		}
		k, ok := key(p, positions)
		if !ok {
			continue
		}
		gi, seen := at[string(mk)]
		if !seen {
			gi = len(out)
			at[string(mk)] = gi
			out = append(out, maskGroup{positions: positions, lookup: map[string]int{}})
		}
		if _, dup := out[gi].lookup[k]; !dup {
			out[gi].lookup[k] = l // patterns are sorted: first wins
		}
	}
	return out
}

// AssignAll computes σ for every tuple of frag, returning the block
// index per tuple (-1 = unmatched) and the per-block counts lstat[l].
// It runs single-pass on frag's dictionary-encoded columns: the
// tableau's constants are pre-encoded into each mask group's lookup
// once per call, so routing a tuple is a handful of integer map probes
// with no per-tuple string or buffer copies. Semantics are identical to
// calling Assign on every X-projection. A site routes its fragment
// through it, one ProjectBlocks batch of X at a time (Site.route).
func (s *BlockSpec) AssignAll(frag *relation.Relation) ([]int, []int, error) {
	xi, err := frag.Schema().Indices(s.X)
	if err != nil {
		return nil, nil, err
	}
	e := frag.Encoded()
	assign := make([]int, e.Rows())
	counts := make([]int, s.K())
	cols := make([][]uint32, len(xi))
	dicts := make([]*relation.Dict, len(xi))
	for j, c := range xi {
		cols[j], dicts[j] = e.Column(c)
	}
	// The index is keyed by the packed column IDs of each pattern's
	// constants in frag's dictionaries (aligned with s.X); a pattern
	// with a constant they never interned cannot match any tuple.
	egs := s.maskGroups(func(p []string, positions []int) (string, bool) {
		kb := make([]byte, 0, 4*len(positions))
		for _, i := range positions {
			id, ok := dicts[i].Lookup(p[i])
			if !ok {
				return "", false
			}
			kb = binary.LittleEndian.AppendUint32(kb, id)
		}
		return string(kb), true
	})
	var kb []byte
	for i := range assign {
		best := -1
		for _, g := range egs {
			kb = kb[:0]
			for _, p := range g.positions {
				kb = binary.LittleEndian.AppendUint32(kb, cols[p][i])
			}
			if l, ok := g.lookup[string(kb)]; ok && (best == -1 || l < best) {
				best = l
			}
		}
		assign[i] = best
		if best >= 0 {
			counts[best]++
		}
	}
	return assign, counts, nil
}

// PatternPredicate builds Fφ for pattern l: the conjunction of
// X_j = constant over the pattern's constant entries, used for the
// Fi ∧ Fφ pruning of Section IV-A.
func (s *BlockSpec) PatternPredicate(l int) relation.Predicate {
	var atoms []relation.Atom
	for j, v := range s.Patterns[l] {
		if v != cfd.Wildcard {
			atoms = append(atoms, relation.Eq(s.X[j], v))
		}
	}
	return relation.And(atoms...)
}

// Restrict returns the Lemma 6 restriction of each CFD of cfds to each
// block of s — for single, cluster and mined specs alike: in(ci, l) is
// cfds[ci] keeping every tableau row whose LHS agrees with pattern l
// wherever both name a constant on X (no tuple of the block can match
// another row), or nil when no row is left. A result shares its CFD's
// slices and rows, and is the CFD itself when every row is kept. The
// CFDs must be well formed (cfd.CFD.Validate).
func (s *BlockSpec) Restrict(cfds []*cfd.CFD) (in func(ci, l int) *cfd.CFD, err error) {
	pos := make([][]int, len(cfds))
	for ci, c := range cfds {
		if pos[ci] = lhsPositions(s.X, c); slices.Contains(pos[ci], -1) {
			return nil, fmt.Errorf("core: cfd %s: LHS %v does not cover the block spec's X %v", c.Name, c.X, s.X)
		}
	}
	return func(ci, l int) *cfd.CFD {
		c := cfds[ci]
		var rows []cfd.PatternTuple
	row:
		for _, tp := range c.Tp {
			for i, v := range s.Patterns[l] {
				if w := tp.LHS[pos[ci][i]]; v != cfd.Wildcard && w != cfd.Wildcard && v != w {
					continue row
				}
			}
			rows = append(rows, tp)
		}
		switch len(rows) {
		case 0:
			return nil
		case len(c.Tp):
			return c
		}
		return &cfd.CFD{Name: c.Name, X: c.X, Y: c.Y, Tp: rows}
	}, nil
}
