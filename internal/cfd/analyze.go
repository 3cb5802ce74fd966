package cfd

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"distcfd/internal/relation"
)

// Static analysis of a CFD set Σ (Fan et al., TODS 2008, via the chase
// in implication.go): consistency with a concrete witness, implied
// (redundant) units, an irreducible cover, and duplicate CFDs that are
// identical up to their name. The report is advisory except for the
// witness — core.CompileSet fails fast on an inconsistent Σ and prunes
// the duplicate groups when asked to (Options.Sigma).

// Witness explains why Σ is inconsistent: the single-tuple chase
// forced one attribute to two distinct constants. Any non-empty
// instance must violate some member of Σ.
type Witness struct {
	// Attr is the attribute forced to two distinct constants.
	Attr string
	// Values are the two constants.
	Values [2]string
	// Trigger is the normalized unit whose application derived the
	// contradiction (the other constant was already forced by the
	// rest of the chase).
	Trigger *Normalized
	// Tableau is the final chase state — the witness tableau; its
	// bindings show every value Σ forces onto the free tuple.
	Tableau *Tableau
}

// String renders the witness, including the forced bindings of the
// witness tableau.
func (w *Witness) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "attribute %q is forced to both %q and %q", w.Attr, w.Values[0], w.Values[1])
	if w.Trigger != nil {
		fmt.Fprintf(&b, " (last applied: %s from %s)", w.Trigger, displayParent(w.Trigger.Parent))
	}
	if w.Tableau != nil {
		if s := describeBindings(w.Tableau, 0); s != "" {
			fmt.Fprintf(&b, "; chase forces {%s}", s)
		}
	}
	return b.String()
}

func displayParent(name string) string {
	if name == "" {
		return "an unnamed CFD"
	}
	return name
}

// describeBindings renders the bound cells of tuple t, sorted by
// attribute.
func describeBindings(tb *Tableau, t int) string {
	var parts []string
	for _, a := range tb.Attrs() {
		if v, ok := tb.Binding(t, a); ok {
			parts = append(parts, fmt.Sprintf("%s: %q", a, v))
		}
	}
	return strings.Join(parts, ", ")
}

// InconsistentError is the witness-bearing error Compile returns for
// an inconsistent Σ.
type InconsistentError struct {
	Witness *Witness
}

func (e *InconsistentError) Error() string {
	return "cfd: inconsistent Σ: " + e.Witness.String()
}

// SigmaReport is the result of AnalyzeSigma over a CFD set.
type SigmaReport struct {
	// Units is the deduplicated normalized form of Σ.
	Units []*Normalized
	// Witness is non-nil iff Σ is inconsistent; the implication
	// analyses below are skipped then (an inconsistent Σ vacuously
	// implies everything).
	Witness *Witness
	// Implied indexes Units that the remaining units imply — checking
	// them can never find a violation the rest would miss on a
	// Σ-satisfying instance. Advisory: a violating instance can still
	// violate an implied unit, so detection keeps them.
	Implied []int
	// Cover indexes an irreducible subset of Units implying all of
	// Units (a greedy minimal cover, first-kept order).
	Cover []int
	// Duplicates groups input CFD indices that are identical up to
	// their Name (same X, Y, and pattern tableau, verbatim). Each
	// group has ≥ 2 members and is sorted; the members are
	// violation-equivalent, so all but one can be deleted from Σ.
	Duplicates [][]int
}

// Consistent reports whether Σ has a satisfying non-empty instance.
func (r *SigmaReport) Consistent() bool { return r.Witness == nil }

// String renders the report in the cfddetect -lint form.
func (r *SigmaReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Σ: %d normalized unit(s)\n", len(r.Units))
	if r.Witness != nil {
		fmt.Fprintf(&b, "INCONSISTENT: %s\n", r.Witness)
		return b.String()
	}
	b.WriteString("consistent\n")
	for _, gi := range r.Duplicates {
		names := make([]string, len(gi))
		for j, i := range gi {
			names[j] = fmt.Sprintf("#%d", i)
		}
		fmt.Fprintf(&b, "duplicate CFDs (identical up to name): %s\n", strings.Join(names, " = "))
	}
	for _, i := range r.Implied {
		fmt.Fprintf(&b, "implied unit: %s (from %s) — the rest of Σ already enforces it\n",
			r.Units[i], displayParent(r.Units[i].Parent))
	}
	if len(r.Cover) < len(r.Units) {
		fmt.Fprintf(&b, "irreducible cover: %d of %d unit(s)\n", len(r.Cover), len(r.Units))
	}
	return b.String()
}

// AnalyzeSigma runs the static analyses over a CFD set: consistency
// (with a witness on failure), implied units, an irreducible cover,
// and name-insensitive duplicate CFDs.
func AnalyzeSigma(cs []*CFD) *SigmaReport {
	r := &SigmaReport{
		Units:      NormalizeSet(cs),
		Duplicates: duplicateGroups(cs),
	}
	if w := InconsistencyWitness(r.Units); w != nil {
		r.Witness = w
		return r
	}
	// Implied units: Σ\{u} ⊨ u.
	rest := make([]*Normalized, 0, len(r.Units))
	for i, u := range r.Units {
		rest = rest[:0]
		rest = append(rest, r.Units[:i]...)
		rest = append(rest, r.Units[i+1:]...)
		if Implies(rest, u) {
			r.Implied = append(r.Implied, i)
		}
	}
	// Greedy irreducible cover: drop each unit in turn iff the units
	// still kept (plus those not yet visited) imply it. The result
	// implies every dropped unit and no kept unit is redundant
	// against the final cover.
	keep := make([]bool, len(r.Units))
	for i := range keep {
		keep[i] = true
	}
	for i := range r.Units {
		keep[i] = false
		rest = rest[:0]
		for j, u := range r.Units {
			if keep[j] {
				rest = append(rest, u)
			}
		}
		if !Implies(rest, r.Units[i]) {
			keep[i] = true
		}
	}
	for i, k := range keep {
		if k {
			r.Cover = append(r.Cover, i)
		}
	}
	return r
}

// InconsistencyWitness chases Σ on the single free tuple and returns
// the contradiction witness, or nil when Σ is consistent: satisfiable
// by some non-empty instance. Under the infinite-domain assumption a
// single generic tuple suffices: values can always be chosen to avoid
// every LHS constant, so only rules whose LHS pattern is forced onto
// the free tuple (all-wildcard LHS chains) can conflict — exactly what
// the chase detects as a contradiction. (With finite domains CFD
// satisfiability is NP-complete, Fan et al. TODS 2008; out of scope
// here.) Detection over an inconsistent Σ is still well-defined —
// every matching tuple violates — but callers usually want to reject
// such rule sets upfront.
func InconsistencyWitness(sigma []*Normalized) *Witness {
	universe := NewAttrSet()
	for _, s := range sigma {
		universe.Add(s.X...)
		universe.Add(s.A)
	}
	if len(universe) == 0 {
		return nil
	}
	tb := NewTableau(universe.Sorted(), 1)
	if !tb.Chase(sigma) {
		return nil
	}
	attr, vals, _ := tb.Contradiction()
	return &Witness{Attr: attr, Values: vals, Trigger: tb.ContradictionUnit(), Tableau: tb}
}

// contentKey is an injective identity of a CFD up to its Name: the
// length-prefixed encoding of X, Y, and every pattern row verbatim.
// Row order matters — two CFDs with permuted tableaux compile to
// different σ block orders, so they are not accounting-equivalent.
func contentKey(c *CFD) string {
	var b []byte
	appList := func(vs []string) {
		b = binary.AppendUvarint(b, uint64(len(vs)))
		b = relation.AppendKey(b, vs...)
	}
	appList(c.X)
	appList(c.Y)
	b = binary.AppendUvarint(b, uint64(len(c.Tp)))
	for _, tp := range c.Tp {
		appList(tp.LHS)
		appList(tp.RHS)
	}
	return string(b)
}

// duplicateGroups groups CFD indices identical up to name, each group
// sorted, groups ordered by first member.
func duplicateGroups(cs []*CFD) [][]int {
	byKey := map[string][]int{}
	var order []string
	for i, c := range cs {
		k := contentKey(c)
		if _, seen := byKey[k]; !seen {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	var out [][]int
	for _, k := range order {
		if g := byKey[k]; len(g) > 1 {
			sort.Ints(g)
			out = append(out, g)
		}
	}
	return out
}
