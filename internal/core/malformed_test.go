package core

import (
	"context"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/relation"
)

// A site serves arguments it did not build: a BlockSpec, a CFD and a
// block list arrive off the wire, and net/rpc does not recover handler
// panics, so one malformed argument must be an error, never a dead
// serving process.

// argsSite is the six-row in-memory site the malformed-argument tests
// and FuzzSiteArgs drive. Its fragment predicate (every row satisfies
// it) reads column c, so ApplyDelta evaluates it on every insert.
func argsSite() *Site {
	s := relation.MustSchema("T", []string{"id", "a", "b", "c"}, "id")
	frag := relation.MustFromRows(s,
		[]string{"1", "x", "p", "m"},
		[]string{"2", "x", "q", "m"},
		[]string{"3", "y", "p", "n"},
		[]string{"4", "y", "p", "m"},
		[]string{"5", "_", "x", "y"},
		[]string{"6", "p", "_", "n"},
	)
	return NewSite(0, frag, relation.And(relation.Ne("c", "zz")))
}

// longLHS is a CFD whose pattern carries more LHS values than X has
// attributes.
var longLHS = &cfd.CFD{Name: "long", X: []string{"a"}, Y: []string{"c"},
	Tp: []cfd.PatternTuple{{LHS: []string{"x", "p"}, RHS: []string{"m"}}}}

// TestSiteRejectsMalformedArgs pins each crasher as a plain error: not
// transient (a retry would only resend it) and not stale (a reseed
// would too).
func TestSiteRejectsMalformedArgs(t *testing.T) {
	ctx := context.Background()
	spec, err := NewBlockSpec([]string{"a"}, [][]string{{"x"}, {"y"}})
	if err != nil {
		t.Fatal(err)
	}
	fd := cfd.MustParse(`f: [a] -> [b] : (x || _), (y || _)`)
	// foldShipped seeds a fold of block 0 (projection [a, b]) that ships
	// one row as block l over attrs. A rejected fold must not have
	// touched the site's sessions.
	foldShipped := func(s *Site, l int, attrs []string) error {
		r := relation.MustFromRows(relation.MustSchema("T_ship", attrs), []string{"x", "p"})
		_, err := s.FoldDetect(ctx, FoldArgs{Session: "s", Spec: spec, Blocks: []int{0}, CFDs: []*cfd.CFD{fd}, Seed: true,
			Shipped: []*DeltaBlocks{{Ins: map[int]*relation.Relation{l: r}}}})
		if n := s.FoldSessions(); err != nil && n != 0 {
			t.Errorf("the rejected fold left %d sessions", n)
		}
		return err
	}
	for _, tc := range []struct {
		name string
		call func(*Site) error
	}{
		{"sigma-stats-pattern-longer-than-X", func(s *Site) error {
			_, err := s.SigmaStats(ctx, &BlockSpec{X: []string{"a"}, Patterns: [][]string{{"x", "p"}}})
			return err
		}},
		{"constants-lhs-longer-than-X", func(s *Site) error {
			_, err := s.DetectConstantsLocal(ctx, longLHS)
			return err
		}},
		{"seed-fold-lhs-longer-than-X", func(s *Site) error {
			_, err := s.FoldDetect(ctx, FoldArgs{Session: "s", Spec: spec, Blocks: []int{0}, CFDs: []*cfd.CFD{longLHS}, Seed: true})
			return err
		}},
		{"fold-restricted-block-out-of-range", func(s *Site) error {
			args := FoldArgs{Session: "s", Spec: spec, Blocks: []int{0}, CFDs: []*cfd.CFD{fd}, RestrictSingle: true, Seed: true}
			if _, err := s.FoldDetect(ctx, args); err != nil {
				t.Fatalf("seeding a well-formed session: %v", err)
			}
			args.Seed, args.Blocks = false, []int{spec.K()}
			_, err := s.FoldDetect(ctx, args)
			return err
		}},
		{"fold-shipped-block-not-folded", func(s *Site) error {
			return foldShipped(s, 1, []string{"a", "b"})
		}},
		{"fold-shipped-attrs-reordered", func(s *Site) error {
			return foldShipped(s, 0, []string{"b", "a"})
		}},
		{"apply-delta-short-insert", func(s *Site) error {
			_, err := s.ApplyDelta(ctx, relation.Delta{Inserts: []relation.Tuple{{"x"}}}, "")
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call(argsSite())
			if err == nil {
				t.Fatal("malformed argument accepted")
			}
			if isTransient(err) || IsStaleIncremental(err) {
				t.Fatalf("want a plain error, got %v", err)
			}
		})
	}
	// Control: the same row shipped as block 0 over [a, b] folds.
	if err := foldShipped(argsSite(), 0, []string{"a", "b"}); err != nil {
		t.Fatalf("a well-formed shipped block was rejected: %v", err)
	}
}

// fuzzArgs reads a FuzzSiteArgs input a byte at a time; past the end
// every read is 0.
type fuzzArgs []byte

func (b *fuzzArgs) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// strings draws up to maxLen values from vocab.
func (b *fuzzArgs) strings(maxLen int, vocab []string) []string {
	out := make([]string, b.next(maxLen+1))
	for i := range out {
		out[i] = vocab[b.next(len(vocab))]
	}
	return out
}

var (
	fuzzAttrs  = []string{"a", "b", "c", "id", "zz"}
	fuzzValues = []string{"x", "y", "p", "m", cfd.Wildcard}
)

// FuzzSiteArgs decodes bytes into a BlockSpec over the site's schema (1–3
// patterns of arity 0–4), a CFD of arbitrary X/Y/tableau arity, a
// block list, a delta (inserts of arity 0–5, delete indices in
// [-2, 10)) and a shipped delta block (0–3 rows over 0–4 attributes),
// and drives every site call that takes them. Nothing may panic, and no
// call may leave a deposit buffered. The first five seeds are the
// crashers of TestSiteRejectsMalformedArgs.
func FuzzSiteArgs(f *testing.F) {
	// Byte layout: |X|, X…, #patterns−1, (arity, values…)…, |cfd.X|,
	// X…, |cfd.Y|, Y…, #rows, (|LHS|, LHS…, |RHS|, RHS…)…, #blocks,
	// blocks+2…, restrict, #inserts, (arity, values…)…, #deletes,
	// deletes+2…, |ship attrs|, attrs…, #ship rows, ship block+2,
	// inserts-or-deletes, row values…. Every seed's spec X is [a].
	f.Add([]byte{1, 0, 0, 2, 0, 2, 1, 0, 1, 1, 1, 1, 0, 1, 4, 1, 2, 0})                // spec pattern (x, p): SigmaStats
	f.Add([]byte{1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 2, 1, 2, 0, 2, 1, 3, 1, 2, 0})          // (x, p ‖ m): DetectConstantsLocal
	f.Add([]byte{1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 2, 0, 2, 1, 4, 1, 2, 0})          // (x, p ‖ _): the seeding FoldDetect
	f.Add([]byte{1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 2, 1, 0, 1, 4, 1, 1, 1, 4, 1, 4, 1}) // block K, restricted: the non-seed FoldDetect
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0})                                  // insert (x): ApplyDelta
	// [a] -> [b] over blocks (x), (y), shipping (x, p), (y, m) as block 0
	// over [a, b] (folded), then over [b, a] (rejected).
	f.Add([]byte{1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 4, 1, 4, 1, 2, 0, 0, 0, 2, 0, 1, 2, 2, 0, 0, 2, 1, 3})
	f.Add([]byte{1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 4, 1, 4, 1, 2, 0, 0, 0, 2, 1, 0, 2, 2, 0, 0, 2, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzArgs(data)
		spec := &BlockSpec{X: b.strings(4, fuzzAttrs)}
		for n := 1 + b.next(3); n > 0; n-- {
			spec.Patterns = append(spec.Patterns, b.strings(4, fuzzValues))
		}
		c := &cfd.CFD{Name: "fz", X: b.strings(3, fuzzAttrs), Y: b.strings(2, fuzzAttrs)}
		for n := b.next(3); n > 0; n-- {
			c.Tp = append(c.Tp, cfd.PatternTuple{LHS: b.strings(3, fuzzValues), RHS: b.strings(2, fuzzValues)})
		}
		blocks := make([]int, b.next(4))
		for i := range blocks {
			blocks[i] = b.next(8) - 2
		}
		restrict := b.next(2) == 1
		var d relation.Delta
		for n := b.next(4); n > 0; n-- {
			d.Inserts = append(d.Inserts, b.strings(5, fuzzValues))
		}
		for n := b.next(4); n > 0; n-- {
			d.Deletes = append(d.Deletes, b.next(12)-2)
		}
		shipAttrs, shipRows, shipBlock, shipDel := b.strings(4, fuzzAttrs), b.next(4), b.next(8)-2, b.next(2) == 1
		var shipped []*DeltaBlocks
		if ss, err := relation.NewSchema("T_ship", shipAttrs); err == nil {
			r := relation.New(ss)
			for ; shipRows > 0; shipRows-- {
				row := make(relation.Tuple, len(shipAttrs))
				for k := range row {
					row[k] = fuzzValues[b.next(len(fuzzValues))]
				}
				r.MustAppend(row)
			}
			db := &DeltaBlocks{Ins: map[int]*relation.Relation{shipBlock: r}}
			if shipDel {
				db = &DeltaBlocks{Del: map[int]*relation.Relation{shipBlock: r}}
			}
			shipped = []*DeltaBlocks{db}
		}
		attrs := append(append([]string(nil), spec.X...), c.Y...)
		cfds := []*cfd.CFD{c}

		ctx := context.Background()
		s := argsSite()
		_, _ = s.SigmaStats(ctx, spec)
		_, _ = s.ExtractBlocksBatch(ctx, spec, attrs, blocks)
		_, _ = s.DetectAssignedSingle(ctx, "t", spec, blocks, c)
		_, _ = s.DetectAssignedSet(ctx, "t", spec, blocks, cfds)
		_, _ = s.DetectConstantsLocal(ctx, c)
		// An extract the site serves carries one count per block, and a
		// fold one pattern change set per CFD each way: the shapes the
		// driver refuses otherwise.
		extract := func(fromGen int64) {
			if db, err := s.ExtractDeltaBlocks(ctx, spec, attrs, blocks, fromGen); err == nil && len(db.Counts) != spec.K() {
				t.Fatalf("%d σ counts for %d blocks", len(db.Counts), spec.K())
			}
		}
		fold := func(args FoldArgs) {
			if rep, err := s.FoldDetect(ctx, args); err == nil && (len(rep.Added) != len(cfds) || len(rep.Removed) != len(cfds)) {
				t.Fatalf("%d/%d pattern sets for %d CFDs", len(rep.Added), len(rep.Removed), len(cfds))
			}
		}
		extract(-1)
		extract(0)
		args := FoldArgs{Session: "s", Spec: spec, Blocks: blocks, CFDs: cfds, RestrictSingle: restrict, Seed: true}
		fold(args)
		args.Seed = false
		fold(args)
		_, _ = s.ApplyDelta(ctx, d, "")
		extract(0)
		fold(args)
		args.Shipped = shipped
		fold(args)
		args.Seed = true
		fold(args)
		if n := s.PendingDeposits(); n != 0 {
			t.Fatalf("%d deposit tasks buffered", n)
		}
	})
}
