package engine

import (
	"bytes"
	"fmt"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/relation"
)

// FuzzKernel feeds random schemas, tuples, and CFDs — wildcard/
// constant mixes, tableaux of up to 8 rows over up to 2 RHS
// attributes, and values containing (or adjacent to)
// the historical \x1f separator — through the kernel over every kind of
// column source at several worker counts (checkAllSources), and
// cross-checks every draw against the row-oriented string-key reference
// path (DetectRows), the naive oracle, and a value-exact pattern
// oracle. The seed corpus under
// testdata/fuzz/FuzzKernel is checked in, so every `go test` run
// replays it deterministically.
func FuzzKernel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{2, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0, 1, 2})
	f.Add(bytes.Repeat([]byte{5, 6, 7, 8}, 24))
	f.Add([]byte("\x01\x10\x05\x05\x06\x06\x05\x07\x06\x08\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09"))
	f.Add([]byte("schema soup \x1f wildcards _ and constants 44"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, c := decodeFuzzCase(data)
		if d == nil {
			t.Skip()
		}
		checkAllSources(t, d, c)
	})
}

// fuzzPalette is the value domain of fuzz-built relations and pattern
// constants: empty strings, multi-byte values, and \x1f-adjacent bytes
// that used to collide separator-joined keys. cfd.Wildcard ("_") is
// deliberately present — as a data value it is an ordinary string, and
// a pattern drawing it simply becomes a wildcard.
var fuzzPalette = []string{"", "a", "b", "c", "44", "\x1f", "a\x1fb", "b\x1f", "\x1fa", "_"}

// decodeFuzzCase deterministically builds a relation and a CFD from
// raw fuzz bytes; exhausted input wraps around (empty input reads
// zeros), so every byte string decodes to some case.
func decodeFuzzCase(data []byte) (*relation.Relation, *cfd.CFD) {
	pos := 0
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[pos%len(data)]
		pos++
		return int(b)
	}

	arity := 2 + next()%3
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("c%d", i)
	}
	s, err := relation.NewSchema("F", attrs)
	if err != nil {
		return nil, nil
	}
	d := relation.New(s)
	for rows := next() % 40; rows > 0; rows-- {
		row := make(relation.Tuple, arity)
		for j := range row {
			row[j] = fuzzPalette[next()%len(fuzzPalette)]
		}
		d.MustAppend(row)
	}

	// X = a rotation prefix of the attributes, Y = the next one or
	// two, so X is duplicate-free and disjoint from Y by construction.
	rot := next() % arity
	perm := make([]string, arity)
	for i := range perm {
		perm[i] = attrs[(rot+i)%arity]
	}
	xlen := 1 + next()%(arity-1)
	ylen := min(1+next()%2, arity-xlen)
	x := perm[:xlen]
	y := perm[xlen : xlen+ylen]
	ntp := 1 + next()%8
	tps := make([]cfd.PatternTuple, ntp)
	for i := range tps {
		lhs := make([]string, xlen)
		for j := range lhs {
			if b := next(); b%3 == 0 {
				lhs[j] = cfd.Wildcard
			} else {
				lhs[j] = fuzzPalette[b%len(fuzzPalette)]
			}
		}
		rhs := make([]string, ylen)
		for k := range rhs {
			if b := next(); b%2 == 0 {
				rhs[k] = cfd.Wildcard
			} else {
				rhs[k] = fuzzPalette[b%len(fuzzPalette)]
			}
		}
		tps[i] = cfd.PatternTuple{LHS: lhs, RHS: rhs}
	}
	c, err := cfd.New("fuzz", x, y, tps)
	if err != nil {
		return nil, nil
	}
	return d, c
}
