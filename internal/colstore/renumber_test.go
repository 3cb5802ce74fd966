package colstore

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"distcfd/internal/relation"
)

// sharedVals returns n distinct short values sliced out of one string,
// the way a decoded values section holds them.
func sharedVals(n int) []string {
	var buf []byte
	ends := make([]int, n)
	for i := range ends {
		buf = strconv.AppendInt(append(buf, 'v'), int64(i), 10)
		ends[i] = len(buf)
	}
	s, out, lo := string(buf), make([]string, n), 0
	for i, hi := range ends {
		out[i], lo = s[lo:hi], hi
	}
	return out
}

// BenchmarkRenumber prices the one renumbering every caller shares —
// PackColumns, CompactColumns, PayloadSizes and Merge.Concat's
// translation onto another dictionary — on one DefaultChunkRows-row
// column whose IDs draw from k distinct values of a 10⁶-value shared
// dictionary (a σ-block extract of a large fragment), and on a column
// whose dictionary holds exactly its values. Concat merges the column
// after a one-row part over an overlay of its dictionary, so every
// distinct value is translated by a Lookup there.
func BenchmarkRenumber(b *testing.B) {
	const rows, dictVals = DefaultChunkRows, 1_000_000
	shared, err := relation.NewDictFromVals(sharedVals(dictVals))
	if err != nil {
		b.Fatal(err)
	}
	schema := relation.MustSchema("R", []string{"a"})
	type input struct {
		name string
		rel  *relation.Relation
	}
	var inputs []input
	for _, k := range []int{2, 100, 5000, 200000} {
		rng := rand.New(rand.NewSource(int64(k)))
		pool := make([]uint32, k)
		for i := range pool {
			pool[i] = uint32(rng.Intn(dictVals))
		}
		col := make([]uint32, rows)
		for i := range col {
			col[i] = pool[rng.Intn(k)]
		}
		r := sharedColumns(b, schema, []*relation.Dict{shared}, [][]uint32{col}, rows)
		inputs = append(inputs, input{fmt.Sprintf("distinct=%d", k), r})
	}
	dense := relation.New(schema)
	rng := rand.New(rand.NewSource(1))
	for range rows {
		dense.MustAppend(relation.Tuple{"d" + strconv.Itoa(rng.Intn(100))})
	}
	inputs = append(inputs, input{"dense", dense})
	for _, in := range inputs {
		col, dict := in.rel.Encoded().Column(0)
		b.Run("PackColumns/"+in.name, func(b *testing.B) {
			for b.Loop() {
				if _, err := PackColumns([]*relation.Dict{dict}, [][]uint32{col}, rows); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("CompactColumns/"+in.name, func(b *testing.B) {
			for b.Loop() {
				in.rel.Encoded().CompactColumns()
			}
		})
		b.Run("PayloadSizes/"+in.name, func(b *testing.B) {
			for b.Loop() {
				in.rel.Encoded().PayloadSizes()
			}
		})
		over := relation.Chain(dict)
		base := sharedColumns(b, schema, []*relation.Dict{over}, [][]uint32{col[:1]}, 1)
		b.Run("Concat/"+in.name, func(b *testing.B) {
			var m relation.Merge
			for b.Loop() {
				if _, err := m.Concat(base, in.rel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
