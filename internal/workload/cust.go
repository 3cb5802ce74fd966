package workload

import (
	"fmt"
	"math/rand"

	"distcfd/internal/cfd"
	"distcfd/internal/relation"
)

// CUST reproduces the synthetic sales-records dataset of [2] used by
// Exp-1/2/3/5/6: customer phone/address attributes plus ordered-item
// attributes. Data is generated from per-(CC,AC) canonical cities and
// per-(CC,zip) canonical streets, with a controlled fraction of
// injected inconsistencies — the knob that makes the detection
// experiments find something.

// CustConfig parameterizes the generator.
type CustConfig struct {
	// N is the number of tuples.
	N int
	// Seed makes generation deterministic.
	Seed int64
	// ErrRate is the fraction of tuples with an injected error
	// (default 0.01 when zero).
	ErrRate float64
}

// CustSchema is the CUST relation schema.
func CustSchema() *relation.Schema {
	return relation.MustSchema("CUST",
		[]string{"id", "name", "CC", "AC", "phn", "street", "city", "zip", "title", "price", "qty"},
		"id")
}

// custCCs are the 16 country codes; with the 16 area codes each they
// give the 256 (CC, AC) combinations behind the up-to-255-pattern
// tableaux of Exp-3.
var custCCs = []string{
	"01", "31", "33", "34", "39", "41", "44", "45",
	"46", "47", "48", "49", "52", "55", "61", "81",
}

const custACsPerCC = 16

func custAC(cc string, i int) string     { return fmt.Sprintf("%s%02d", cc, i) }
func custCity(cc, ac string) string      { return "city_" + cc + "_" + ac }
func custZip(cc string, k int) string    { return fmt.Sprintf("zip_%s_%03d", cc, k) }
func custStreet(cc string, k int) string { return fmt.Sprintf("street_%s_%03d", cc, k) }

// Cust generates a CUST instance. Clean tuples satisfy:
//   - (CC, AC) determines city (the canonical city),
//   - (CC, zip) determines street (the canonical street),
//
// and errors flip a tuple's city or street away from the canonical
// value, producing CFD violations at rate ErrRate.
func Cust(cfg CustConfig) *relation.Relation {
	if cfg.ErrRate == 0 {
		cfg.ErrRate = 0.01
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rel := relation.NewWithCapacity(CustSchema(), cfg.N)
	for i := 0; i < cfg.N; i++ {
		rel.MustAppend(custRow(rng, i, cfg.ErrRate))
	}
	return rel
}

// custRow draws one CUST tuple with the given id; the delta-stream
// generator shares it with the bulk generator so appended traffic has
// the same distribution as the initial instance.
func custRow(rng *rand.Rand, id int, errRate float64) relation.Tuple {
	const zipsPerCC = 64
	cc := custCCs[rng.Intn(len(custCCs))]
	ac := custAC(cc, rng.Intn(custACsPerCC))
	zipK := rng.Intn(zipsPerCC)
	city := custCity(cc, ac)
	street := custStreet(cc, zipK)
	if rng.Float64() < errRate {
		if rng.Intn(2) == 0 {
			city = "WRONG_" + city
		} else {
			street = "WRONG_" + street
		}
	}
	title := fmt.Sprintf("item%02d", rng.Intn(20))
	return relation.Tuple{
		fmt.Sprintf("%d", id),
		fmt.Sprintf("name%05d", rng.Intn(50000)),
		cc,
		ac,
		fmt.Sprintf("%07d", rng.Intn(10000000)),
		street,
		city,
		custZip(cc, zipK),
		title,
		fmt.Sprintf("%d", 5+rng.Intn(500)),
		fmt.Sprintf("%d", 1+rng.Intn(9)),
	}
}

// CustPatternCFD builds the Exp-1/2/3 representative CFD: four
// attributes, up to 256 pattern tuples —
//
//	([CC, AC, zip] → [city], {(cc, ac, _ ‖ _), …})
//
// a variable CFD whose σ-partition has one block per (CC, AC). k
// selects the number of pattern tuples (the paper sweeps 50–255).
func CustPatternCFD(k int) *cfd.CFD {
	if k <= 0 || k > len(custCCs)*custACsPerCC {
		panic(fmt.Sprintf("workload: pattern count %d out of range", k))
	}
	var pats []cfd.PatternTuple
	for _, cc := range custCCs {
		for i := 0; i < custACsPerCC; i++ {
			if len(pats) == k {
				break
			}
			pats = append(pats, cfd.PatternTuple{
				LHS: []string{cc, custAC(cc, i), cfd.Wildcard},
				RHS: []string{cfd.Wildcard},
			})
		}
	}
	return cfd.MustNew(fmt.Sprintf("cust_k%d", k),
		[]string{"CC", "AC", "zip"}, []string{"city"}, pats)
}

// CustStreetCFD is the φ1-style rule ([CC, zip] → [street]) with one
// pattern per country code.
func CustStreetCFD() *cfd.CFD {
	var pats []cfd.PatternTuple
	for _, cc := range custCCs {
		pats = append(pats, cfd.PatternTuple{
			LHS: []string{cc, cfd.Wildcard},
			RHS: []string{cfd.Wildcard},
		})
	}
	return cfd.MustNew("cust_street", []string{"CC", "zip"}, []string{"street"}, pats)
}

// CustOverlappingCFDs returns the Exp-5/6 pair: the second CFD's LHS
// is a strict subset of the first's, so clustered compilation merges
// them into one unit.
func CustOverlappingCFDs(k1, k2 int) []*cfd.CFD {
	first := CustPatternCFD(k1)
	if k2 <= 0 || k2 > len(custCCs)*custACsPerCC {
		panic(fmt.Sprintf("workload: pattern count %d out of range", k2))
	}
	var pats []cfd.PatternTuple
	for _, cc := range custCCs {
		for i := 0; i < custACsPerCC; i++ {
			if len(pats) == k2 {
				break
			}
			pats = append(pats, cfd.PatternTuple{
				LHS: []string{cc, custAC(cc, i)},
				RHS: []string{cfd.Wildcard},
			})
		}
	}
	second := cfd.MustNew(fmt.Sprintf("cust2_k%d", k2),
		[]string{"CC", "AC"}, []string{"city"}, pats)
	return []*cfd.CFD{first, second}
}
