package main

import (
	"math/rand"
	"sort"
	"strconv"

	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// The incremental workload's traffic has the shape of
// workload.CustDeltaStream — seeded, CUST-distributed rows, an update
// keeps its id, inserted ids start in a high range — but that stream
// mirrors its fragment through relation.Apply, which copies the whole
// tuple slice on every delta with a delete: O(|Di|) per step, seconds
// per set-up at these sizes. Here the mirror is a plain tuple slice
// swapped in place, so a round costs O(|ΔD|).

// applyDelta replays d on a tuple slice exactly as relation.Apply and
// the store-backed fragment do — deletes in descending index order,
// each filled by the last row, then the inserts appended — so a row
// index means the same tuple here as at the site.
func applyDelta(ts []relation.Tuple, d relation.Delta) []relation.Tuple {
	del := append([]int(nil), d.Deletes...)
	sort.Sort(sort.Reverse(sort.IntSlice(del)))
	for _, di := range del {
		last := len(ts) - 1
		ts[di] = ts[last]
		ts = ts[:last]
	}
	return append(ts, d.Inserts...)
}

// generateRounds pre-generates every round's deltas during set-up:
// 0.1 % of |D| changes per round over all sites — half inserts, a
// quarter updates, a quarter deletes — with errors injected into 5 %
// of the written rows.
func (e *env) generateRounds(rounds int) error {
	perSite := max(e.n/1000/numSites, 2)
	inserts, updates, deletes := max(perSite/2, 1), perSite/4, perSite/4
	e.changed = numSites * (inserts + updates + deletes)

	fresh := make([]relation.Tuple, 0, rounds*numSites*(inserts+updates))
	cfg := workload.CustConfig{N: cap(fresh), Seed: e.seed + 1, ErrRate: 0.05}
	if err := workload.CustStream(cfg, func(t relation.Tuple) error {
		fresh = append(fresh, t)
		return nil
	}); err != nil {
		return err
	}

	gen := make([][]relation.Tuple, numSites)
	for i, frag := range e.frags {
		gen[i] = append([]relation.Tuple(nil), frag.Tuples()...)
	}
	rng := rand.New(rand.NewSource(e.seed))
	nextID := 1 << 30 // clear of the bulk generator's ids
	e.rounds = make([][]relation.Delta, rounds)
	for r := range e.rounds {
		e.rounds[r] = make([]relation.Delta, numSites)
		for i := range gen {
			var d relation.Delta
			picked := make(map[int]bool, deletes+updates)
			for len(picked) < deletes+updates {
				idx := rng.Intn(len(gen[i]))
				if picked[idx] {
					continue
				}
				picked[idx] = true
				d.Deletes = append(d.Deletes, idx)
				if len(d.Inserts) < updates {
					t := fresh[len(fresh)-1]
					fresh = fresh[:len(fresh)-1]
					t[0] = gen[i][idx][0] // an update keeps its identity
					d.Inserts = append(d.Inserts, t)
				}
			}
			for k := 0; k < inserts; k++ {
				t := fresh[len(fresh)-1]
				fresh = fresh[:len(fresh)-1]
				t[0] = strconv.Itoa(nextID)
				nextID++
				d.Inserts = append(d.Inserts, t)
			}
			gen[i] = applyDelta(gen[i], d)
			e.rounds[r][i] = d
		}
	}
	return nil
}
