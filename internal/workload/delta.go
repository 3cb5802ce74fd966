package workload

import (
	"fmt"
	"math/rand"

	"distcfd/internal/relation"
)

// Seeded delta-stream generators: one source of continuously arriving
// changes shared by the benchmarks, the experiment harness, and the
// incremental-detection property tests, so every ΔD figure and test
// exercises the same traffic shape. A stream mirrors its fragment
// (applying every delta it emits), which keeps the emitted delete
// indices valid for whoever applies the same deltas in the same order.

// DeltaConfig parameterizes one stream.
type DeltaConfig struct {
	// Seed makes the stream deterministic.
	Seed int64
	// Inserts, Updates, Deletes set the per-step mix. An update is a
	// delete of a random live row plus an insert of a modified version
	// (same id, fresh attribute draw).
	Inserts, Updates, Deletes int
	// ErrRate is the fraction of inserted/updated rows with an injected
	// error (default 0.02 when zero) — the knob that makes incremental
	// detection find (and un-find) something.
	ErrRate float64
}

// DeltaStream emits a deterministic sequence of deltas against one
// fragment. Not safe for concurrent use.
type DeltaStream struct {
	rng    *rand.Rand
	cfg    DeltaConfig
	mirror *relation.Relation
	row    func(rng *rand.Rand, id int) relation.Tuple
	nextID int
	idCol  int
}

func newDeltaStream(frag *relation.Relation, cfg DeltaConfig, startID int,
	row func(rng *rand.Rand, id int) relation.Tuple) *DeltaStream {
	if cfg.ErrRate == 0 {
		cfg.ErrRate = 0.02
	}
	return &DeltaStream{
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		cfg:    cfg,
		mirror: frag.Clone(),
		row:    row,
		nextID: startID,
	}
}

// CustDeltaStream streams CUST-shaped traffic against a CUST fragment.
// Inserted ids start in a high range so they never collide with the
// bulk generator's.
func CustDeltaStream(frag *relation.Relation, cfg DeltaConfig) *DeltaStream {
	ds := newDeltaStream(frag, cfg, 1<<30, nil)
	ds.row = func(rng *rand.Rand, id int) relation.Tuple {
		return custRow(rng, id, ds.cfg.ErrRate)
	}
	return ds
}

// XRefDeltaStream streams XREF-shaped traffic against an XREF
// fragment, drawing organisms from the default trio.
func XRefDeltaStream(frag *relation.Relation, cfg DeltaConfig) *DeltaStream {
	organisms := []string{"cow", "dog", "zebrafish"}
	ds := newDeltaStream(frag, cfg, 1<<30, nil)
	ds.row = func(rng *rand.Rand, id int) relation.Tuple {
		return xrefRow(rng, id, ds.cfg.ErrRate, organisms)
	}
	return ds
}

// Next emits the next delta of the stream and folds it into the
// mirror. The returned delta's delete indices address the fragment as
// it stood before this call — apply deltas in emission order.
func (ds *DeltaStream) Next() relation.Delta {
	var d relation.Delta
	n := ds.mirror.Len()
	picked := make(map[int]bool)
	pick := func() (int, bool) {
		if len(picked) >= n {
			return 0, false
		}
		for {
			i := ds.rng.Intn(n)
			if !picked[i] {
				picked[i] = true
				return i, true
			}
		}
	}
	for k := 0; k < ds.cfg.Deletes; k++ {
		if i, ok := pick(); ok {
			d.Deletes = append(d.Deletes, i)
		}
	}
	for k := 0; k < ds.cfg.Updates; k++ {
		i, ok := pick()
		if !ok {
			break
		}
		d.Deletes = append(d.Deletes, i)
		old := ds.mirror.Tuple(i)
		fresh := ds.row(ds.rng, 0)
		fresh[ds.idCol] = old[ds.idCol] // an update keeps its identity
		d.Inserts = append(d.Inserts, fresh)
	}
	for k := 0; k < ds.cfg.Inserts; k++ {
		d.Inserts = append(d.Inserts, ds.row(ds.rng, ds.nextID))
		ds.nextID++
	}
	if _, err := ds.mirror.Apply(d); err != nil {
		// The stream constructs only valid deltas; a failure here is a
		// generator bug, not a data condition.
		panic(fmt.Sprintf("workload: delta stream self-application failed: %v", err))
	}
	return d
}

// SplitStreams builds one stream per fragment of a horizontal
// partition, offsetting seeds so the streams differ.
func SplitStreams(frags []*relation.Relation, cfg DeltaConfig,
	mk func(frag *relation.Relation, cfg DeltaConfig) *DeltaStream) []*DeltaStream {
	out := make([]*DeltaStream, len(frags))
	for i, f := range frags {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*7919
		out[i] = mk(f, c)
	}
	return out
}
