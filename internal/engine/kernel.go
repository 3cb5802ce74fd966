package engine

import (
	"sync"

	"distcfd/internal/cfd"
	"distcfd/internal/relation"
)

// Kernel is the serving form of the detection kernel: a scratch pool
// shared by any number of concurrent DetectSet/DetectSetReader/
// ViolationPatterns calls, so a long-lived caller (a core.Site, which
// owns one for every check it runs) stops reallocating the
// per-call buffers — group-ID vectors, group states, fold tables and
// the violation bitset. The zero value is ready to
// use. Scratches returned to the pool are shrunk past a retention
// bound, so one huge unit cannot inflate the pool forever.
type Kernel struct {
	pool sync.Pool
}

// defaultKernel serves the package-level ViolationPatterns.
var defaultKernel Kernel

// Opts tune one kernel call.
type Opts struct {
	// Workers shards the per-row loops of each unit across this many
	// goroutines (the intra-unit parallelism of one check), whatever the
	// column source. ≤ 1 runs serially. Results are byte-identical at
	// every setting; small inputs fall back to fewer shards so the
	// fan-out never costs more than it saves.
	Workers int
}

// check is the one place a scratch leaves and re-enters the pool: it
// marks Vio(Σ, r) in a pooled scratch, hands the scratch to read and
// puts it back however run or read end. What read returns must not
// alias the scratch.
func (k *Kernel) check(r relation.ColumnReader, schema *relation.Schema, cs []*cfd.CFD, o Opts, read func(*detectScratch) error) error {
	sc, ok := k.pool.Get().(*detectScratch)
	if !ok {
		sc = &detectScratch{}
	}
	defer func() {
		sc.release()
		sc.shrink()
		k.pool.Put(sc)
	}()
	if err := sc.run(r, schema, cs, o); err != nil {
		return err
	}
	return read(sc)
}

// DetectSet returns Vio(Σ, d) as sorted tuple indices. A relation whose
// rows live as a packed payload (see relation.FromPackedReader) has
// each column a unit reads decoded once, where a corrupt chunk is an
// error; its tuples never materialize.
func (k *Kernel) DetectSet(d *relation.Relation, cs []*cfd.CFD, o Opts) ([]int, error) {
	return k.detect(storage(d), d.Schema(), cs, o)
}

// DetectSetReader returns Vio(Σ, r) as sorted row indices for any
// source of dictionary-encoded columns — a colstore fragment on disk,
// a packed payload — serially, decoding only the columns its units read
// and never materializing tuples.
func (k *Kernel) DetectSetReader(r relation.ColumnReader, schema *relation.Schema, cs []*cfd.CFD) ([]int, error) {
	return k.detect(r, schema, cs, Opts{})
}

func (k *Kernel) detect(r relation.ColumnReader, schema *relation.Schema, cs []*cfd.CFD, o Opts) (rows []int, err error) {
	err = k.check(r, schema, cs, o, func(sc *detectScratch) error {
		rows = sc.violations()
		return nil
	})
	return rows, err
}

// ViolationPatterns returns the distinct violating X-patterns of φ in
// d as bare X-tuples (no null padding), in ascending order of their
// first violating row — the coordinator-side check primitive and the
// compact form coordinators ship back.
func (k *Kernel) ViolationPatterns(d *relation.Relation, c *cfd.CFD, o Opts) (pats *relation.Relation, err error) {
	err = k.check(storage(d), d.Schema(), []*cfd.CFD{c}, o, func(sc *detectScratch) (err error) {
		pats, err = sc.violationPatterns(d.Schema(), c)
		return err
	})
	return pats, err
}

// ViolationPatterns is Kernel.ViolationPatterns on a shared default
// kernel, serial.
func ViolationPatterns(d *relation.Relation, c *cfd.CFD) (*relation.Relation, error) {
	return defaultKernel.ViolationPatterns(d, c, Opts{})
}
