package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"distcfd/internal/colstore"
	"distcfd/internal/core"
	"distcfd/internal/engine"
	"distcfd/internal/relation"
	"distcfd/internal/remote"
)

// The direct measurements time each layer's exported functions on the
// workload's own data. A layer the workload never reaches is not
// measured and reports 0, so the predicted bypasses read straight off
// the output: no remote.* seconds in-process, no colstore reads on
// in-memory sites, no delta path outside the incremental workload.

// A direct call is repeated at least directMinReps times and until
// directBudget of measured time has gone by (or directMaxReps), and the
// median is reported: most of these calls take well under a
// millisecond, where five samples on a noisy box say little.
const (
	directMinReps = 5
	directMaxReps = 200
	directBudget  = 100 * time.Millisecond
)

// medianOf repeats fn, which times its own measured part, and returns
// the median in seconds.
func medianOf(fn func() (time.Duration, error)) (float64, error) {
	var secs []float64
	var spent time.Duration
	for len(secs) < directMinReps || spent < directBudget && len(secs) < directMaxReps {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		secs = append(secs, d.Seconds())
		spent += d
	}
	return median(secs), nil
}

// timeMedian is medianOf for a call that is measured whole.
func timeMedian(fn func() error) (float64, error) {
	return medianOf(func() (time.Duration, error) {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	})
}

func perSecond(n int, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return float64(n) / secs
}

// ruleAttrs is the union of the workload's rule attributes in schema
// order: the projection a merged cluster ships.
func ruleAttrs(e *env) []string {
	used := make(map[string]bool)
	for _, c := range e.def.rules() {
		for _, a := range c.X {
			used[a] = true
		}
		for _, a := range c.Y {
			used[a] = true
		}
	}
	var attrs []string
	for _, a := range e.frags[0].Schema().Attrs() {
		if used[a] {
			attrs = append(attrs, a)
		}
	}
	return attrs
}

// directMetrics runs the direct calls; largest is the biggest block a
// traced deposit carried (nil when nothing shipped).
func directMetrics(e *env, largest *relation.Relation, m map[string]float64) error {
	frag := e.frags[0]
	rules := e.def.rules()
	rows := frag.Len()

	spec, err := core.SpecFromCFD(rules[0])
	if err != nil {
		return err
	}
	secs, err := timeMedian(func() error {
		_, _, err := spec.AssignAll(frag)
		return err
	})
	if err != nil {
		return err
	}
	m["core.assign_all_rows_per_s"] = perSecond(rows, secs)

	if err := directRelation(e, frag, m); err != nil {
		return err
	}
	if err := directEngine(e, frag, m); err != nil {
		return err
	}
	if e.def.store {
		if err := directColstore(e, frag, m); err != nil {
			return err
		}
	}
	if e.def.tcp && largest != nil {
		if err := directRemote(largest, m); err != nil {
			return err
		}
	}
	return nil
}

func directRelation(e *env, frag *relation.Relation, m map[string]float64) error {
	attrs := ruleAttrs(e)
	rows := frag.Len()
	all := make([]int, rows)
	for i := range all {
		all[i] = i
	}
	var proj *relation.Relation
	secs, err := timeMedian(func() (err error) {
		proj, err = frag.ProjectRows("proj", attrs, all)
		return err
	})
	if err != nil {
		return err
	}
	m["relation.project_rows_s"] = secs

	parts := make([]*relation.Relation, numSites)
	for i := range parts {
		lo, hi := i*rows/numSites, (i+1)*rows/numSites
		if parts[i], err = frag.ProjectRows("part", attrs, all[lo:hi]); err != nil {
			return err
		}
		parts[i].Encoded() // a shipped block arrives encoded
	}
	if m["relation.concat_s"], err = timeMedian(func() error {
		_, err := relation.Concat(parts...)
		return err
	}); err != nil {
		return err
	}

	enc := proj.Encoded()
	dicts, cols := enc.CompactColumns()
	if m["relation.from_columns_s"], err = timeMedian(func() error {
		_, err := relation.FromColumns(proj.Schema(), dicts, cols, rows)
		return err
	}); err != nil {
		return err
	}

	pdicts := make([]*relation.Dict, enc.Arity())
	pcols := make([][]uint32, enc.Arity())
	for j := range pcols {
		pcols[j], pdicts[j] = enc.Column(j)
	}
	packed, err := colstore.PackColumns(pdicts, pcols, rows)
	if err != nil {
		return err
	}
	if m["relation.from_packed_s"], err = timeMedian(func() error {
		r, err := relation.FromPackedReader(proj.Schema(), packed)
		if err != nil {
			return err
		}
		r.Encoded().Column(0) // adoption is lazy; decode one column
		return nil
	}); err != nil {
		return err
	}

	if e.def.incr && len(e.rounds) > 0 {
		// One round's delta on one in-memory fragment: the mirror's
		// path. The store-backed site applies through its overlay and
		// WAL instead, which core.apply_delta_s times.
		d := e.rounds[0][0]
		if m["relation.apply_s"], err = medianOf(func() (time.Duration, error) {
			c := frag.Clone() // each repetition mutates its own copy
			c.Encoded()
			start := time.Now()
			_, err := c.Apply(d)
			return time.Since(start), err
		}); err != nil {
			return err
		}
	}
	return nil
}

func directEngine(e *env, frag *relation.Relation, m map[string]float64) error {
	rules := e.def.rules()
	rows := frag.Len()
	var k engine.Kernel
	frag.Encoded()
	for _, w := range []struct {
		name    string
		workers int
	}{{"engine.fold_columns_rows_per_s_w1", 1}, {"engine.fold_columns_rows_per_s_wn", e.nproc}} {
		secs, err := timeMedian(func() error {
			_, err := k.DetectSet(frag, rules, engine.Opts{Workers: w.workers})
			return err
		})
		if err != nil {
			return err
		}
		m[w.name] = perSecond(rows, secs)
	}
	if e.def.store {
		f, err := colstore.OpenDir(e.dirs[0])
		if err != nil {
			return err
		}
		defer f.Close()
		secs, err := timeMedian(func() error {
			_, err := k.DetectSetReader(f, f.Schema(), rules)
			return err
		})
		if err != nil {
			return err
		}
		m["engine.fold_packed_rows_per_s"] = perSecond(f.Rows(), secs)
	}
	if e.def.incr && len(e.rounds) > 0 {
		ins, err := relation.FromTuples(frag.Schema(), e.rounds[0][0].Inserts)
		if err != nil {
			return err
		}
		secs, err := timeMedian(func() error {
			for _, c := range rules {
				st, err := engine.NewIncrementalState(frag.Schema(), c, false)
				if err != nil {
					return err
				}
				if err := st.FoldRelation(ins, true); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		m["engine.incr_fold_rows_per_s"] = perSecond(ins.Len()*len(rules), secs)
	}
	return nil
}

func directColstore(e *env, frag *relation.Relation, m map[string]float64) error {
	// Chunk codec on the highest-cardinality rule column of fragment 0.
	enc := frag.Encoded()
	best, bestCard := 0, -1
	for _, a := range ruleAttrs(e) {
		j := frag.Schema().MustIndex(a)
		_, d := enc.Column(j)
		if d.Len() > bestCard {
			best, bestCard = j, d.Len()
		}
	}
	col, _ := enc.Column(best)
	var payloads [][]byte
	secs, err := timeMedian(func() error {
		payloads = payloads[:0]
		for lo := 0; lo < len(col); lo += colstore.DefaultChunkRows {
			hi := min(lo+colstore.DefaultChunkRows, len(col))
			p, _, _ := colstore.EncodeChunk(nil, col[lo:hi])
			payloads = append(payloads, p)
		}
		return nil
	})
	if err != nil {
		return err
	}
	rawMiB := float64(len(col)*4) / (1 << 20)
	m["colstore.encode_chunk_mb_per_s"] = rawMiB / secs
	dst := make([]uint32, colstore.DefaultChunkRows)
	if secs, err = timeMedian(func() error {
		for i, p := range payloads {
			n := min(colstore.DefaultChunkRows, len(col)-i*colstore.DefaultChunkRows)
			if err := colstore.DecodeChunk(p, dst[:n]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["colstore.decode_chunk_mb_per_s"] = rawMiB / secs

	f, err := colstore.OpenDir(e.dirs[0])
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]uint32, f.Rows())
	if secs, err = timeMedian(func() error { return f.ReadColumn(best, 0, buf) }); err != nil {
		return err
	}
	m["colstore.read_column_rows_per_s"] = perSecond(f.Rows(), secs)
	return nil
}

// directRemote times the four steps a shipped block pays on each hop,
// on the largest block the traced run deposited.
func directRemote(block *relation.Relation, m map[string]float64) error {
	var w *remote.WireRelation
	var err error
	if m["remote.to_wire_s"], err = timeMedian(func() error {
		w = remote.ToWire(block)
		return nil
	}); err != nil {
		return err
	}
	var buf bytes.Buffer
	if m["remote.gob_encode_s"], err = timeMedian(func() error {
		buf.Reset()
		return gob.NewEncoder(&buf).Encode(w)
	}); err != nil {
		return err
	}
	m["remote.encoded_bytes"] = float64(buf.Len())
	encoded := buf.Bytes()
	var back *remote.WireRelation
	if m["remote.gob_decode_s"], err = timeMedian(func() error {
		back = nil
		return gob.NewDecoder(bytes.NewReader(encoded)).Decode(&back)
	}); err != nil {
		return err
	}
	if m["remote.from_wire_s"], err = timeMedian(func() error {
		r, err := remote.FromWire(back)
		if err != nil {
			return err
		}
		if r.Len() != block.Len() {
			return fmt.Errorf("wire round trip: %d rows, sent %d", r.Len(), block.Len())
		}
		return nil
	}); err != nil {
		return err
	}
	return nil
}

// walBytes sums the sites' delta.log sizes.
func walBytes(e *env) int64 {
	var n int64
	for _, dir := range e.dirs {
		if st, err := os.Stat(filepath.Join(dir, "delta.log")); err == nil {
			n += st.Size()
		}
	}
	return n
}

// tracedMetrics turns the traced loop's spans into per-op layer
// seconds. shareSums reports, per operation, the attributed shares
// divided by the operation's wall time; each must be 1.
func tracedMetrics(e *env, spans []span, r *loopResult, m map[string]float64) (shareSums []float64) {
	byOp := make(map[int][]span)
	for _, sp := range spans {
		if sp.Op >= 0 {
			byOp[sp.Op] = append(byOp[sp.Op], sp)
		}
	}
	ops := float64(len(r.windows))
	if ops == 0 {
		return nil
	}
	var applyCalls int
	for _, w := range r.windows {
		sh := attribute(w.Start, w.End, byOp[w.Op], e.def.tcp)
		total := sh.driverSelf + sh.rpc
		m["api.driver_self_s"] += sh.driverSelf / ops
		m["remote.rpc_overhead_s"] += sh.rpc / ops
		m["api.site_calls_per_op"] += float64(sh.calls) / ops
		for _, g := range methodGroups {
			m["core."+g+"_s"] += sh.site[g] / ops
			m["core."+g+"_sum_s"] += sh.siteSum[g] / ops
			total += sh.site[g]
		}
		if sh.wall > 0 {
			shareSums = append(shareSums, total/sh.wall)
		}
		for _, sp := range byOp[w.Op] {
			if sp.Side == clientSide && sp.Method == "ApplyDelta" {
				applyCalls++
			}
		}
	}
	if e.def.tcp {
		m["remote.calls_per_op"] = m["api.site_calls_per_op"] // every site call is an RPC
	}
	if e.def.store {
		// The store's policy, unchanged: one WAL append, one fsync,
		// per ApplyDelta.
		m["colstore.wal_fsyncs_per_op"] = float64(applyCalls) / ops
	}
	sort.Float64s(shareSums)
	return shareSums
}
