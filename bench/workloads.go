package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"distcfd"
	"distcfd/internal/cfd"
	"distcfd/internal/colstore"
	"distcfd/internal/core"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/remote"
	"distcfd/internal/workload"
)

// numSites is the fan-out of every workload. The four connections are
// the system's own fan-out, not load concurrency: one client, one
// operation in flight.
const numSites = 4

// workloadDef is one named workload. Names are fixed; later issues
// cite them.
type workloadDef struct {
	name string
	// baseN is |D| at -scale 1; fixedOps the operation count of a
	// -seconds 0 run.
	baseN, fixedOps int
	store           bool // colstore-backed sites, else in-memory fragments
	tcp             bool // loopback TCP through internal/remote, else in-process
	incr            bool // one op = Apply at every site + DetectIncremental
	algo            distcfd.Algorithm
	rules           func() []*distcfd.CFD
	fullWorkers     bool // WithWorkers(nproc) instead of the default
}

func bulkRules() []*distcfd.CFD {
	return []*distcfd.CFD{workload.CustPatternCFD(64), workload.CustStreetCFD()}
}

var workloads = []workloadDef{
	{
		name: "bulk-store-tcp", baseN: 2_000_000, fixedOps: 60,
		store: true, tcp: true, algo: distcfd.PatDetectS, rules: bulkRules,
	},
	{
		name: "incr-store-tcp", baseN: 1_000_000, fixedOps: 300,
		store: true, tcp: true, incr: true, algo: distcfd.PatDetectS, rules: bulkRules,
	},
	{
		name: "multi-mem-tcp", baseN: 200_000, fixedOps: 50,
		tcp: true, algo: distcfd.PatDetectRT, fullWorkers: true,
		// Six disjoint-LHS rules, so six clusters; name, phn and street
		// are high-cardinality and never ship packed.
		rules: func() []*distcfd.CFD {
			return []*distcfd.CFD{
				workload.CustPatternCFD(255),
				cfd.MustParse(`i1: [CC, title] -> [price]`),
				cfd.MustParse(`i2: [name] -> [phn]`),
				cfd.MustParse(`i3: [AC, phn] -> [street]`),
				cfd.MustParse(`i4: [street, city] -> [zip]`),
				cfd.MustParse(`i5: [qty, price] -> [title]`),
			}
		},
	},
	{
		name: "fold-store-inproc", baseN: 2_000_000, fixedOps: 180,
		store: true, algo: distcfd.PatDetectS, fullWorkers: true,
		// No constants: one σ-block per rule, so the whole projected
		// relation folds at one coordinator.
		rules: func() []*distcfd.CFD {
			return []*distcfd.CFD{
				cfd.MustParse(`f1: [street, city] -> [zip]`),
				cfd.MustParse(`f2: [CC, AC] -> [city]`),
			}
		},
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// maxRounds bounds the pre-generated delta rounds of an incremental
// run: past it the accumulated deletes approach the session's reseed
// threshold (DeltaFallbackRatio), and a reseed is not the operation
// this workload times.
const maxRounds = 600

// setupTimes is what one set-up cost, stage by stage.
type setupTimes struct {
	total, gen, write, open, dial, compile, cold, seed, deltaGen, reference time.Duration
	stats                                                                   colstore.Stats
}

// env is one workload set up on one seed: the sites, their data, and
// the reference answer the timed operations are checked against.
type env struct {
	def   *workloadDef
	n     int
	seed  int64
	nproc int
	dir   string // this env's store directories live under it
	dirs  []string
	sites []*core.Site
	// frags holds in-memory copies of the fragments as generated: all
	// of them for in-memory and incremental workloads, fragment 0 alone
	// for the other store workloads, where only the direct layer
	// measurements read it.
	frags []*relation.Relation
	link  *link
	ref   string // reference digest (non-incremental workloads)
	times setupTimes

	// Incremental state: every round's deltas are generated during
	// set-up; applied counts the rounds the sites have seen. mirror is
	// the reference's own copy of the fragments, sharing nothing with
	// the store-backed sites but the deltas; mirrored counts the rounds
	// folded into it.
	rounds   [][]relation.Delta
	changed  int // tuples changed per round, all sites
	applied  int
	mirror   [][]relation.Tuple
	mirrored int
}

// link is one serving path onto an env's sites: listeners and dialled
// proxies for a tcp workload, the sites themselves otherwise, plus the
// cluster and compiled session on top. A run has an untraced link and,
// for the traced loop, a second one whose sites are span-wrapped.
type link struct {
	counter *wireCounter
	cancel  context.CancelFunc
	served  sync.WaitGroup
	clients []core.SiteAPI
	det     *distcfd.Detector
	dial    time.Duration
	compile time.Duration
}

func (e *env) options() []distcfd.Option {
	opts := []distcfd.Option{distcfd.WithAlgorithm(e.def.algo)}
	if e.def.fullWorkers {
		opts = append(opts, distcfd.WithWorkers(e.nproc))
	}
	return opts
}

// connect builds a serving path. With a recorder every site is wrapped
// on both sides of the wire (on the one side there is, in-process).
func (e *env) connect(rec *recorder) (*link, error) {
	l := &link{counter: &wireCounter{}}
	schema := workload.CustSchema()
	apis := make([]core.SiteAPI, len(e.sites))
	for i, s := range e.sites {
		apis[i] = s
	}
	if e.def.tcp {
		ctx, cancel := context.WithCancel(context.Background())
		l.cancel = cancel
		addrs := make([]string, len(e.sites))
		for i, s := range e.sites {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				l.close()
				return nil, err
			}
			addrs[i] = lis.Addr().String()
			api := core.SiteAPI(s)
			if rec != nil {
				api = traced(s, rec, serverSide)
			}
			l.served.Add(1)
			go func() {
				defer l.served.Done()
				if err := remote.ServeAPIContext(ctx, countingListener{lis, l.counter}, api, schema); err != nil {
					fmt.Fprintf(os.Stderr, "bench: site %d stopped serving: %v\n", api.ID(), err)
				}
			}()
		}
		start := time.Now()
		dialled, _, err := remote.DialWithConfig(addrs, remote.DialConfig{})
		l.dial = time.Since(start)
		if err != nil {
			l.close()
			return nil, err
		}
		copy(apis, dialled)
		l.clients = dialled
	}
	if rec != nil {
		for i, s := range apis {
			apis[i] = traced(s, rec, clientSide)
		}
	}
	cl, err := core.NewCluster(schema, apis)
	if err != nil {
		l.close()
		return nil, err
	}
	start := time.Now()
	l.det, err = distcfd.Compile(cl, e.def.rules(), e.options()...)
	l.compile = time.Since(start)
	if err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

// close hangs up the dialled proxies and stops the servers, returning
// once every accept loop has exited. The sites stay open: they belong
// to the env.
func (l *link) close() {
	for _, c := range l.clients {
		c.(io.Closer).Close()
	}
	if l.cancel != nil {
		l.cancel()
	}
	l.served.Wait()
}

// reference computes the answer through a different execution mode
// than any timed run: an in-process cluster, unpacked shipping, one
// worker. For incremental workloads it runs over the in-memory mirror.
func (e *env) reference(ctx context.Context) (string, error) {
	apis := make([]core.SiteAPI, numSites)
	for i := range apis {
		apis[i] = e.sites[i]
		if e.def.incr {
			frag, err := relation.FromTuples(workload.CustSchema(), e.mirror[i])
			if err != nil {
				return "", err
			}
			apis[i] = core.NewSite(i, frag, relation.True())
		}
	}
	cl, err := core.NewCluster(workload.CustSchema(), apis)
	if err != nil {
		return "", err
	}
	det, err := distcfd.Compile(cl, e.def.rules(),
		distcfd.WithAlgorithm(e.def.algo), distcfd.WithPackedShipping(false), distcfd.WithWorkers(1))
	if err != nil {
		return "", err
	}
	res, err := det.Detect(ctx)
	if err != nil {
		return "", err
	}
	return digest(res), nil
}

// mirrorTo folds the rounds up to (not including) round into the
// in-memory mirror.
func (e *env) mirrorTo(round int) {
	for ; e.mirrored < round; e.mirrored++ {
		for i, d := range e.rounds[e.mirrored] {
			e.mirror[i] = applyDelta(e.mirror[i], d)
		}
	}
}

// setUp generates the workload's data from the seed, starts the sites,
// connects, compiles, runs the warm-up operation and computes the
// reference. keepFrag0 keeps fragment 0 in memory for the direct
// measurements.
func (p runPlan) setUp(ctx context.Context, keepFrag0 bool) (e *env, err error) {
	begin := time.Now()
	def, n := p.def, p.n
	e = &env{def: def, n: n, seed: p.cfg.seed, nproc: p.nproc}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	cfg := workload.CustConfig{N: n, Seed: e.seed, ErrRate: 0.01}
	if def.store {
		if err := e.writeStores(cfg, p.cfg.tmp, keepFrag0 || def.incr); err != nil {
			return e, err
		}
		start := time.Now()
		for i, dir := range e.dirs {
			s, err := core.OpenStoreSite(i, dir, relation.True())
			if err != nil {
				return e, err
			}
			e.sites = append(e.sites, s)
		}
		e.times.open = time.Since(start)
		if def.incr {
			e.mirror = make([][]relation.Tuple, numSites)
			for i, frag := range e.frags {
				e.mirror[i] = append([]relation.Tuple(nil), frag.Tuples()...)
			}
		}
	} else {
		start := time.Now()
		data := workload.Cust(cfg)
		e.times.gen = time.Since(start)
		h, err := partition.Uniform(data, numSites, 7)
		if err != nil {
			return e, err
		}
		e.frags = h.Fragments
		for i, frag := range h.Fragments {
			e.sites = append(e.sites, core.NewSite(i, frag, h.Predicates[i]))
		}
	}

	if e.link, err = e.connect(nil); err != nil {
		return e, err
	}
	e.times.dial, e.times.compile = e.link.dial, e.link.compile

	// Warm-up: the first Detect after open pays σ-routing and page-in,
	// which every later operation finds cached.
	start := time.Now()
	cold, err := e.link.det.Detect(ctx)
	if err != nil {
		return e, fmt.Errorf("warm-up detect: %w", err)
	}
	e.times.cold = time.Since(start)

	start = time.Now()
	if e.ref, err = e.reference(ctx); err != nil {
		return e, fmt.Errorf("reference run: %w", err)
	}
	e.times.reference = time.Since(start)
	if got := digest(cold); got != e.ref {
		return e, fmt.Errorf("warm-up digest %s differs from reference %s", got, e.ref)
	}

	if def.incr {
		start = time.Now()
		seeded, err := e.link.det.DetectIncremental(ctx)
		if err != nil {
			return e, fmt.Errorf("seed round: %w", err)
		}
		e.times.seed = time.Since(start)
		if got := digest(seeded); got != e.ref {
			return e, fmt.Errorf("seed round digest %s differs from reference %s", got, e.ref)
		}
		start = time.Now()
		if err := e.generateRounds(p.rounds); err != nil {
			return e, err
		}
		e.times.deltaGen = time.Since(start)
	}
	e.times.total = time.Since(begin)
	return e, nil
}

// writeStores streams the instance round-robin into one store
// directory per site, never materializing it; time inside the writer
// is billed to colstore, the rest to the generator.
func (e *env) writeStores(cfg workload.CustConfig, tmp string, keepAll bool) error {
	var err error
	if err = os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	if e.dir, err = os.MkdirTemp(tmp, e.def.name+"-"); err != nil {
		return err
	}
	schema := workload.CustSchema()
	ws := make([]*colstore.Writer, numSites)
	for i := range ws {
		dir := filepath.Join(e.dir, fmt.Sprintf("site%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		e.dirs = append(e.dirs, dir)
		w, err := colstore.CreateDir(dir, schema)
		if err != nil {
			return err
		}
		defer w.Close()
		ws[i] = w
	}
	if keepAll {
		e.frags = make([]*relation.Relation, numSites)
		for i := range e.frags {
			if i == 0 || e.def.incr {
				e.frags[i] = relation.NewWithCapacity(schema, cfg.N/numSites+1)
			}
		}
	}
	start := time.Now()
	var inWriter time.Duration
	row := 0
	err = workload.CustStream(cfg, func(t relation.Tuple) error {
		i := row % numSites
		row++
		if e.frags != nil && e.frags[i] != nil {
			e.frags[i].MustAppend(t)
		}
		w0 := time.Now()
		err := ws[i].Append(t)
		inWriter += time.Since(w0)
		return err
	})
	if err != nil {
		return err
	}
	w0 := time.Now()
	for _, w := range ws {
		st, err := w.Finish()
		if err != nil {
			return err
		}
		e.times.stats.Rows += st.Rows
		e.times.stats.BytesOnDisk += st.BytesOnDisk
		e.times.stats.RawBytes += st.RawBytes
	}
	inWriter += time.Since(w0)
	e.times.write = inWriter
	e.times.gen = time.Since(start) - inWriter
	return nil
}

func (e *env) close() {
	if e.link != nil {
		e.link.close()
	}
	if e.def.store {
		for _, s := range e.sites {
			s.Close()
		}
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// pendingDeposits sums the buffered deposits left at the sites; any
// after an operation is a leak.
func (e *env) pendingDeposits() int {
	n := 0
	for _, s := range e.sites {
		n += s.PendingDeposits()
	}
	return n
}
