// Command cfdsite serves one horizontal fragment as a detection site
// over net/rpc/TCP. A driver (cfddetect -remote, or any program using
// distcfd.NewRemoteCluster) coordinates any number of such sites.
//
//	cfdsite -data frag0.csv -key id -id 0 -listen 127.0.0.1:7001
//
// Alternatively -data-dir serves a packed columnar store directory
// (written by cfdgen -o store://DIR or colstore.WriteRelationDir): the
// fragment file is mapped read-only and served chunk by chunk — the
// site holds fragments bigger than RAM — and applied deltas persist in
// the directory's write-ahead log, so a restarted site recovers its
// exact pre-crash state:
//
//	cfdsite -data-dir frag0.store -id 0 -listen 127.0.0.1:7001
//
// The optional -pred flag declares the fragment predicate Fi for the
// Section IV-A pruning, e.g. -pred "title=MTS,CC=44" (conjunction of
// equalities).
//
// SIGINT/SIGTERM shut the site down gracefully: the listener closes
// and every in-flight handler's site work is cancelled through the
// server's base context, so a dying site stops burning cycles on
// detection work whose driver will never hear the answer.
//
// The -admit flag puts an admission controller in front of the site:
// at most -admit-max work calls execute at once, a bounded queue
// (-admit-queue, -admit-wait) absorbs short bursts, and calls beyond
// either bound are rejected with the typed overloaded error carrying a
// retry-after hint the driver's backoff honors. An admitted site also
// serves the Drain RPC, and its signal handling upgrades: the first
// SIGINT/SIGTERM drains — in-flight work finishes (bounded by
// -drain-timeout) while new work is rejected with the typed draining
// error, which a FailDegrade driver treats as "reroute or exclude",
// never as a dead site — and a second signal exits immediately:
//
//	cfdsite -data frag0.csv -id 0 -admit -admit-max 4 -drain-timeout 10s
//
// The -fault-plan flag (development only) injects deterministic faults
// into the site — scheduled or random call errors, latency spikes,
// crash-then-restart with serving-state loss, connection resets
// mid-stream — for exercising a driver's retry, redial, and degraded
// paths against a real TCP site:
//
//	cfdsite -data frag0.csv -id 0 -fault-plan "seed=7,rate=0.05,reset=3@40"
//
// A -data site restarted by the plan (restart=N) comes back with its
// CSV rows, as a real restart would: deltas applied before the crash
// are lost with the process. A -data-dir site replays them from its
// write-ahead log.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"distcfd/internal/core"
	"distcfd/internal/faulty"
	"distcfd/internal/relation"
	"distcfd/internal/remote"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "CSV fragment file")
		dataDir   = flag.String("data-dir", "", "columnar store directory (cfdgen -o store://DIR); serves out-of-core, persists deltas")
		key       = flag.String("key", "", "key attribute (optional, -data only)")
		id        = flag.Int("id", 0, "site ID (must match position in the driver's address list)")
		listen    = flag.String("listen", "127.0.0.1:0", "listen address")
		predSpec  = flag.String("pred", "", "fragment predicate, e.g. \"title=MTS,CC=44\"")
		faultSpec = flag.String("fault-plan", "", "inject deterministic faults (development), e.g. \"seed=7,rate=0.05,err=Deposit@3,crash=20,restart=5,reset=2@40\"")

		admit        = flag.Bool("admit", false, "bound concurrent work with an admission controller (typed overloaded/draining rejections, Drain RPC, drain-on-signal)")
		admitMax     = flag.Int("admit-max", 0, "admission: work calls allowed to execute at once (0 = default 8; implies -admit)")
		admitQueue   = flag.Int("admit-queue", 0, "admission: bounded wait-queue length (0 = default 16; implies -admit)")
		admitWait    = flag.Duration("admit-wait", 0, "admission: max time a queued call waits for a slot (0 = default 50ms; implies -admit)")
		drainTimeout = flag.Duration("drain-timeout", 0, "admission: bound on the graceful drain at SIGTERM or Drain RPC (0 = default 5s; implies -admit)")
	)
	flag.Parse()
	if (*dataPath == "") == (*dataDir == "") {
		fatalf("exactly one of -data or -data-dir is required")
	}
	var data *relation.Relation
	if *dataPath != "" {
		f, err := os.Open(*dataPath)
		if err != nil {
			fatalf("%v", err)
		}
		var keys []string
		if *key != "" {
			keys = []string{*key}
		}
		var rerr error
		data, rerr = relation.ReadCSV(f, "data", keys...)
		f.Close()
		if rerr != nil {
			fatalf("reading data: %v", rerr)
		}
	}
	pred := relation.True()
	if *predSpec != "" {
		var atoms []relation.Atom
		for _, part := range strings.Split(*predSpec, ",") {
			kv := strings.SplitN(part, "=", 2)
			if len(kv) != 2 {
				fatalf("bad predicate atom %q", part)
			}
			atoms = append(atoms, relation.Eq(strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])))
		}
		pred = relation.And(atoms...)
	}
	// newSite builds the serving site: in-memory over its own copy of
	// the CSV rows, so a restart starts from the file again, or opened
	// over the store directory — the latter replays the directory's
	// delta log, so a restart recovers the exact pre-crash fragment
	// state (only the serving caches and sessions are lost, exactly what
	// a process restart must lose).
	newSite := func() *core.Site {
		if *dataDir != "" {
			s, err := core.OpenStoreSite(*id, *dataDir, pred)
			if err != nil {
				fatalf("opening store %s: %v", *dataDir, err)
			}
			return s
		}
		return core.NewSite(*id, data, pred)
	}

	var plan faulty.Plan
	if *faultSpec != "" {
		var perr error
		plan, perr = faulty.Parse(*faultSpec)
		if perr != nil {
			fatalf("-fault-plan: %v", perr)
		}
	}
	var (
		api    core.SiteAPI
		schema *relation.Schema
	)
	if plan.RestartAfter > 0 {
		w := faulty.WrapRestartable(func() core.SiteAPI { return newSite() }, plan)
		schema = w.Inner().(*core.Site).Schema()
		api = w
	} else {
		s := newSite()
		schema = s.Schema()
		api = s
		if *faultSpec != "" {
			api = faulty.Wrap(api, plan)
		}
	}
	// The admission controller is the outermost layer — the Drain RPC
	// type-asserts core.Drainer on the served API, and drain must gate
	// real and injected-fault traffic alike.
	var adm *core.Admission
	if *admit || *admitMax > 0 || *admitQueue > 0 || *admitWait > 0 || *drainTimeout > 0 {
		adm = core.WithAdmission(api, core.AdmissionPolicy{
			MaxConcurrent: *admitMax,
			MaxQueue:      *admitQueue,
			MaxWait:       *admitWait,
			DrainTimeout:  *drainTimeout,
		})
		api = adm
	}
	if c, ok := api.(interface{ Close() error }); ok {
		defer c.Close()
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		fatalf("%v", err)
	}
	tuples, _ := api.NumTuples()
	fmt.Printf("site %d serving %d tuples on %s\n", *id, tuples, lis.Addr())
	if *faultSpec != "" {
		lis = faulty.WrapListener(lis, plan)
		fmt.Printf("site %d: fault injection active: %s\n", *id, *faultSpec)
	}
	if adm != nil {
		p := adm.Policy()
		fmt.Printf("site %d: admission control: %d concurrent, queue %d, wait %v, drain %v\n",
			*id, p.MaxConcurrent, p.MaxQueue, p.MaxWait, p.DrainTimeout)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		<-sigc
		if adm == nil {
			cancel()
			return
		}
		// First signal: graceful drain. New work is rejected with the
		// typed draining error from this moment; in-flight work gets
		// until the policy's DrainTimeout to finish. A second signal
		// skips the wait and exits immediately.
		fmt.Printf("site %d: draining (second signal exits immediately)\n", *id)
		done := make(chan struct{})
		go func() {
			//distcfd:ctxflow-ok — the drain wait is bounded internally by the policy's DrainTimeout
			if err := adm.Drain(context.Background()); err != nil {
				fmt.Printf("site %d: %v\n", *id, err)
			}
			close(done)
		}()
		select {
		case <-done:
		case <-sigc:
		}
		cancel()
	}()
	if err := remote.ServeAPIContext(ctx, lis, api, schema); err != nil {
		fatalf("serve: %v", err)
	}
	fmt.Printf("site %d shut down\n", *id)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cfdsite: "+format+"\n", args...)
	os.Exit(1)
}
