// Command cfddetect finds CFD violations in a CSV relation.
//
// Centralized:
//
//	cfddetect -data emp.csv -rules emp.cfd -key id
//
// Simulated distributed (uniform fragments across in-process sites):
//
//	cfddetect -data cust.csv -rules cust.cfd -key id -sites 4 -algo patrt
//
// Distributed over TCP (against cfdsite servers):
//
//	cfddetect -rules cust.cfd -remote 127.0.0.1:7001,127.0.0.1:7002
//
// Incremental serving against a delta stream (one JSON object per
// stdin line; detection after each delta ships only what changed):
//
//	tail -f deltas.jsonl | cfddetect -data cust.csv -rules cust.cfd -sites 4 -follow
//
// Each line is {"site": N, "inserts": [[v1,v2,...],...], "deletes": [row,...]};
// deletes address rows of site N's fragment as it stands before the line.
//
// Static rule-set analysis (consistency witness, implied rules,
// duplicate rules; needs no data, exits 1 on an inconsistent Σ):
//
//	cfddetect -rules cust.cfd -lint
//
// The same analysis gates a detection run via -sigma check (fail fast
// on inconsistent Σ).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"distcfd"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "CSV data file (header row required)")
		rulesPath = flag.String("rules", "", "CFD rules file")
		key       = flag.String("key", "", "key attribute (optional)")
		sites     = flag.Int("sites", 1, "number of simulated sites (1 = centralized)")
		algoName  = flag.String("algo", "patrt", "ctr | pats | patrt")
		clustered = flag.Bool("cluster", true, "merge overlapping CFDs into shared-σ clusters (§IV-C)")
		parallel  = flag.Int("parallel", 0, "overlap up to this many independent CFD clusters (0 = one at a time, -1 = GOMAXPROCS); each site shards its own checks across its cores regardless")
		shipmat   = flag.Bool("shipmat", false, "print the per-site shipment matrix")
		mineTheta = flag.Float64("mine", 0, "mining threshold θ for wildcard CFDs (0 = off)")
		remote    = flag.String("remote", "", "comma-separated cfdsite addresses (overrides -data/-sites)")
		seed      = flag.Int64("seed", 1, "partitioning seed")
		timeout   = flag.Duration("timeout", 0, "per-RPC budget against remote sites: the call fails and the site abandons its work after it (0 = none)")
		deadline  = flag.Duration("deadline", 0, "overall wall-clock budget for the detection run; propagates to remote sites as each call's remaining budget so they abandon work the driver gave up on (0 = none)")
		follow    = flag.Bool("follow", false, "after the initial detection, consume a JSON delta stream from stdin and re-detect incrementally per delta")
		lint      = flag.Bool("lint", false, "statically analyze the rule set (consistency, implied rules, duplicates) and exit; no data needed")
		sigmaMode = flag.String("sigma", "off", "compile-time Σ analysis: off | check (fail fast on inconsistent Σ)")
		policy    = flag.String("policy", "fast", "site-failure policy: fast (fail on first error) | retry (retry transients with backoff) | degrade (retry, then exclude dead sites and complete partially; partial runs exit 3)")
		noPacked  = flag.Bool("no-packed-ship", false, "force σ-block shipments into the dict+ID form (disables the packed chunk form; affects only bytes on the wire, never the violations)")
	)
	flag.Parse()

	if *parallel < -1 {
		fatalf("-parallel must be -1 (GOMAXPROCS), 0 (off), or a worker count")
	}
	if *rulesPath == "" {
		fatalf("-rules is required")
	}
	rf, err := os.Open(*rulesPath)
	if err != nil {
		fatalf("%v", err)
	}
	rules, err := distcfd.ParseRules(rf)
	rf.Close()
	if err != nil {
		fatalf("parsing rules: %v", err)
	}
	if len(rules) == 0 {
		fatalf("no rules in %s", *rulesPath)
	}

	if *lint {
		report := distcfd.AnalyzeSigma(rules)
		fmt.Print(report)
		if !report.Consistent() {
			os.Exit(1)
		}
		return
	}
	var sigma distcfd.SigmaMode
	switch *sigmaMode {
	case "off":
		sigma = distcfd.SigmaOff
	case "check":
		sigma = distcfd.SigmaCheck
	default:
		fatalf("unknown -sigma mode %q (off | check)", *sigmaMode)
	}

	var failure distcfd.FailurePolicy
	switch *policy {
	case "fast":
		failure = distcfd.FailFast
	case "retry":
		failure = distcfd.FailRetry
	case "degrade":
		failure = distcfd.FailDegrade
	default:
		fatalf("unknown -policy %q (fast | retry | degrade)", *policy)
	}

	var algo distcfd.Algorithm
	switch *algoName {
	case "ctr":
		algo = distcfd.CTRDetect
	case "pats":
		algo = distcfd.PatDetectS
	case "patrt":
		algo = distcfd.PatDetectRT
	default:
		fatalf("unknown algorithm %q", *algoName)
	}

	var cluster *distcfd.Cluster
	switch {
	case *remote != "":
		cluster, err = distcfd.NewRemoteClusterConfig(strings.Split(*remote, ","),
			distcfd.DialConfig{CallTimeout: *timeout})
		if err != nil {
			fatalf("connecting: %v", err)
		}
	case *dataPath != "":
		df, err := os.Open(*dataPath)
		if err != nil {
			fatalf("%v", err)
		}
		var keys []string
		if *key != "" {
			keys = []string{*key}
		}
		data, err := distcfd.ReadCSV(df, "data", keys...)
		df.Close()
		if err != nil {
			fatalf("reading data: %v", err)
		}
		part, err := distcfd.PartitionUniform(data, *sites, *seed)
		if err != nil {
			fatalf("partitioning: %v", err)
		}
		cluster, err = distcfd.NewCluster(part)
		if err != nil {
			fatalf("%v", err)
		}
	default:
		fatalf("need -data or -remote")
	}

	// Compile the session once; ^C cancels the run end to end (every
	// site drains the run's deposits before the process exits).
	workers := 1
	switch {
	case *parallel < 0:
		workers = 0 // GOMAXPROCS
	case *parallel > 0:
		workers = *parallel
	}
	det, err := distcfd.Compile(cluster, rules,
		distcfd.WithAlgorithm(algo),
		distcfd.WithClustering(*clustered),
		distcfd.WithWorkers(workers),
		distcfd.WithMineTheta(*mineTheta),
		distcfd.WithSigmaAnalysis(sigma),
		distcfd.WithFailurePolicy(failure),
		distcfd.WithPackedShipping(!*noPacked),
	)
	if err != nil {
		fatalf("compile: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	res, err := det.Detect(ctx)
	if err != nil {
		fatalf("detection: %v", err)
	}
	for i, c := range rules {
		pats := res.PerCFD[i]
		fmt.Printf("%s: %d violating pattern(s)\n", displayName(c.Name, i), pats.Len())
		for _, t := range pats.Tuples() {
			fmt.Printf("  (%s)\n", strings.Join(t, ", "))
		}
	}
	fmt.Printf("\nshipped %d tuples; modeled response time %.3f; wall %v\n",
		res.ShippedTuples, res.ModeledTime, res.WallTime)
	if res.Retries > 0 {
		fmt.Printf("recovered from %d fault(s) with %d retried call(s)\n", res.Faults, res.Retries)
	}
	if *shipmat {
		fmt.Printf("\n%s", res.Shipment)
	}
	if *follow {
		if err := followDeltas(ctx, det, rules, os.Stdin, os.Stdout); err != nil {
			fatalf("follow: %v", err)
		}
	}
	if res.Partial {
		// A degraded run completed, but over reachable fragments only:
		// say so on stderr and exit with a code distinct from hard
		// failure (1) so callers can tell "partial answer" from "no
		// answer".
		fmt.Fprintf(os.Stderr,
			"cfddetect: partial result: excluded site(s) %v, coverage %.1f%%, %d retried call(s), %d fault(s)\n",
			res.ExcludedSites, 100*res.Coverage, res.Retries, res.Faults)
		os.Exit(3)
	}
}

// deltaLine is one stdin line of -follow: a delta for one site.
type deltaLine struct {
	Site    int        `json:"site"`
	Inserts [][]string `json:"inserts"`
	Deletes []int      `json:"deletes"`
}

// followDeltas consumes a JSON delta stream and serves detection
// incrementally: each applied delta ships only the changed tuples to
// the retained coordinators, and the per-rule violation counts plus
// both accounting channels are reported after every line.
func followDeltas(ctx context.Context, det *distcfd.Detector, rules []*distcfd.CFD, in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		if err := ctx.Err(); err != nil {
			return err
		}
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" || strings.HasPrefix(raw, "#") {
			continue
		}
		var dl deltaLine
		if err := json.Unmarshal([]byte(raw), &dl); err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		d := distcfd.Delta{Deletes: dl.Deletes}
		for _, t := range dl.Inserts {
			d.Inserts = append(d.Inserts, distcfd.Tuple(t))
		}
		res, err := det.DetectDelta(ctx, map[int]distcfd.Delta{dl.Site: d})
		if err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		counts := make([]string, len(rules))
		for i, c := range rules {
			counts[i] = fmt.Sprintf("%s=%d", displayName(c.Name, i), res.PerCFD[i].Len())
		}
		fmt.Fprintf(out, "delta@site %d (+%d -%d): %s | shipped %d delta tuple(s) (%d B) vs %d full-recompute\n",
			dl.Site, len(d.Inserts), len(d.Deletes), strings.Join(counts, " "),
			res.DeltaShippedTuples, res.DeltaShippedBytes, res.ShippedTuples)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("line %d: %v", line+1, err)
	}
	return nil
}

func displayName(name string, i int) string {
	if name == "" {
		return fmt.Sprintf("rule#%d", i+1)
	}
	return name
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cfddetect: "+format+"\n", args...)
	os.Exit(1)
}
