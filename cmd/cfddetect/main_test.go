package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// cliFixture builds cfddetect and writes the EMP data and two
// overlapping-LHS rules beside it.
func cliFixture(t *testing.T) (detect, dataPath, rulesPath string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	detect = filepath.Join(dir, "cfddetect")
	cmd := exec.Command("go", "build", "-o", detect, "./cmd/cfddetect")
	cmd.Dir = "../.."
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building cfddetect: %v\n%s", err, b)
	}
	dataPath = filepath.Join(dir, "emp.csv")
	f, err := os.Create(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := relation.WriteCSV(f, workload.EMPData()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rulesPath = filepath.Join(dir, "emp.cfd")
	rules := `phi1: [CC, zip] -> [street] : (44, _ || _), (31, _ || _)
phi3: [CC, AC] -> [city] : (44, 131 || EDI), (01, 908 || MH)
`
	if err := os.WriteFile(rulesPath, []byte(rules), 0o644); err != nil {
		t.Fatal(err)
	}
	return detect, dataPath, rulesPath
}

// TestCLIEndToEnd builds the binary and drives the documented
// workflow: detect violations, both centralized and distributed.
func TestCLIEndToEnd(t *testing.T) {
	detect, dataPath, rulesPath := cliFixture(t)

	for _, sites := range []string{"1", "3"} {
		var out bytes.Buffer
		cmd := exec.Command(detect,
			"-data", dataPath, "-rules", rulesPath, "-key", "id",
			"-sites", sites, "-algo", "pats")
		cmd.Stdout = &out
		cmd.Stderr = &out
		if err := cmd.Run(); err != nil {
			t.Fatalf("cfddetect -sites %s: %v\n%s", sites, err, out.String())
		}
		text := out.String()
		for _, want := range []string{
			"phi1: 2 violating pattern(s)",
			"phi3: 2 violating pattern(s)",
			"44, EH4 8LE",
			"44, 131",
		} {
			if !strings.Contains(text, want) {
				t.Errorf("-sites %s output missing %q:\n%s", sites, want, text)
			}
		}
	}

	// Error paths.
	if err := exec.Command(detect, "-rules", rulesPath).Run(); err == nil {
		t.Error("missing -data should fail")
	}
	if err := exec.Command(detect, "-data", dataPath, "-rules", rulesPath, "-algo", "bogus").Run(); err == nil {
		t.Error("unknown algorithm should fail")
	}
	b, err := exec.Command(detect, "-data", dataPath, "-rules", rulesPath, "-sigma", "prune").CombinedOutput()
	if err == nil || !strings.Contains(string(b), "off | check") {
		t.Errorf("-sigma prune = %v, want exit 1 naming the modes:\n%s", err, b)
	}
}

// TestCLIParallelUnclustered: -cluster=false makes every rule its own
// unit and -parallel only sizes the pool the units run on, so the two
// combine and the output does not depend on the worker count.
func TestCLIParallelUnclustered(t *testing.T) {
	detect, dataPath, rulesPath := cliFixture(t)
	run := func(parallel string) string {
		b, err := exec.Command(detect, "-data", dataPath, "-rules", rulesPath, "-key", "id",
			"-sites", "3", "-algo", "pats", "-cluster=false", "-parallel", parallel).CombinedOutput()
		if err != nil {
			t.Fatalf("cfddetect -cluster=false -parallel %s: %v\n%s", parallel, err, b)
		}
		// The summary line ends in the run's wall time.
		text, _, ok := strings.Cut(string(b), "; wall ")
		if !ok {
			t.Fatalf("no summary line:\n%s", b)
		}
		return text
	}
	if serial, pooled := run("0"), run("4"); pooled != serial {
		t.Errorf("-parallel 4 printed\n%s\nwant what -parallel 0 prints\n%s", pooled, serial)
	}
}

// TestCLIFollowDeltaStream drives -follow end to end: an initial
// detection, then JSON deltas on stdin, each answered with an
// incremental re-detection that ships only the delta.
func TestCLIFollowDeltaStream(t *testing.T) {
	out, dataPath, rulesPath := cliFixture(t)
	// Two deltas: a fresh violation pair at site 0, then its removal.
	stdin := strings.Join([]string{
		`# a comment line is skipped`,
		`{"site":0,"inserts":[["n1","Ada","MTS","44","131","1112223","NewStr","EDI","ZZ1","80k"],["n2","Lin","MTS","44","131","1112224","OtherStr","EDI","ZZ1","80k"]]}`,
		`{"site":1,"deletes":[0]}`,
	}, "\n") + "\n"
	var buf bytes.Buffer
	run := exec.Command(out, "-data", dataPath, "-rules", rulesPath, "-key", "id",
		"-sites", "3", "-algo", "pats", "-follow")
	run.Stdin = strings.NewReader(stdin)
	run.Stdout = &buf
	run.Stderr = &buf
	if err := run.Run(); err != nil {
		t.Fatalf("cfddetect -follow: %v\n%s", err, buf.String())
	}
	text := buf.String()
	for _, want := range []string{
		"delta@site 0 (+2 -0)",
		"delta@site 1 (+0 -1)",
		"delta tuple(s)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("-follow output missing %q:\n%s", want, text)
		}
	}
	// The injected (44, ZZ1) pair violates phi1: the first delta round
	// must report more phi1 patterns than the 2 the base data has.
	if !strings.Contains(text, "phi1=3") {
		t.Errorf("-follow did not pick up the injected violation:\n%s", text)
	}
}

// startSite runs a cfdsite child over one fragment and returns its
// address, read from the line the site prints once it listens.
func startSite(t *testing.T, site string, id int, frag *relation.Relation, extra ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), fmt.Sprintf("frag%d.csv", id))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := relation.WriteCSV(f, frag); err != nil {
		t.Fatal(err)
	}
	f.Close()
	cmd := exec.Command(site, append([]string{"-data", path, "-id", fmt.Sprint(id)}, extra...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	line, err := bufio.NewReader(stdout).ReadString('\n')
	_, addr, ok := strings.Cut(strings.TrimSpace(line), " tuples on ")
	if err != nil || !ok {
		t.Fatalf("site %d did not report its address: %q, %v", id, line, err)
	}
	go io.Copy(io.Discard, stdout)
	return addr
}

// TestCLIDegradedNeverReadsClean drives -policy degrade against cfdsite
// children, one of them crashed from its first work call: the run
// completes over the reachable fragments, exits 3 and names the
// excluded site and a coverage below 100 % on stderr — also for a rule
// set with no violation among the reachable fragments, whose empty
// answer must not read as a clean one.
func TestCLIDegradedNeverReadsClean(t *testing.T) {
	detect, _, rulesPath := cliFixture(t)
	site := filepath.Join(filepath.Dir(detect), "cfdsite")
	build := exec.Command("go", "build", "-o", site, "./cmd/cfdsite")
	build.Dir = "../.."
	if b, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cfdsite: %v\n%s", err, b)
	}
	h, err := partition.Uniform(workload.EMPData(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, h.N())
	for i, frag := range h.Fragments {
		var extra []string
		if i == 2 {
			extra = []string{"-fault-plan", "crash=1"}
		}
		addrs[i] = startSite(t, site, i, frag, extra...)
	}
	cleanRules := filepath.Join(filepath.Dir(rulesPath), "clean.cfd")
	if err := os.WriteFile(cleanRules, []byte("keyed: [id] -> [name] : (_ || _)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	coverage := regexp.MustCompile(`partial result: excluded site\(s\) \[2\], coverage ([0-9.]+)%`)
	for _, rules := range []string{rulesPath, cleanRules} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(detect, "-rules", rules, "-remote", strings.Join(addrs, ","), "-policy", "degrade")
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 3 {
			t.Fatalf("%s: cfddetect -policy degrade = %v, want exit 3\nstdout:\n%s\nstderr:\n%s", rules, err, stdout.String(), stderr.String())
		}
		m := coverage.FindStringSubmatch(stderr.String())
		if m == nil {
			t.Fatalf("%s: stderr lacks the partial-result line naming site 2:\n%s", rules, stderr.String())
		}
		if c, err := strconv.ParseFloat(m[1], 64); err != nil || c >= 100 {
			t.Errorf("%s: coverage %s%%, want below 100", rules, m[1])
		}
		if rules == cleanRules && !strings.Contains(stdout.String(), "keyed: 0 violating pattern(s)") {
			t.Errorf("the keyed rule found violations among the reachable fragments:\n%s", stdout.String())
		}
	}
}
