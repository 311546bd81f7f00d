// Command bench is the repository's benchmark: it measures the ALLARM
// simulator and its serving stack from outside, through public surfaces
// only, on four workloads, and checks that every output is correct.
//
// Run it from the repository root (see README.md):
//
//	bash bench/run.sh                          # every workload, end-to-end metrics
//	bash bench/run.sh -workload hothome -seed 3 -seconds 25
//	bash bench/run.sh -workload served -trace 1  # per-layer metrics
//	bash bench/run.sh -ab HEAD~1 -pairs 10     # A/B against a git revision
//
// The last line of standard output is one JSON object; the lines before
// it print every metric by name with its unit.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

const (
	defaultSeed = 1
	// buildDir, under the repository root, holds every build output,
	// profile and daemon binary the benchmark makes.
	buildDir = ".bench_build"
)

// goldens are the committed digests at the default seed: one per
// simulation workload (see digest) and "served-hit-csv", the sha256 of
// the hit sweep's CSV.
//
//go:embed golden.json
var goldenJSON []byte

var goldens = func() map[string]string {
	m := make(map[string]string)
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic("bench: golden.json: " + err.Error())
	}
	return m
}()

// options are one benchmark run's settings.
type options struct {
	root    string // repository root
	exe     string // this binary, re-executed for child processes
	binDir  string // where the daemons are built
	seed    uint64
	seconds float64 // measured seconds per workload
	trace   bool
	boots   int // fleet boots timed for the served workload's set-up
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "all", "workload: threadlocal, hothome, multiprocess, served or all")
		seed     = flag.Uint64("seed", defaultSeed, "workload seed")
		seconds  = flag.Float64("seconds", 25, "seconds measured per workload")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics instead")
		ab       = flag.String("ab", "", "git revision to A/B against the working tree")
		pairs    = flag.Int("pairs", 10, "A/B: pairs of passes")
		child    = flag.Bool("child", false, "internal: run one batch of simulations as a child process")
		profile  = flag.String("profile", "", "internal: directory a traced sim child writes CPU profiles to")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		return 2
	}
	if *child {
		return runChild(*workload, *seed, *profile)
	}
	names := workloadNames()
	if *workload != "all" {
		names = []string{*workload}
		if _, ok := findSimWorkload(*workload); !ok && *workload != servedName {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want %s or all)\n", *workload, strings.Join(workloadNames(), ", "))
			return 2
		}
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	o := options{
		root: root, exe: exe, binDir: filepath.Join(root, buildDir, "bin"),
		seed: *seed, seconds: *seconds, trace: *trace == 1, boots: 9,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *ab != "" {
		if err := runAB(ctx, o, *ab, *pairs, names); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	reports, err := runWorkloads(ctx, o, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printTable(names, reports)
	ok := true
	for _, r := range reports {
		ok = ok && r.Correct
	}
	var last any = reports[0]
	if len(reports) > 1 {
		last = pass{Correct: ok, Workloads: reportMap(names, reports)}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !ok {
		return 1
	}
	return 0
}

// pass is the last line of a run over several workloads.
type pass struct {
	Correct   bool              `json:"correct"`
	Workloads map[string]report `json:"workloads"`
}

func reportMap(names []string, reports []report) map[string]report {
	m := make(map[string]report, len(names))
	for i, n := range names {
		m[n] = reports[i]
	}
	return m
}

// findRoot returns the repository root: the working directory, or its
// parent when run from bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module allarm\n") {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("no allarm checkout here: run from the repository root")
}

// runChild is a child process's whole life: one batch of simulations,
// written to standard output.
func runChild(workload string, seed uint64, profileDir string) int {
	w, ok := findSimWorkload(workload)
	err := fmt.Errorf("unknown simulation workload %q", workload)
	if ok {
		err = runSimChild(w, seed, profileDir, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

// runWorkloads runs the named workloads and returns their reports in
// order. Simulation workloads advance in rotating batches, so host drift
// spreads evenly over them; the served workload runs last.
func runWorkloads(ctx context.Context, o options, names []string) ([]report, error) {
	var runs []*simRun
	served := false
	for _, n := range names {
		if w, ok := findSimWorkload(n); ok {
			r, err := newSimRun(w, o)
			if err != nil {
				return nil, err
			}
			runs = append(runs, r)
		} else {
			served = true
		}
	}
	if served {
		if err := buildDaemons(ctx, o.root, o.binDir); err != nil {
			return nil, err
		}
	}
	for round := 0; ctx.Err() == nil; round++ {
		active := false
		for _, r := range runs {
			if !r.done() {
				active = true
				r.batch(ctx, o.trace && round%2 == 1)
			}
		}
		if !active {
			break
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out []report
	for _, r := range runs {
		out = append(out, r.report(ctx))
	}
	if served {
		out = append(out, runServed(ctx, o))
	}
	return out, nil
}

// printTable prints every metric of every report by name with its unit.
func printTable(names []string, reports []report) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	for i, r := range reports {
		fmt.Fprintf(tw, "%s\tcorrect\t%t\t(%d of %d operations failed)\n", names[i], r.Correct, r.Failed, r.Attempted)
		specs := endToEnd
		if _, ok := r.Metrics[perLayer[0].name]; ok {
			specs = perLayer
		}
		for _, s := range specs {
			m := r.Metrics[s.name]
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\n", names[i], s.name, m.Value, m.Unit)
		}
	}
	tw.Flush()
}
