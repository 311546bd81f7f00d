package main

import (
	"context"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSimWorkloadsRepeat runs every simulation workload at 1/20 scale
// twice and checks that the runs agree bit for bit.
func TestSimWorkloadsRepeat(t *testing.T) {
	for _, w := range simWorkloads {
		job := w.job(defaultSeed, 20)
		a, b := simulate(job, nil), simulate(job, nil)
		if a.Error != "" || b.Error != "" {
			t.Fatalf("%s: %q / %q", w.name, a.Error, b.Error)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: digests %s and %s differ", w.name, a.Digest, b.Digest)
		}
		if a.Counts["workload.accesses"] == 0 || a.Counts["sim.events"] == 0 ||
			len(a.EmitNs) != emitBlocks || len(a.SetupNs) != setupPerSim {
			t.Errorf("%s: empty sample %+v", w.name, a)
		}
	}
}

// TestTracedSimulation checks a traced simulation: the same digest as an
// untraced one, a CPU profile, and setup/warmup/roi/result spans that
// tile the simulation in order.
func TestTracedSimulation(t *testing.T) {
	job := simWorkloads[1].job(defaultSeed, 20)
	prof, err := os.Create(filepath.Join(t.TempDir(), "sim.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	s := simulate(job, prof)
	if err := prof.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Error != "" {
		t.Fatal(s.Error)
	}
	if want := simulate(job, nil).Digest; s.Digest != want {
		t.Errorf("traced digest %s, untraced %s", s.Digest, want)
	}
	names := []string{"sim", "setup", "warmup", "roi", "result"}
	if len(s.Spans) != len(names) {
		t.Fatalf("spans %+v", s.Spans)
	}
	for i, sp := range s.Spans {
		if sp.Name != names[i] || sp.End < sp.Start {
			t.Errorf("span %d: %+v", i, sp)
		}
		if i > 1 && sp.Start != s.Spans[i-1].End {
			t.Errorf("span %s starts at %d, %s ended at %d", sp.Name, sp.Start, s.Spans[i-1].Name, s.Spans[i-1].End)
		}
	}
	if s.Spans[2].End == s.Spans[2].Start {
		t.Errorf("warmup span is empty: the ROI boundary was not observed")
	}
	if info, err := os.Stat(prof.Name()); err != nil || info.Size() == 0 {
		t.Errorf("no CPU profile written: %v", err)
	}
}

// TestServed runs the served workload at tiny scale against daemons
// built into a temporary directory, untraced and traced.
func TestServed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the daemons")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	ctx := context.Background()
	if err := buildDaemons(ctx, root, bin); err != nil {
		t.Fatal(err)
	}
	o := options{root: t.TempDir(), binDir: bin, seed: defaultSeed, seconds: 0.5, boots: 2}
	rep := runServed(ctx, o)
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 5 {
		t.Fatalf("untraced: %+v", rep)
	}
	for _, s := range endToEnd {
		if v := rep.Metrics[s.name].Value; v <= 0 {
			t.Errorf("untraced %s = %v, want > 0", s.name, v)
		}
	}

	o.trace, o.seconds = true, 1.5
	rep = runServed(ctx, o)
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("traced: %+v", rep)
	}
	for _, n := range []string{"fleet.overhead_p50_ms", "server.hit_p50_ms", "server.job_run_ms", "sim.events", "sim.cpu_share", "span.wait_ms"} {
		if v := rep.Metrics[n].Value; v <= 0 {
			t.Errorf("traced %s = %v, want > 0", n, v)
		}
	}
	if _, err := os.Stat(filepath.Join(o.root, "bench", "out", "trace-served.json")); err != nil {
		t.Error(err)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"allarm/internal/sim.(*Engine).Run":                                    "sim",
		"allarm/internal/sim.(*FreeList[allarm/internal/system.delivery]).Get": "sim",
		"allarm/internal/core.(*DirCtrl).HandleMsg":                            "core",
		"allarm/internal/energy.Compute":                                       "system",
		"allarm.pubStream.Next":                                                "workload",
		"allarm.CSVEmitter.EmitRecords":                                        "codec",
		"allarm.buildWorkloadMachine":                                          "system",
		"runtime.mallocgc":                                                     "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                         "runtime",
		"aeshashbody":                            "runtime",
		"internal/runtime/syscall.Syscall6":      "transport",
		"net/http.(*conn).serve":                 "transport",
		"encoding/json.checkValid":               "codec",
		"allarm/internal/fleet.(*Router).lookup": "fleet",
		"fmt.Fprintf":                            "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
	check := func(kind string, got []spec, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g != (spec{w.name, w.unit, w.better, w.bound}) {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestGuard keeps the benchmark independent of the code it must survive:
// no import of the serving internals a merge will reshape, and no use of
// names scheduled for deletion.
func TestGuard(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	retired := regexp.MustCompile(`\bSimThreads\b|-sim-threads|-request-timeout|\bRun(Benchmark|MultiProcess|Experiment)\(`)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		ast, err := parser.ParseFile(token.NewFileSet(), f, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range ast.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p == "allarm/internal/server" || p == "allarm/internal/fleet" {
				t.Errorf("%s imports %s", f, p)
			}
		}
		if f == "bench_test.go" {
			continue // this file spells the patterns out
		}
		if m := retired.Find(src); m != nil {
			t.Errorf("%s uses %q, which is scheduled for deletion", f, m)
		}
	}
}
