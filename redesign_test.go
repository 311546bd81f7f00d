package allarm_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	allarm "allarm"
)

// sameResult asserts two results carry identical metrics (everything a
// simulation determines; the identifying Benchmark name may differ, e.g.
// live run vs trace replay).
func sameResult(t *testing.T, label string, a, b *allarm.Result) {
	t.Helper()
	type m struct {
		RuntimeNs                       float64
		Accesses, Events                uint64
		PFEvictions, PFAllocs           uint64
		NoCBytes, NoCMessages           uint64
		EvictionMsgs, L2Misses          uint64
		LocalRequests, RemoteRequests   uint64
		LocalProbes, ProbesHidden       uint64
		UntrackedGrants, UncachedGrants uint64
		NoCEnergyPJ, PFEnergyPJ         float64
		DRAMEnergyPJ                    float64
	}
	of := func(r *allarm.Result) m {
		return m{
			r.RuntimeNs, r.Accesses, r.Events, r.PFEvictions, r.PFAllocs,
			r.NoCBytes, r.NoCMessages, r.EvictionMsgs, r.L2Misses,
			r.LocalRequests, r.RemoteRequests, r.LocalProbes, r.ProbesHidden,
			r.UntrackedGrants, r.UncachedGrants,
			r.NoCEnergyPJ, r.PFEnergyPJ, r.DRAMEnergyPJ,
		}
	}
	if of(a) != of(b) {
		t.Fatalf("%s: results differ:\n%+v\n%+v", label, of(a), of(b))
	}
}

// TestRunBenchmarkMatchesWorkloadRun: the RunBenchmarkCtx shortcut and the
// first-class Workload path are the same simulation, bit for bit.
func TestRunBenchmarkMatchesWorkloadRun(t *testing.T) {
	cfg := fastConfig()
	for _, pol := range []allarm.Policy{allarm.Baseline, allarm.ALLARM} {
		cfg.Policy = pol
		shim, err := allarm.RunBenchmarkCtx(context.Background(), cfg, "barnes")
		if err != nil {
			t.Fatal(err)
		}
		wl, err := allarm.BenchmarkWorkload("barnes", cfg.Threads, cfg.AccessesPerThread)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := allarm.Run(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, string(pol), shim, direct)
		if shim.Benchmark != direct.Benchmark {
			t.Fatalf("names differ: %q vs %q", shim.Benchmark, direct.Benchmark)
		}
	}
}

// TestPreRedesignGolden replays the simulator-performance matrix cells
// at seed 1 and asserts the simulated runtimes still match the values
// recorded before this redesign: registry-dispatched "baseline" and
// "allarm" are bit-identical to the pre-registry enum policies.
func TestPreRedesignGolden(t *testing.T) {
	golden := []struct {
		benchmark    string
		policy       string
		accesses     int
		simRuntimeNs float64
	}{
		{"ocean-cont", "baseline", 20_000, 466041.751},
		{"ocean-cont", "allarm", 20_000, 457571.254},
		{"blackscholes", "baseline", 60_000, 5490563.61},
		{"blackscholes", "allarm", 60_000, 5471663.78},
	}
	for _, g := range golden {
		if testing.Short() && g.accesses > 30_000 {
			continue // the large cells take seconds each
		}
		name := g.benchmark + "/" + g.policy
		pol, err := allarm.ParsePolicy(g.policy)
		if err != nil {
			t.Fatal(err)
		}
		cfg := allarm.ExperimentConfig()
		cfg.Seed = 1
		cfg.Policy = pol
		cfg.AccessesPerThread = g.accesses
		res, err := allarm.RunBenchmarkCtx(context.Background(), cfg, g.benchmark)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.RuntimeNs != g.simRuntimeNs {
			t.Fatalf("%s: simulated runtime %v, golden %v (pre-redesign behaviour changed)",
				name, res.RuntimeNs, g.simRuntimeNs)
		}
	}
}

// TestTraceRoundTripBitIdentical is the capture → replay acceptance
// check: a synthetic benchmark captured through the public API and
// replayed as a Workload produces results bit-identical to the live run,
// under both policies.
func TestTraceRoundTripBitIdentical(t *testing.T) {
	cfg := fastConfig()
	wl, err := allarm.BenchmarkWorkload("ocean-cont", cfg.Threads, cfg.AccessesPerThread)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := allarm.CaptureTrace(&buf, wl, cfg.Seed); err != nil {
		t.Fatal(err)
	}
	replay, err := allarm.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if replay.Threads() != wl.Threads() {
		t.Fatalf("replay threads = %d, want %d", replay.Threads(), wl.Threads())
	}
	for _, pol := range []allarm.Policy{allarm.Baseline, allarm.ALLARM} {
		cfg.Policy = pol
		live, err := allarm.Run(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := allarm.Run(cfg, replay)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, string(pol), live, replayed)
	}
}

// TestLoadTraceFromFile: the file-path constructor names the workload
// after the file and round-trips through the CLI capture format.
func TestLoadTraceFromFile(t *testing.T) {
	cfg := fastConfig()
	cfg.AccessesPerThread = 500
	wl, err := allarm.BenchmarkWorkload("barnes", cfg.Threads, cfg.AccessesPerThread)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/barnes.trace"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := allarm.CaptureTrace(f, wl, cfg.Seed); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := allarm.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name() != "barnes.trace" {
		t.Fatalf("name = %q", loaded.Name())
	}
	res, err := allarm.Run(cfg, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "barnes.trace" || res.Accesses != uint64(cfg.Threads*cfg.AccessesPerThread) {
		t.Fatalf("replay result wrong: %+v", res)
	}
	if _, err := allarm.LoadTrace(t.TempDir() + "/missing.trace"); err == nil {
		t.Fatal("missing trace accepted")
	}
}

// TestALLARMHystScheme: the bundled registry scheme runs correctly (the
// coherence checker stays silent), produces the new uncached grants, and
// is a genuinely distinct point between baseline and ALLARM.
func TestALLARMHystScheme(t *testing.T) {
	cfg := fastConfig()
	results := map[allarm.Policy]*allarm.Result{}
	for _, pol := range []allarm.Policy{allarm.Baseline, allarm.ALLARM, allarm.ALLARMHyst} {
		cfg.Policy = pol
		res, err := allarm.RunBenchmarkCtx(context.Background(), cfg, "dedup")
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		results[pol] = res
	}
	hyst := results[allarm.ALLARMHyst]
	if hyst.UncachedGrants == 0 {
		t.Fatal("hysteresis produced no uncached grants")
	}
	if hyst.UntrackedGrants == 0 {
		t.Fatal("hysteresis lost ALLARM's untracked local fills")
	}
	if results[allarm.Baseline].UncachedGrants != 0 || results[allarm.ALLARM].UncachedGrants != 0 {
		t.Fatal("built-in policies made uncached grants")
	}
	if hyst.RuntimeNs == results[allarm.ALLARM].RuntimeNs && hyst.PFAllocs == results[allarm.ALLARM].PFAllocs {
		t.Fatal("hysteresis is indistinguishable from ALLARM")
	}
	if hyst.RuntimeNs == results[allarm.Baseline].RuntimeNs && hyst.PFAllocs == results[allarm.Baseline].PFAllocs {
		t.Fatal("hysteresis is indistinguishable from baseline")
	}
}

// TestPolicyRegistry covers registration and parsing rules.
func TestPolicyRegistry(t *testing.T) {
	if err := allarm.RegisterPolicy("", func(allarm.PolicyContext) allarm.DirectoryPolicy { return nil }); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := allarm.RegisterPolicy("x-nil", nil); err == nil {
		t.Fatal("nil factory accepted")
	}
	if err := allarm.RegisterPolicy("allarm", func(allarm.PolicyContext) allarm.DirectoryPolicy { return nil }); err == nil {
		t.Fatal("built-in name re-registered")
	}

	for _, name := range []string{"baseline", "allarm", "allarm-hyst"} {
		p, err := allarm.ParsePolicy(name)
		if err != nil || p.String() != name {
			t.Fatalf("ParsePolicy(%q) = %v, %v", name, p, err)
		}
	}
	if p, err := allarm.ParsePolicy(""); err != nil || p != allarm.Baseline {
		t.Fatalf("empty policy parse = %v, %v", p, err)
	}
	if _, err := allarm.ParsePolicy("no-such-scheme"); err == nil || !strings.Contains(err.Error(), "allarm-hyst") {
		t.Fatalf("unknown policy error should list registered names, got %v", err)
	}
	if allarm.Policy("").String() != "baseline" {
		t.Fatal("zero Policy must print as baseline")
	}

	names := allarm.RegisteredPolicies()
	want := map[string]bool{"baseline": true, "allarm": true, "allarm-hyst": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("registry missing built-ins: %v (have %v)", want, names)
	}
}

// countingPolicy proves a user-registered scheme is what the machine
// actually consults.
type countingPolicy struct {
	misses *int
}

func (p countingPolicy) OnMiss(allarm.Miss) allarm.MissAction { *p.misses++; return allarm.Track }
func (p countingPolicy) ProbeLocalOnRemoteMiss(uint64) bool   { return false }

func TestCustomPolicyIsUsed(t *testing.T) {
	misses := 0
	err := allarm.RegisterPolicy("test-counting", func(ctx allarm.PolicyContext) allarm.DirectoryPolicy {
		if ctx.Nodes != 16 || ctx.InRange == nil {
			t.Errorf("bad context: %+v", ctx)
		}
		return countingPolicy{misses: &misses}
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.AccessesPerThread = 500
	cfg.Policy = "test-counting"
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	base := cfg
	base.Policy = allarm.Baseline
	res, err := allarm.RunBenchmarkCtx(context.Background(), cfg, "barnes")
	if err != nil {
		t.Fatal(err)
	}
	if misses == 0 {
		t.Fatal("registered policy never consulted")
	}
	ref, err := allarm.RunBenchmarkCtx(context.Background(), base, "barnes")
	if err != nil {
		t.Fatal(err)
	}
	// Track-everything with no probes is exactly the baseline.
	sameResult(t, "counting-vs-baseline", res, ref)
}

// badPolicy returns a fixed (possibly illegal) action for every miss.
type badPolicy struct {
	action allarm.MissAction
	probe  bool
}

func (p badPolicy) OnMiss(allarm.Miss) allarm.MissAction { return p.action }
func (p badPolicy) ProbeLocalOnRemoteMiss(uint64) bool   { return p.probe }

// TestIllegalPolicyDecisionsPanic: protocol-breaking decisions must be
// rejected loudly, not silently corrupt coherence.
func TestIllegalPolicyDecisionsPanic(t *testing.T) {
	register := func(name string, p allarm.DirectoryPolicy) {
		t.Helper()
		if err := allarm.RegisterPolicy(name, func(allarm.PolicyContext) allarm.DirectoryPolicy { return p }); err != nil {
			t.Fatal(err)
		}
	}
	register("test-remote-untracked", badPolicy{action: allarm.GrantUntracked, probe: true})
	register("test-uncached-write", badPolicy{action: allarm.GrantUncached, probe: true})

	for _, name := range []string{"test-remote-untracked", "test-uncached-write"} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: illegal decision did not panic", name)
				}
			}()
			cfg := fastConfig()
			cfg.CheckInvariants = false
			cfg.AccessesPerThread = 500
			cfg.Policy = allarm.Policy(name)
			_, _ = allarm.RunBenchmarkCtx(context.Background(), cfg, "dedup")
		})
	}
}

// TestNewWorkloadProgrammatic runs a hand-written generator — the third
// workload kind — under the invariant checker.
func TestNewWorkloadProgrammatic(t *testing.T) {
	const threads, accesses = 4, 2000
	wl, err := allarm.NewWorkload(allarm.WorkloadSpec{
		Name:    "stride-writers",
		Threads: threads,
		Stream: func(thread int, seed uint64) allarm.Stream {
			i := 0
			base := uint64(0x1000_0000 + thread*0x40_0000)
			return streamFunc(func() (allarm.Access, bool) {
				if i >= accesses {
					return allarm.Access{}, false
				}
				a := allarm.Access{
					VAddr: base + uint64(i%512)*64,
					Write: i%3 == 0,
					Think: 2 * allarm.Nanosecond,
				}
				i++
				return a, true
			})
		},
		Pages: func(fn func(page uint64, thread int)) {
			for th := 0; th < threads; th++ {
				base := uint64(0x1000_0000 + th*0x40_0000)
				for off := uint64(0); off < 512*64; off += 4096 {
					fn(base+off, th)
				}
			}
		},
		Key: "stride-writers-v1",
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Policy = allarm.ALLARM
	res, err := allarm.Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != threads*accesses {
		t.Fatalf("accesses = %d", res.Accesses)
	}
	// Pure thread-local data under ALLARM: all directory service is
	// local and untracked.
	if res.UntrackedGrants == 0 || res.RemoteRequests != 0 {
		t.Fatalf("thread-local workload tracked remotely: %+v", res)
	}

	// Spec validation.
	bad := []allarm.WorkloadSpec{
		{Threads: 1, Stream: wl.Stream},
		{Name: "x", Stream: wl.Stream},
		{Name: "x", Threads: 300, Stream: wl.Stream},
		{Name: "x", Threads: 1},
	}
	for i, spec := range bad {
		if _, err := allarm.NewWorkload(spec); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

// streamFunc adapts a closure to allarm.Stream.
type streamFunc func() (allarm.Access, bool)

func (f streamFunc) Next() (allarm.Access, bool) { return f() }

// TestRunWorkloadValidation: nil and oversized workloads are rejected.
func TestRunWorkloadValidation(t *testing.T) {
	cfg := fastConfig()
	if _, err := allarm.Run(cfg, nil); err == nil {
		t.Fatal("nil workload accepted")
	}
	wl, err := allarm.NewWorkload(allarm.WorkloadSpec{
		Name: "too-wide", Threads: cfg.Nodes + 1,
		Stream: func(int, uint64) allarm.Stream {
			return streamFunc(func() (allarm.Access, bool) { return allarm.Access{}, false })
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := allarm.Run(cfg, wl); err == nil {
		t.Fatal("workload wider than the machine accepted")
	}
	cfg.Policy = "registered-nowhere"
	if _, err := allarm.RunBenchmarkCtx(context.Background(), cfg, "barnes"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestMixedSweep is the acceptance scenario: one spec mixing a preset
// benchmark, a replayed trace and the registered allarm-hyst policy,
// with Dedup and the emitters working across all three.
func TestMixedSweep(t *testing.T) {
	cfg := fastConfig()
	cfg.AccessesPerThread = 1000
	cfg.CheckInvariants = false

	wl, err := allarm.BenchmarkWorkload("ocean-cont", cfg.Threads, cfg.AccessesPerThread)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := allarm.CaptureTrace(&buf, wl, cfg.Seed); err != nil {
		t.Fatal(err)
	}
	replay, err := allarm.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	hystCfg := cfg
	hystCfg.Policy = allarm.ALLARMHyst
	s := allarm.NewSweep(
		allarm.Job{Benchmark: "barnes", Config: cfg},
		allarm.Job{Workload: replay, Config: cfg},
		allarm.Job{Benchmark: "x264", Config: hystCfg},
	)
	// Duplicates of all three kinds dedup away.
	s.Add(s.Jobs...)
	s.Dedup()
	if s.Len() != 3 {
		t.Fatalf("dedup len = %d, want 3", s.Len())
	}

	results, err := allarm.RunSweep(context.Background(), s)
	if err == nil {
		err = allarm.FirstError(results)
	}
	if err != nil {
		t.Fatal(err)
	}
	if n := results[1].Job.WorkloadName(); n != "trace" {
		t.Fatalf("workload job name = %q", n)
	}
	if results[2].Result.UncachedGrants == 0 {
		t.Fatal("hyst job made no uncached grants")
	}

	var csv strings.Builder
	if err := (allarm.CSVEmitter{}).Emit(&csv, results); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"barnes,baseline", "trace,baseline", "x264,allarm-hyst"} {
		if !strings.Contains(csv.String(), want) {
			t.Fatalf("CSV missing %q:\n%s", want, csv.String())
		}
	}
}

// TestCrossWorkloads: the combinator expands jobs in argument order and
// mixes with CrossPolicies.
func TestCrossWorkloads(t *testing.T) {
	cfg := fastConfig()
	mk := func(name string) allarm.Workload {
		wl, err := allarm.NewWorkload(allarm.WorkloadSpec{
			Name: name, Threads: 2,
			Stream: func(int, uint64) allarm.Stream {
				return streamFunc(func() (allarm.Access, bool) { return allarm.Access{}, false })
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return wl
	}
	s := allarm.NewSweep(allarm.Job{Config: cfg}).
		CrossWorkloads(mk("alpha"), mk("beta")).
		CrossPolicies(allarm.Baseline, allarm.ALLARMHyst)
	if s.Len() != 4 {
		t.Fatalf("len = %d", s.Len())
	}
	want := []struct {
		name string
		pol  allarm.Policy
	}{
		{"alpha", allarm.Baseline}, {"alpha", allarm.ALLARMHyst},
		{"beta", allarm.Baseline}, {"beta", allarm.ALLARMHyst},
	}
	for i, w := range want {
		j := s.Jobs[i]
		if j.WorkloadName() != w.name || j.Config.Policy != w.pol {
			t.Fatalf("job %d = %s/%s, want %s/%s", i, j.WorkloadName(), j.Config.Policy, w.name, w.pol)
		}
	}
}

// TestExperimentVsDefaultsMatchShims: the Vs variants at opt=ALLARM are
// RunExperimentWith, byte for byte.
func TestExperimentVsDefaultsMatchShims(t *testing.T) {
	cfg := fastConfig()
	cfg.CheckInvariants = false
	cfg.AccessesPerThread = 1000
	for _, id := range []string{"table1", "fig2"} {
		var shim, vs strings.Builder
		if err := allarm.RunExperimentWith(context.Background(), &shim, cfg, id, nil); err != nil {
			t.Fatal(err)
		}
		if err := allarm.RunExperimentVs(context.Background(), &vs, cfg, id, allarm.ALLARM, nil); err != nil {
			t.Fatal(err)
		}
		if shim.String() != vs.String() {
			t.Fatalf("%s: Vs output differs from shim", id)
		}
	}
	// And a non-default policy flows through the figure machinery.
	var hyst strings.Builder
	if err := allarm.RunExperimentVs(context.Background(), &hyst, cfg, "fig3a", allarm.ALLARMHyst, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hyst.String(), "geomean") {
		t.Fatalf("fig3a under allarm-hyst rendered nothing:\n%s", hyst.String())
	}
}

// TestWorkloadKeys: dedup fingerprints distinguish the workload kinds.
func TestWorkloadKeys(t *testing.T) {
	cfg := fastConfig()
	a := allarm.Job{Benchmark: "barnes", Config: cfg}
	wl, err := allarm.BenchmarkWorkload("barnes", cfg.Threads, cfg.AccessesPerThread)
	if err != nil {
		t.Fatal(err)
	}
	b := allarm.Job{Workload: wl, Config: cfg}
	s := allarm.NewSweep(a, b).Dedup()
	// A preset job and its Workload twin are different spec kinds; both
	// stay (callers pick one style per sweep).
	if s.Len() != 2 {
		t.Fatalf("dedup merged distinct job kinds: %d", s.Len())
	}
	if fmt.Sprint(a.WorkloadName()) != "barnes" || b.WorkloadName() != "barnes" {
		t.Fatal("names wrong")
	}
}
