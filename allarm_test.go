package allarm_test

import (
	"context"
	"io"
	"strings"
	"testing"

	allarm "allarm"
)

// fastConfig returns a configuration small enough for unit tests, with
// the coherence invariant checker enabled.
func fastConfig() allarm.Config {
	cfg := allarm.ExperimentConfig()
	cfg.AccessesPerThread = 2_000
	cfg.CheckInvariants = true
	return cfg
}

// pair is one benchmark's baseline and ALLARM results.
type pair struct{ Base, Opt *allarm.Result }

// runPairs runs each benchmark under the baseline and ALLARM, failing
// tb on any error.
func runPairs(tb testing.TB, cfg allarm.Config, benchmarks ...string) []pair {
	tb.Helper()
	s := allarm.NewSweep(allarm.Job{Config: cfg}).
		CrossBenchmarks(benchmarks...).
		CrossPolicies(allarm.Baseline, allarm.ALLARM)
	results, err := allarm.RunSweep(context.Background(), s)
	if err == nil {
		err = allarm.FirstError(results)
	}
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]pair, 0, len(results)/2)
	for i := 0; i+1 < len(results); i += 2 {
		out = append(out, pair{results[i].Result, results[i+1].Result})
	}
	return out
}

// experimentTable renders experiment id as allarm-sim -exp does: its
// sweep run by r (nil: a default Runner), then RenderExperiment.
func experimentTable(ctx context.Context, w io.Writer, cfg allarm.Config, id string, opt allarm.Policy, r *allarm.Runner) error {
	s, err := allarm.ExperimentSweep(cfg, id, opt)
	if err != nil {
		return err
	}
	if r == nil {
		r = &allarm.Runner{}
	}
	results, err := r.Run(ctx, s)
	if err == nil {
		err = allarm.FirstError(results)
	}
	if err != nil {
		return err
	}
	return allarm.RenderExperiment(w, cfg, id, opt, results)
}

func TestDefaultConfigIsTableI(t *testing.T) {
	c := allarm.DefaultConfig()
	if c.Nodes != 16 || c.MeshW != 4 || c.MeshH != 4 {
		t.Fatal("topology not Table I")
	}
	if c.L1Bytes != 32<<10 || c.L2Bytes != 256<<10 || c.PFBytes != 512<<10 {
		t.Fatal("SRAM sizes not Table I")
	}
	if c.DRAMNs != 60 || c.LinkNs != 10 || c.CacheNs != 1 || c.DirNs != 1 {
		t.Fatal("latencies not Table I")
	}
	if c.CtrlMsgBytes != 8 || c.DataMsgBytes != 72 || c.FlitBytes != 4 || c.LinkBytesPerNs != 8 {
		t.Fatal("NoC parameters not Table I")
	}
	if c.MemMiBPerNode != 128 {
		t.Fatal("memory not Table I")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExperimentConfigPreservesRatios(t *testing.T) {
	d, e := allarm.DefaultConfig(), allarm.ExperimentConfig()
	if e.PFBytes*allarm.ExperimentScale != d.PFBytes {
		t.Fatal("PF not scaled")
	}
	if e.PFBytes != 2*e.L2Bytes {
		t.Fatal("PF coverage no longer 2x L2")
	}
	if e.L2Bytes/e.L1Bytes != d.L2Bytes/d.L1Bytes {
		t.Fatal("L1:L2 ratio changed")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*allarm.Config){
		func(c *allarm.Config) { c.Threads = 0 },
		func(c *allarm.Config) { c.AccessesPerThread = 0 },
		func(c *allarm.Config) { c.Nodes = 15 },
		func(c *allarm.Config) { c.L1Bytes = 0 },
		func(c *allarm.Config) { c.MemMiBPerNode = 0 },
		func(c *allarm.Config) { c.LinkBytesPerNs = 0 },
		func(c *allarm.Config) { c.MemPolicy = 1 }, // next-touch, retired
		func(c *allarm.Config) {
			c.ALLARMRanges = []allarm.AddrRange{{Start: 5, End: 5}}
		},
	}
	for i, mutate := range bad {
		c := allarm.DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestRunProducesMetrics(t *testing.T) {
	res, err := allarm.Job{Benchmark: "barnes", Config: fastConfig()}.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 16*2000 {
		t.Fatalf("accesses = %d", res.Accesses)
	}
	if res.RuntimeNs <= 0 || res.L2Misses == 0 || res.NoCBytes == 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if lf := res.LocalFraction(); lf <= 0 || lf >= 1 {
		t.Fatalf("local fraction %v", lf)
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if _, err := (allarm.Job{Benchmark: "nope", Config: fastConfig()}).RunCtx(context.Background()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRunPairSameSeedComparable(t *testing.T) {
	p := runPairs(t, fastConfig(), "ocean-cont")[0]
	base, opt := p.Base, p.Opt
	if base.PolicyUsed != allarm.Baseline || opt.PolicyUsed != allarm.ALLARM {
		t.Fatal("policies mislabelled")
	}
	if base.Accesses != opt.Accesses {
		t.Fatal("pair ran different workloads")
	}
	if opt.UntrackedGrants == 0 {
		t.Fatal("ALLARM run produced no untracked grants")
	}
	if base.UntrackedGrants != 0 {
		t.Fatal("baseline produced untracked grants")
	}
	c := allarm.Compare(base, opt)
	if c.Speedup <= 0 {
		t.Fatalf("speedup %v", c.Speedup)
	}
	// The paper's core claim at any scale: ALLARM never allocates more
	// probe-filter entries than the baseline.
	if opt.PFAllocs > base.PFAllocs {
		t.Fatalf("ALLARM allocated more entries: %d > %d", opt.PFAllocs, base.PFAllocs)
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := fastConfig()
	a, err := allarm.Job{Benchmark: "cholesky", Config: cfg}.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := allarm.Job{Benchmark: "cholesky", Config: cfg}.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.RuntimeNs != b.RuntimeNs || a.NoCBytes != b.NoCBytes || a.PFEvictions != b.PFEvictions {
		t.Fatal("identical configs produced different results")
	}
	cfg.Seed = 999
	c, err := allarm.Job{Benchmark: "cholesky", Config: cfg}.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if c.RuntimeNs == a.RuntimeNs && c.NoCBytes == a.NoCBytes {
		t.Fatal("different seeds produced identical results")
	}
}

func TestALLARMRangesDisableEverything(t *testing.T) {
	cfg := fastConfig()
	cfg.Policy = allarm.ALLARM
	// Enable ALLARM only in the top half of each node's DRAM; the bump
	// allocator never reaches it, so the run must behave like baseline.
	nodeBytes := uint64(cfg.MemMiBPerNode) << 20
	for n := uint64(0); n < uint64(cfg.Nodes); n++ {
		base := n * nodeBytes
		cfg.ALLARMRanges = append(cfg.ALLARMRanges,
			allarm.AddrRange{Start: base + nodeBytes/2, End: base + nodeBytes})
	}
	res, err := allarm.Job{Benchmark: "barnes", Config: cfg}.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.UntrackedGrants != 0 {
		t.Fatalf("range-disabled ALLARM made %d untracked grants", res.UntrackedGrants)
	}
}

func TestMultiProcessRun(t *testing.T) {
	cfg := fastConfig()
	mp := allarm.DefaultMultiProcess()
	res, err := allarm.Job{Benchmark: "barnes", Config: cfg, MultiProcess: &mp}.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 2*2000 {
		t.Fatalf("accesses = %d", res.Accesses)
	}
	// Two separate address spaces: every page is process-local, so under
	// ALLARM nearly all requests are local and PF allocations tiny.
	cfg.Policy = allarm.ALLARM
	opt, err := allarm.Job{Benchmark: "barnes", Config: cfg, MultiProcess: &mp}.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if opt.PFAllocs >= res.PFAllocs {
		t.Fatalf("multi-process ALLARM allocs %d >= baseline %d", opt.PFAllocs, res.PFAllocs)
	}
}

func TestMultiProcessValidation(t *testing.T) {
	cfg := fastConfig()
	mp := allarm.DefaultMultiProcess()
	mp.Copies = 99
	if _, err := (allarm.Job{Benchmark: "barnes", Config: cfg, MultiProcess: &mp}).RunCtx(context.Background()); err == nil {
		t.Fatal("too many copies accepted")
	}
	mp = allarm.DefaultMultiProcess()
	if _, err := (allarm.Job{Benchmark: "nope", Config: cfg, MultiProcess: &mp}).RunCtx(context.Background()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestBenchmarksList(t *testing.T) {
	names := allarm.Benchmarks()
	if len(names) != 8 || names[0] != "barnes" || names[7] != "x264" {
		t.Fatalf("benchmarks = %v", names)
	}
	mp := allarm.MultiProcessBenchmarks()
	if len(mp) != 4 {
		t.Fatalf("multi-process benchmarks = %v", mp)
	}
	// Mutating the returned slice must not corrupt the library's copy.
	names[0] = "corrupted"
	if allarm.Benchmarks()[0] != "barnes" {
		t.Fatal("Benchmarks returns a shared slice")
	}
}

func TestRunExperimentTable1(t *testing.T) {
	var sb strings.Builder
	if err := experimentTable(context.Background(), &sb, fastConfig(), "table1", allarm.ALLARM, nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"4x4 mesh", "512kB", "60ns", "8/72 bytes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 missing %q:\n%s", want, out)
		}
	}
}

func TestRunExperimentArea(t *testing.T) {
	var sb strings.Builder
	if err := experimentTable(context.Background(), &sb, fastConfig(), "area", allarm.ALLARM, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "70.89") {
		t.Fatalf("area table missing paper value:\n%s", sb.String())
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	var sb strings.Builder
	if err := experimentTable(context.Background(), &sb, fastConfig(), "fig99", allarm.ALLARM, nil); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentFig2(t *testing.T) {
	var sb strings.Builder
	cfg := fastConfig()
	cfg.CheckInvariants = false // speed: eight runs
	if err := experimentTable(context.Background(), &sb, cfg, "fig2", allarm.ALLARM, nil); err != nil {
		t.Fatal(err)
	}
	for _, b := range allarm.Benchmarks() {
		if !strings.Contains(sb.String(), b) {
			t.Fatalf("fig2 missing %s:\n%s", b, sb.String())
		}
	}
}

func TestSnoopHidingOnlyUnderALLARM(t *testing.T) {
	p := runPairs(t, fastConfig(), "fluidanimate")[0]
	base, opt := p.Base, p.Opt
	if base.LocalProbes != 0 {
		t.Fatal("baseline issued local probes")
	}
	if opt.LocalProbes == 0 {
		t.Fatal("ALLARM issued no local probes")
	}
	if f := opt.SnoopHiddenFraction(); f < 0 || f > 1 {
		t.Fatalf("hidden fraction %v", f)
	}
}
