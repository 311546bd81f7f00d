package system

import (
	"fmt"
	"testing"

	"allarm/internal/core"
	"allarm/internal/mem"
	"allarm/internal/noc"
	"allarm/internal/sim"
	"allarm/internal/workload"
)

// testPolicy is a built-in directory policy under its registry name.
type testPolicy struct {
	name string
	new  core.PolicyFactory
}

var (
	baselinePolicy = testPolicy{"baseline", core.NewBaseline}
	allarmPolicy   = testPolicy{"allarm", core.NewALLARM}
)

func (p testPolicy) String() string { return p.name }

// preplace pre-faults wl's pages at their first toucher's node.
func preplace(t *testing.T, space *mem.AddressSpace, wl workload.Workload, nodeOf func(thread int) mem.NodeID) {
	t.Helper()
	wl.ForEachPage(func(page uint64, thread int) {
		if _, err := space.Translate(mem.VAddr(page), nodeOf(thread)); err != nil {
			t.Fatal(err)
		}
	})
}

// testConfig returns a small 2x2 machine with invariant checking on.
func testConfig(policy testPolicy) Config {
	var everywhere *core.RangeSet
	return Config{
		Nodes: 4, MeshW: 2, MeshH: 2,
		L1Bytes: 4 << 10, L1Ways: 2,
		L2Bytes: 16 << 10, L2Ways: 4,
		PFCoverage: 32 << 10, PFWays: 4,
		Alloc: func(n mem.NodeID) core.DirectoryPolicy {
			return policy.new(core.PolicyContext{Node: int(n), InRange: everywhere.Enabled})
		},
		AllocName:    policy.name,
		CacheLatency: 1 * sim.Nanosecond,
		DirLatency:   1 * sim.Nanosecond,
		DRAMLatency:  60 * sim.Nanosecond,
		DRAMInterval: 4 * sim.Nanosecond,
		NoC: noc.Config{
			Width: 2, Height: 2,
			LinkLatency:   10 * sim.Nanosecond,
			LinkBandwidth: 8,
			FlitBytes:     4,
			ControlBytes:  8,
			DataBytes:     72,
			LocalLatency:  1 * sim.Nanosecond,
		},
		MemBytesPerNode: 8 << 20,
		CheckInvariants: true,
		MaxEvents:       200_000_000,
	}
}

// table1Config returns the full 16-node Table I machine.
func table1Config(policy testPolicy) Config {
	c := testConfig(policy)
	c.Nodes, c.MeshW, c.MeshH = 16, 4, 4
	c.NoC.Width, c.NoC.Height = 4, 4
	c.L1Bytes, c.L1Ways = 32<<10, 4
	c.L2Bytes, c.L2Ways = 256<<10, 4
	c.PFCoverage, c.PFWays = 512<<10, 4
	return c
}

// synthetic builds a generator the test knows to be valid.
func synthetic(t testing.TB, p workload.Params) *workload.Synthetic {
	t.Helper()
	w, err := workload.NewSynthetic(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func stressParams(threads, accesses int) workload.Params {
	return workload.Params{
		Name: "stress", Threads: threads, AccessesPerThread: accesses,
		PrivateBytes: 32 << 10, PrivateFrac: 0.5,
		PrivateWriteFrac: 0.4, PrivateHot: 0.5, SeqRunFrac: 0.4,
		SharedBytes: 64 << 10, SharedWriteFrac: 0.45,
		Pattern: workload.Uniform, Init: workload.InterleavedInit,
		Think: 1 * workload.Nanosecond, ThinkJitter: 1 * workload.Nanosecond,
	}
}

func runStress(t *testing.T, policy testPolicy, seed uint64) *RunResult {
	t.Helper()
	_, res := stressMachine(t, policy, seed, 3000)
	return res
}

// stressMachine runs the stress workload with the given accesses per
// thread on a checked 2x2 machine and returns the quiesced machine.
func stressMachine(t *testing.T, policy testPolicy, seed uint64, accesses int) (*Machine, *RunResult) {
	t.Helper()
	cfg := testConfig(policy)
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	wl := synthetic(t, stressParams(4, accesses))
	space := m.NewAddressSpace()
	preplace(t, space, wl, func(th int) mem.NodeID { return mem.NodeID(th % cfg.Nodes) })
	var specs []ThreadSpec
	for th := 0; th < 4; th++ {
		specs = append(specs, ThreadSpec{
			Node: mem.NodeID(th), Stream: wl.Stream(th, seed), Space: space,
			Name: fmt.Sprintf("stress/%d", th),
		})
	}
	res, err := m.Run(specs)
	if err != nil {
		t.Fatalf("Run(%v, seed %d): %v", policy, seed, err)
	}
	return m, res
}

// TestStressInvariantsBaseline runs a write-heavy, tightly shared workload
// under the baseline policy with the full invariant checker enabled.
func TestStressInvariantsBaseline(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		res := runStress(t, baselinePolicy, seed)
		if res.Accesses == 0 || res.Time <= 0 {
			t.Fatalf("degenerate run: %+v", res.Totals())
		}
	}
}

// TestStressInvariantsALLARM does the same under ALLARM, which exercises
// the untracked-line and local-probe paths.
func TestStressInvariantsALLARM(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		res := runStress(t, allarmPolicy, seed)
		tot := res.Totals()
		if tot.UntrackedGrants == 0 {
			t.Errorf("seed %d: ALLARM run produced no untracked grants", seed)
		}
	}
}

// TestDeterminism verifies bit-identical metrics for identical seeds.
func TestDeterminism(t *testing.T) {
	a := runStress(t, allarmPolicy, 42)
	b := runStress(t, allarmPolicy, 42)
	if a.Time != b.Time || a.Accesses != b.Accesses {
		t.Fatalf("runtime differs: %v/%d vs %v/%d", a.Time, a.Accesses, b.Time, b.Accesses)
	}
	if a.NoC != b.NoC {
		t.Fatalf("NoC stats differ: %+v vs %+v", a.NoC, b.NoC)
	}
	ta, tb := a.Totals(), b.Totals()
	if ta != tb {
		t.Fatalf("totals differ:\n%+v\n%+v", ta, tb)
	}
}

// TestALLARMPrivateOnlyWorkload checks the paper's headline property: a
// workload touching only thread-private data allocates no probe-filter
// entries and sends no coherence traffic under ALLARM.
func TestALLARMPrivateOnlyWorkload(t *testing.T) {
	cfg := testConfig(allarmPolicy)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wl := synthetic(t, workload.Params{
		Name: "private-only", Threads: 4, AccessesPerThread: 4000,
		PrivateBytes: 64 << 10, PrivateFrac: 1.0,
		PrivateWriteFrac: 0.5, PrivateHot: 0.3, SeqRunFrac: 0.5,
		SharedBytes: mem.PageBytes, // minimal, never accessed
		Pattern:     workload.Uniform, Init: workload.InterleavedInit,
		Think: 1 * workload.Nanosecond,
	})
	space := m.NewAddressSpace()
	preplace(t, space, wl, func(th int) mem.NodeID { return mem.NodeID(th) })
	var specs []ThreadSpec
	for th := 0; th < 4; th++ {
		specs = append(specs, ThreadSpec{
			Node: mem.NodeID(th), Stream: wl.Stream(th, 7), Space: space, Name: "p",
		})
	}
	res, err := m.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Totals()
	if tot.PFAllocs != 0 {
		t.Errorf("private-only ALLARM run allocated %d PF entries, want 0", tot.PFAllocs)
	}
	if tot.PFEvictions != 0 {
		t.Errorf("private-only ALLARM run evicted %d PF entries, want 0", tot.PFEvictions)
	}
	if res.NoC.Bytes != 0 {
		t.Errorf("private-only ALLARM run sent %d NoC bytes, want 0", res.NoC.Bytes)
	}
	if tot.RemoteRequests != 0 {
		t.Errorf("private-only run saw %d remote requests, want 0", tot.RemoteRequests)
	}
}

// TestBaselinePrivateOnlyWorkload contrasts the baseline: the same
// workload allocates entries for every tracked line.
func TestBaselinePrivateOnlyWorkload(t *testing.T) {
	cfg := testConfig(baselinePolicy)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wl := synthetic(t, workload.Params{
		Name: "private-only", Threads: 4, AccessesPerThread: 4000,
		PrivateBytes: 64 << 10, PrivateFrac: 1.0,
		PrivateWriteFrac: 0.5, PrivateHot: 0.3, SeqRunFrac: 0.5,
		SharedBytes: mem.PageBytes,
		Pattern:     workload.Uniform, Init: workload.InterleavedInit,
		Think: 1 * workload.Nanosecond,
	})
	space := m.NewAddressSpace()
	preplace(t, space, wl, func(th int) mem.NodeID { return mem.NodeID(th) })
	var specs []ThreadSpec
	for th := 0; th < 4; th++ {
		specs = append(specs, ThreadSpec{
			Node: mem.NodeID(th), Stream: wl.Stream(th, 7), Space: space, Name: "p",
		})
	}
	res, err := m.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Totals()
	if tot.PFAllocs == 0 {
		t.Errorf("baseline run allocated no PF entries")
	}
	// 64 KiB private per thread vs 16 KiB L2: capacity evictions force
	// PF churn in the baseline.
	if tot.PFEvictions == 0 {
		t.Log("note: baseline private-only run had no PF evictions (PF large enough)")
	}
}

// TestFull16NodeBothPolicies exercises the full Table I geometry with a
// sharing-heavy workload under both policies.
func TestFull16NodeBothPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine stress skipped in -short")
	}
	for _, pol := range []testPolicy{baselinePolicy, allarmPolicy} {
		cfg := table1Config(pol)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wl := synthetic(t, workload.Params{
			Name: "full16", Threads: 16, AccessesPerThread: 4000,
			PrivateBytes: 128 << 10, PrivateFrac: 0.5,
			PrivateWriteFrac: 0.35, PrivateHot: 0.4, SeqRunFrac: 0.5,
			SharedBytes: 1 << 20, SharedWriteFrac: 0.35,
			Pattern: workload.Stencil, Init: workload.PartitionedInit,
			NeighborFrac: 0.2,
			Think:        2 * workload.Nanosecond, ThinkJitter: 1 * workload.Nanosecond,
		})
		space := m.NewAddressSpace()
		preplace(t, space, wl, func(th int) mem.NodeID { return mem.NodeID(th) })
		var specs []ThreadSpec
		for th := 0; th < 16; th++ {
			specs = append(specs, ThreadSpec{
				Node: mem.NodeID(th), Stream: wl.Stream(th, 99), Space: space, Name: "f",
			})
		}
		if _, err := m.Run(specs); err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
	}
}

// TestMsgPoolRecycleSteadyState checks the message pool's recycle
// discipline end to end: after a run quiesces, every pooled message the
// controllers allocated has been released back (no leaks), and the
// steady state runs on a small recycled working set rather than fresh
// allocations. The CI race job runs this under -race.
func TestMsgPoolRecycleSteadyState(t *testing.T) {
	for _, policy := range []testPolicy{baselinePolicy, allarmPolicy} {
		cfg := testConfig(policy)
		m, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		wl := synthetic(t, stressParams(4, 3000))
		space := m.NewAddressSpace()
		preplace(t, space, wl, func(th int) mem.NodeID { return mem.NodeID(th % cfg.Nodes) })
		var specs []ThreadSpec
		for th := 0; th < 4; th++ {
			specs = append(specs, ThreadSpec{
				Node: mem.NodeID(th), Stream: wl.Stream(th, 1), Space: space,
				Name: fmt.Sprintf("recycle/%d", th),
			})
		}
		if _, err := m.Run(specs); err != nil {
			t.Fatalf("Run(%v): %v", policy, err)
		}

		// Every controller draws from the machine's one pool.
		s := m.msgs.Stats()
		gets, puts, news := s.Gets, s.Puts, s.News
		if gets == 0 {
			t.Fatalf("%v: controllers allocated no pooled messages", policy)
		}
		if puts != gets {
			t.Errorf("%v: %d messages handed out but %d released (leak or double hold)",
				policy, gets, puts)
		}
		if news*10 > gets {
			t.Errorf("%v: %d of %d messages were fresh allocations; free lists are not recycling",
				policy, news, gets)
		}
	}
}
