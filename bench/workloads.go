package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	allarm "allarm"
)

// simWorkload is one simulation workload, run in-process through the
// public StartJob/Step/Result surface.
type simWorkload struct {
	name      string
	benchmark string
	policy    allarm.Policy
	// accesses is the per-thread (per-copy in multi-process mode) access
	// budget at full scale.
	accesses     int
	multiProcess bool
}

// simWorkloads stress different layers; README.md gives each one's
// measured profile and why it was chosen.
var simWorkloads = []simWorkload{
	// ALLARM's best case: thread-local data bypasses the probe filter.
	{name: "threadlocal", benchmark: "ocean-cont", policy: allarm.ALLARM, accesses: 20_000},
	// One home directory tracks the machine: eviction storms, deep heap.
	{name: "hothome", benchmark: "blackscholes", policy: allarm.Baseline, accesses: 10_000},
	// Fig. 4 mode: shallow heap, light NoC, time in caches and DRAM.
	{name: "multiprocess", benchmark: "ocean-cont", policy: allarm.ALLARM, accesses: 200_000, multiProcess: true},
}

func findSimWorkload(name string) (simWorkload, bool) {
	for _, w := range simWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return simWorkload{}, false
}

// job builds the workload's simulation for seed at 1/scale of its
// access budget.
func (w simWorkload) job(seed uint64, scale int) allarm.Job {
	cfg := allarm.ExperimentConfig()
	cfg.Policy = w.policy
	cfg.Seed = seed
	cfg.AccessesPerThread = w.accesses / scale
	job := allarm.Job{Benchmark: w.benchmark, Config: cfg}
	if w.multiProcess {
		mp := allarm.DefaultMultiProcess()
		job.MultiProcess = &mp
	}
	return job
}

// digest hashes every exported Result field and the per-node statistics
// behind Raw(). Fields are named one by one, so a counter added to the
// simulator later does not change the golden digests; a changed value
// does.
func digest(res *allarm.Result) string {
	h := sha256.New()
	put := func(vs ...any) { fmt.Fprintln(h, vs...) }
	put(res.Benchmark, res.PolicyUsed, res.RuntimeNs, res.Accesses, res.Events, res.Partial,
		res.PFEvictions, res.PFAllocs, res.NoCBytes, res.NoCMessages, res.EvictionMsgs, res.L2Misses,
		res.LocalRequests, res.RemoteRequests, res.LocalProbes, res.ProbesHidden,
		res.UntrackedGrants, res.UncachedGrants, res.NoCEnergyPJ, res.PFEnergyPJ, res.DRAMEnergyPJ)
	raw := res.Raw()
	put(int64(raw.Time), raw.Accesses, raw.Events)
	for _, t := range raw.PerThreadTime {
		put(int64(t))
	}
	n := raw.NoC
	put(n.Messages, n.CtrlMsgs, n.DataMsgs, n.Bytes, n.Flits, n.FlitHops, n.RouterXings, n.LocalMsgs)
	for i := range raw.Dir {
		d, p, c, k, m := raw.Dir[i], raw.PF[i], raw.Hier[i], raw.Ctrl[i], raw.DRAM[i]
		put(i, d.LocalRequests, d.RemoteRequests, d.EvictionMsgs, d.EvictionWritebacks,
			d.EvictionProbeHits, d.EvictionProbes, d.LocalProbes, d.LocalProbeHits, d.LocalProbesHidden,
			d.UntrackedGrants, d.UncachedGrants, d.Broadcasts, d.DirectedProbes, d.ParkedTxns,
			d.Restarts, d.StaleOwnerRequests, d.StaleVersionWrites, d.AllocRetries)
		put(p.Reads, p.Writes, p.Hits, p.Misses, p.Allocs, p.Deallocs, p.Evictions)
		put(c.Accesses, c.L1Hits, c.L2Hits, c.Misses, c.Upgrades, c.ProbeHits)
		put(k.Requests, k.Fills, k.ProbesServed, k.PutMs, k.PutEs, k.UntrackedFills, k.UncachedFills)
		put(m.Reads, m.Writes, int64(m.QueueDelay))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// counts returns the exact per-layer work of one simulation, keyed by
// per-layer metric name (countNames plus the simulated-time totals and
// the denominators the ratios need).
func counts(res *allarm.Result) map[string]float64 {
	raw := res.Raw()
	c := map[string]float64{
		"sim.events":            float64(res.Events),
		"workload.accesses":     float64(res.Accesses),
		"noc.messages":          float64(raw.NoC.Messages),
		"noc.flit_hops":         float64(raw.NoC.FlitHops),
		"system.sim_runtime_ns": res.RuntimeNs,
		"core.probes_hidden":    float64(res.ProbesHidden),
	}
	add := func(k string, v uint64) { c[k] += float64(v) }
	for i := range raw.Dir {
		d, p, h, k, m := raw.Dir[i], raw.PF[i], raw.Hier[i], raw.Ctrl[i], raw.DRAM[i]
		add("cache.accesses", h.Accesses)
		add("cache.l1_hits", h.L1Hits)
		add("cache.l2_hits", h.L2Hits)
		add("cache.misses", h.Misses)
		add("coherence.requests", k.Requests)
		add("coherence.untracked_fills", k.UntrackedFills)
		add("coherence.writebacks", k.PutMs+k.PutEs)
		add("core.local_requests", d.LocalRequests)
		add("core.remote_requests", d.RemoteRequests)
		add("core.pf_lookups", p.Reads)
		add("core.pf_hits", p.Hits)
		add("core.pf_misses", p.Misses)
		add("core.pf_allocs", p.Allocs)
		add("core.pf_evictions", p.Evictions)
		add("core.eviction_msgs", d.EvictionMsgs)
		add("core.broadcasts", d.Broadcasts)
		add("core.local_probes", d.LocalProbes)
		add("core.untracked_grants", d.UntrackedGrants)
		add("core.retries", d.ParkedTxns+d.Restarts+d.AllocRetries)
		add("dram.reads", m.Reads)
		add("dram.writes", m.Writes)
		c["dram.queue_ns"] += m.QueueDelay.Nanoseconds()
	}
	return c
}

// ratios derives the per-layer ratios from summed counts.
func ratios(c map[string]float64) map[string]float64 {
	return map[string]float64{
		"cache.l1_hit_ratio":       ratio(c["cache.l1_hits"], c["cache.accesses"]),
		"core.pf_hit_ratio":        ratio(c["core.pf_hits"], c["core.pf_hits"]+c["core.pf_misses"]),
		"core.probes_hidden_ratio": ratio(c["core.probes_hidden"], c["core.local_probes"]),
		"sim.events_per_access":    ratio(c["sim.events"], c["workload.accesses"]),
	}
}

// The served workload: two allarm-serve shards behind one allarm-router,
// driven by a closed loop with one client.
const (
	servedName = "served"
	// coldAccesses and hitAccesses are per-thread access budgets of the
	// cold and hit sweeps.
	coldAccesses = 2000
	hitAccesses  = 300
	// coldSeedBase offsets cold sweep i's seed (seed+coldSeedBase+i) so
	// that it never hits a cache.
	coldSeedBase = 1000
	// coldShare is the share of the measured time spent on cold sweeps
	// (about 50 of them at 25 s); hits take the rest (about 2000).
	coldShare = 0.6
)

var (
	coldBenchmarks = []string{"ocean-cont", "x264"}
	coldPolicies   = []string{"baseline", "allarm"}
	hitPolicies    = []string{"baseline", "allarm"}
	hitPFKiB       = []int{32, 64, 128, 256}
)

// hitBenchmarks are the hit sweep's 8 benchmarks.
func hitBenchmarks() []string { return allarm.Benchmarks()[:8] }

// workloadNames lists every workload in run order.
func workloadNames() []string {
	var out []string
	for _, w := range simWorkloads {
		out = append(out, w.name)
	}
	return append(out, servedName)
}
