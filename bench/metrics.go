package main

// metricSpec is one reported metric. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; the smoke
// test keeps the two in step.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is, for end-to-end metrics, the share of the parent's median
	// by which the metric may worsen before a change is a regression.
	bound float64
}

// endToEnd are the metrics a user of the simulator or the service sees,
// reported with tracing off on every workload.
//
// Host time on a shared 2-core machine drifts by 10-20% between runs
// minutes apart, whatever the run length, so the timing bounds are the
// widest allowed; paired A/B passes (-ab) resolve finer changes.
// Allocation counts vary by about 1% with the seed, peak RSS by 1-3%.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"sim_p50_s", "s", "lower", 0.25},
	{"sim_p75_s", "s", "lower", 0.25},
	{"accesses_per_s", "1/s", "higher", 0.25},
	{"allocs_per_sim", "count", "lower", 0.05},
	{"alloc_mb_per_sim", "MB", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"cold_p50_s", "s", "lower", 0.25},
	{"cold_p75_s", "s", "lower", 0.25},
	{"hit_p50_ms", "ms", "lower", 0.25},
	{"hit_p90_ms", "ms", "lower", 0.25},
}

// countNames are the exact per-simulation work counts read from
// Result.Raw(), in report order.
var countNames = []string{
	"sim.events", "workload.accesses",
	"cache.l1_hits", "cache.l2_hits", "cache.misses",
	"coherence.requests", "coherence.untracked_fills", "coherence.writebacks",
	"core.local_requests", "core.remote_requests", "core.pf_lookups",
	"core.pf_allocs", "core.pf_evictions", "core.eviction_msgs",
	"core.broadcasts", "core.local_probes", "core.untracked_grants", "core.retries",
	"noc.messages", "noc.flit_hops",
	"dram.reads", "dram.writes",
}

// cpuLayers are the simulator layers whose share of sampled CPU time the
// traced run reports; "runtime" is the Go runtime (allocation, GC,
// scheduling).
var cpuLayers = []string{
	"sim", "cache", "coherence", "core", "noc", "dram", "mem", "workload", "rng", "system", "runtime",
}

// perLayer are the metrics of the traced run. A workload reports 0 for
// a layer or probe it does not exercise (for example server.* on the
// simulation workloads).
var perLayer = func() []metricSpec {
	var out []metricSpec
	for _, n := range countNames {
		out = append(out, metricSpec{n, "count", "lower", 0})
	}
	out = append(out,
		metricSpec{"dram.queue_ns", "ns", "lower", 0},
		metricSpec{"system.sim_runtime_ns", "ns", "lower", 0},
		metricSpec{"cache.l1_hit_ratio", "ratio", "higher", 0},
		metricSpec{"core.pf_hit_ratio", "ratio", "higher", 0},
		metricSpec{"core.probes_hidden_ratio", "ratio", "higher", 0},
		metricSpec{"sim.events_per_access", "ratio", "lower", 0},
	)
	for _, l := range cpuLayers {
		out = append(out, metricSpec{l + ".cpu_share", "fraction", "lower", 0})
	}
	for _, n := range []string{
		"sim.ns_per_event", "cache.ns_per_access", "core.ns_per_request",
		"noc.ns_per_message", "dram.ns_per_access", "workload.ns_per_access",
		"micro.engine_event_ns", "micro.cache_access_ns", "micro.pf_alloc_ns",
		"micro.noc_send_ns", "micro.dram_read_ns", "micro.stream_next_ns",
	} {
		out = append(out, metricSpec{n, "ns", "lower", 0})
	}
	out = append(out, metricSpec{"micro.explained_frac", "fraction", "higher", 0})
	for _, n := range []string{
		"span.setup_ms", "span.warmup_ms", "span.roi_ms", "span.result_ms",
		"span.submit_ms", "span.wait_ms", "span.fetch_ms",
		"server.hit_p50_ms", "server.hit_p90_ms", "server.queue_wait_ms", "server.job_run_ms",
		"fleet.overhead_p50_ms", "fleet.hit_p99_ms",
	} {
		out = append(out, metricSpec{n, "ms", "lower", 0})
	}
	out = append(out, metricSpec{"fleet.retries", "count", "lower", 0})
	for _, n := range []string{"trace.overhead_frac", "server.cpu_share", "fleet.cpu_share", "transport.cpu_share", "codec.cpu_share"} {
		out = append(out, metricSpec{n, "fraction", "lower", 0})
	}
	return out
}()

// metricValue is one entry of a report's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's result: the JSON object the benchmark prints
// as its last line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill returns the report's metrics for specs, taking each value from
// vals (0 when a metric has no value on this workload).
func fill(specs []metricSpec, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		out[s.name] = metricValue{Value: vals[s.name], Unit: s.unit}
	}
	return out
}
