package fleet

import (
	"net/http"
	"time"

	"allarm/internal/obs"
	"allarm/internal/server"
)

// routerMetrics are the router's internal counters and latency
// histograms, registered in an obs.Registry so GET /metrics serves the
// unchanged JSON object and Prometheus text exposition from one
// source.
type routerMetrics struct {
	reg           *obs.Registry
	jobsScattered *obs.Counter
	jobsRequeued  *obs.Counter
	shardFailures *obs.Counter
	gathers       *obs.Counter
	gatherNs      *obs.Counter

	// gatherLatency is the distribution of dispatch-wave wall times
	// (scatter → every shard gathered), Prometheus-only.
	gatherLatency *obs.Histogram
}

// newRouterMetrics registers the router's metric families under the
// allarm_router_ prefix (the Front adds the lifecycle counters it
// shares with allarm-serve).
func newRouterMetrics() *routerMetrics {
	reg := obs.NewRegistry()
	return &routerMetrics{
		reg:           reg,
		jobsScattered: reg.Counter("allarm_router_jobs_scattered_total", "Jobs dispatched to shards."),
		jobsRequeued:  reg.Counter("allarm_router_jobs_requeued_total", "Skipped jobs re-dispatched onto a new ring owner."),
		shardFailures: reg.Counter("allarm_router_shard_failures_total", "Shard sub-sweeps lost past the retry budget."),
		gathers:       reg.Counter("allarm_router_gathers_total", "Completed dispatch waves."),
		gatherNs:      reg.Counter("allarm_router_gather_nanoseconds_total", "Wall nanoseconds summed over dispatch waves."),
		gatherLatency: reg.Histogram("allarm_router_gather_duration_seconds",
			"Wall time of one dispatch wave (scatter to fully gathered).",
			1e-9, obs.ExpBuckets(1_000_000, 4_000_000_000_000)), // 1ms .. ~67min
	}
}

// ShardMetrics is one shard's row in the router's GET /metrics answer.
type ShardMetrics struct {
	Name    string `json:"name"`
	Healthy bool   `json:"healthy"`
	// Requests counts every HTTP call the router made to this shard
	// (submits, polls, streams, probes, uploads).
	Requests uint64 `json:"requests"`
	// Retries counts backoff re-attempts against this shard.
	Retries uint64 `json:"retries"`
	// JobsAssigned counts jobs placement hashed onto this shard.
	JobsAssigned uint64 `json:"jobs_assigned"`
	// UnhealthyIntervals counts completed excluded periods;
	// UnhealthySeconds totals them, including an ongoing one.
	UnhealthyIntervals uint64  `json:"unhealthy_intervals"`
	UnhealthySeconds   float64 `json:"unhealthy_seconds"`
	// Version is the shard's reported build ("" until first probed).
	Version string `json:"version,omitempty"`
}

// Metrics is the router's GET /metrics answer. Existing field names
// are a compatibility contract (new fields may be appended); use
// ?format=prometheus for histograms and labelled series.
type Metrics struct {
	UptimeSeconds   float64 `json:"uptime_seconds"`
	ShardsHealthy   int     `json:"shards_healthy"`
	ShardsTotal     int     `json:"shards_total"`
	SweepsSubmitted uint64  `json:"sweeps_submitted"`
	SweepsCompleted uint64  `json:"sweeps_completed"`
	// SweepsDegraded finished with at least one shard's jobs skipped.
	SweepsDegraded uint64 `json:"sweeps_degraded"`
	// SweepsRecovered were restored from the journal at boot.
	SweepsRecovered uint64 `json:"sweeps_recovered"`
	JobsScattered   uint64 `json:"jobs_scattered"`
	// JobsRequeued counts skipped jobs re-dispatched onto a new ring
	// owner after a health transition or a restart with a changed shard
	// set.
	JobsRequeued uint64 `json:"jobs_requeued"`
	// ShardFailures counts shard sub-sweeps lost past the retry budget.
	ShardFailures  uint64 `json:"shard_failures"`
	TracesUploaded uint64 `json:"traces_uploaded"`
	// Gathers counts completed dispatch waves (initial scatters, recovery
	// resumes and requeues); GatherSecondsTotal sums their wall time.
	Gathers            uint64         `json:"gathers"`
	GatherSecondsTotal float64        `json:"gather_seconds_total"`
	Shards             []ShardMetrics `json:"shards"`
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// ?format=prometheus (or a text/plain Accept) selects exposition
	// text; the default stays the JSON object, field names unchanged.
	if obs.WantsPrometheus(r) {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		rt.met.reg.WritePrometheus(w)
		return
	}
	now := time.Now()
	c := rt.front.Counts()
	m := Metrics{
		UptimeSeconds:      time.Since(rt.start).Seconds(),
		ShardsTotal:        len(rt.shards),
		SweepsSubmitted:    c.Submitted,
		SweepsCompleted:    c.Completed,
		SweepsDegraded:     c.Incomplete,
		SweepsRecovered:    c.Recovered,
		JobsScattered:      rt.met.jobsScattered.Load(),
		JobsRequeued:       rt.met.jobsRequeued.Load(),
		ShardFailures:      rt.met.shardFailures.Load(),
		TracesUploaded:     c.TracesUploaded,
		Gathers:            rt.met.gathers.Load(),
		GatherSecondsTotal: float64(rt.met.gatherNs.Load()) / 1e9,
		Shards:             make([]ShardMetrics, len(rt.shards)),
	}
	for i, sh := range rt.shards {
		spans, dur := sh.unhealthyTotal(now)
		healthy := sh.isHealthy()
		if healthy {
			m.ShardsHealthy++
		}
		sh.versionMu.Lock()
		version := sh.version
		sh.versionMu.Unlock()
		m.Shards[i] = ShardMetrics{
			Name:               sh.name,
			Healthy:            healthy,
			Requests:           sh.requests.Load(),
			Retries:            sh.retries.Load(),
			JobsAssigned:       sh.jobsAssigned.Load(),
			UnhealthyIntervals: spans,
			UnhealthySeconds:   dur.Seconds(),
			Version:            version,
		}
	}
	server.WriteJSON(w, m)
}
