package server

import (
	"net/http"
	"time"

	"allarm/internal/obs"
)

// metrics are the daemon's monotonic counters plus the latency/size
// histograms, all registered in an obs.Registry so GET /metrics can
// serve both the flat JSON object (unchanged shape) and Prometheus
// text exposition from the same source. Counters are bumped from
// worker goroutines and read from handlers; everything is atomic.
type metrics struct {
	reg                *obs.Registry
	jobsRun            *obs.Counter
	jobsAborted        *obs.Counter
	jobErrors          *obs.Counter
	cacheHits          *obs.Counter
	cacheDiskHits      *obs.Counter
	cacheMisses        *obs.Counter
	coalesced          *obs.Counter
	simEvents          *obs.Counter
	simWallNs          *obs.Counter
	checkpointsWritten *obs.Counter
	checkpointBytes    *obs.Counter
	jobsResumed        *obs.Counter
	jobsPreempted      *obs.Counter

	// Latency/size distributions (Prometheus-only; the JSON object stays
	// flat counters). Samples are nanoseconds or bytes; exposition
	// scales to seconds.
	jobDuration *obs.Histogram // wall time actually simulating a job
	queueWait   *obs.Histogram // pool-slot wait before a job starts
	ckptWrite   *obs.Histogram // one machine-state checkpoint write
	ckptSize    *obs.Histogram // bytes per machine-state checkpoint
}

// newMetrics registers every counter and histogram family under the
// allarm_ prefix. Gauges that need the Server (uptime, active sweeps,
// cache occupancy) are registered by registerGauges once it exists, and
// the Front registers the lifecycle counters both daemons share.
func newMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:                reg,
		jobsRun:            reg.Counter("allarm_jobs_run_total", "Jobs actually simulated (cache misses that ran)."),
		jobsAborted:        reg.Counter("allarm_jobs_aborted_total", "Jobs cancelled mid-simulation by drain."),
		jobErrors:          reg.Counter("allarm_job_errors_total", "Jobs that failed with an error."),
		cacheHits:          reg.Counter("allarm_cache_hits_total", "Results served from the in-memory cache."),
		cacheDiskHits:      reg.Counter("allarm_cache_disk_hits_total", "Results served from the persistent store."),
		cacheMisses:        reg.Counter("allarm_cache_misses_total", "Jobs absent from every cache tier."),
		coalesced:          reg.Counter("allarm_inflight_coalesced_total", "Duplicate concurrent jobs joined to one in-flight run."),
		simEvents:          reg.Counter("allarm_sim_events_total", "Simulation events executed across all jobs."),
		simWallNs:          reg.Counter("allarm_sim_busy_nanoseconds_total", "Wall-clock nanoseconds spent actually simulating."),
		checkpointsWritten: reg.Counter("allarm_checkpoints_written_total", "Machine-state job checkpoints persisted."),
		checkpointBytes:    reg.Counter("allarm_checkpoint_bytes_total", "Bytes of machine-state checkpoints persisted."),
		jobsResumed:        reg.Counter("allarm_jobs_resumed_total", "Jobs continued from a checkpoint instead of event zero."),
		jobsPreempted:      reg.Counter("allarm_jobs_preempted_total", "Jobs that yielded their pool slot at a checkpoint boundary."),

		jobDuration: reg.Histogram("allarm_job_duration_seconds",
			"Wall time simulating one job.",
			1e-9, obs.ExpBuckets(1_000_000, 4_000_000_000_000)), // 1ms .. ~67min
		queueWait: reg.Histogram("allarm_job_queue_wait_seconds",
			"Time a job waited for a worker-pool slot.",
			1e-9, obs.ExpBuckets(100_000, 1_000_000_000_000)), // 100µs .. ~17min
		ckptWrite: reg.Histogram("allarm_checkpoint_write_seconds",
			"Duration of one machine-state checkpoint write.",
			1e-9, obs.ExpBuckets(100_000, 100_000_000_000)), // 100µs .. 100s
		ckptSize: reg.Histogram("allarm_checkpoint_size_bytes",
			"Size of one machine-state checkpoint.",
			1, obs.ExpBuckets(1024, 1<<34)), // 1KiB .. 16GiB
	}
	return m
}

// Metrics is the GET /metrics payload. Hit/miss/coalesced make cache
// effectiveness — including the "identical concurrent submissions run
// once" guarantee — observable from the outside; the disk-tier and
// recovery counters do the same for restart durability, and
// JobsAborted exposes how often drain actually interrupted a
// simulation mid-run. The existing field names are a compatibility
// contract: new fields may be appended, but names never change — use
// ?format=prometheus for labelled series and histograms.
type Metrics struct {
	UptimeSeconds      float64 `json:"uptime_seconds"`
	Draining           bool    `json:"draining"`
	SweepsSubmitted    uint64  `json:"sweeps_submitted"`
	SweepsActive       uint64  `json:"sweeps_active"`
	SweepsCompleted    uint64  `json:"sweeps_completed"`
	SweepsCheckpointed uint64  `json:"sweeps_checkpointed"`
	SweepsRecovered    uint64  `json:"sweeps_recovered"`
	SweepsDeleted      uint64  `json:"sweeps_deleted"`
	SweepsExpired      uint64  `json:"sweeps_expired"`
	JobsRun            uint64  `json:"jobs_run"`
	JobsAborted        uint64  `json:"jobs_aborted"`
	JobErrors          uint64  `json:"job_errors"`
	CacheHits          uint64  `json:"cache_hits"`
	CacheDiskHits      uint64  `json:"cache_disk_hits"`
	CacheMisses        uint64  `json:"cache_misses"`
	InflightCoalesced  uint64  `json:"inflight_coalesced"`
	CacheEntries       int     `json:"cache_entries"`
	CacheCapacity      int     `json:"cache_capacity"`
	DiskEntries        int     `json:"disk_entries,omitempty"`
	TracesUploaded     uint64  `json:"traces_uploaded"`
	SimEventsTotal     uint64  `json:"sim_events_total"`
	// SimEventsPerSec is events over accumulated busy time (the wall
	// clock actually spent simulating), so it holds steady on an idle
	// daemon. SimBusySeconds exposes that denominator, and
	// SimEventsPerUptimeSec the naive uptime-based rate for comparison —
	// the latter decays toward zero whenever the daemon sits idle.
	SimEventsPerSec       float64 `json:"sim_events_per_sec"`
	SimBusySeconds        float64 `json:"sim_busy_seconds"`
	SimEventsPerUptimeSec float64 `json:"sim_events_per_uptime_sec"`
	// Machine-state checkpointing (Options.CheckpointInterval):
	// CheckpointsWritten/CheckpointBytes count periodic job snapshots,
	// JobsResumed counts executions continued from a checkpoint instead
	// of event zero, and JobsPreempted counts long jobs that yielded
	// their pool slot to waiting work at a checkpoint boundary.
	CheckpointsWritten uint64 `json:"checkpoints_written"`
	CheckpointBytes    uint64 `json:"checkpoint_bytes"`
	JobsResumed        uint64 `json:"jobs_resumed"`
	JobsPreempted      uint64 `json:"jobs_preempted"`
}

// registerGauges adds the families that read live server state at
// exposition time.
func (s *Server) registerGauges() {
	reg := s.met.reg
	reg.Gauge("allarm_uptime_seconds", "Seconds since the daemon started.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.Gauge("allarm_sweeps_active", "Sweeps currently running.",
		func() float64 { return float64(s.actives.Load()) })
	reg.Gauge("allarm_draining", "1 while the daemon is draining.",
		func() float64 {
			if s.front.draining() {
				return 1
			}
			return 0
		})
	reg.Gauge("allarm_cache_entries", "Results in the in-memory cache.",
		func() float64 { return float64(s.cache.lru.Len()) })
	reg.Gauge("allarm_cache_capacity", "In-memory cache capacity.",
		func() float64 { return float64(s.cache.lru.cap) })
	reg.Gauge("allarm_sim_events_per_second", "Simulation events over accumulated busy time.",
		func() float64 {
			wallNs, events := s.met.simWallNs.Load(), s.met.simEvents.Load()
			if wallNs == 0 {
				return 0
			}
			return float64(events) / (float64(wallNs) / 1e9)
		})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// ?format=prometheus (or a text/plain Accept, what scrapers send)
	// selects text exposition; the default stays the flat JSON object,
	// whose existing field names are a compatibility contract.
	if obs.WantsPrometheus(r) {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		s.met.reg.WritePrometheus(w)
		return
	}
	wallNs := s.met.simWallNs.Load()
	events := s.met.simEvents.Load()
	// The headline rate is events over accumulated busy time, so it
	// reflects simulator throughput and holds steady while the daemon
	// idles; the uptime-based rate is exposed alongside for comparison.
	perSec := 0.0
	if wallNs > 0 {
		perSec = float64(events) / (float64(wallNs) / 1e9)
	}
	uptime := time.Since(s.start).Seconds()
	perUptimeSec := 0.0
	if uptime > 0 {
		perUptimeSec = float64(events) / uptime
	}
	c := s.front.Counts()
	m := Metrics{
		UptimeSeconds:         uptime,
		Draining:              s.front.draining(),
		SweepsSubmitted:       c.Submitted,
		SweepsActive:          uint64(s.actives.Load()),
		SweepsCompleted:       c.Completed,
		SweepsCheckpointed:    c.Incomplete,
		SweepsRecovered:       c.Recovered,
		SweepsDeleted:         c.Deleted,
		SweepsExpired:         c.Expired,
		JobsRun:               s.met.jobsRun.Load(),
		JobsAborted:           s.met.jobsAborted.Load(),
		JobErrors:             s.met.jobErrors.Load(),
		CacheHits:             s.met.cacheHits.Load(),
		CacheDiskHits:         s.met.cacheDiskHits.Load(),
		CacheMisses:           s.met.cacheMisses.Load(),
		InflightCoalesced:     s.met.coalesced.Load(),
		CacheEntries:          s.cache.lru.Len(),
		CacheCapacity:         s.cache.lru.cap,
		TracesUploaded:        c.TracesUploaded,
		SimEventsTotal:        events,
		SimEventsPerSec:       perSec,
		SimBusySeconds:        float64(wallNs) / 1e9,
		SimEventsPerUptimeSec: perUptimeSec,
		CheckpointsWritten:    s.met.checkpointsWritten.Load(),
		CheckpointBytes:       s.met.checkpointBytes.Load(),
		JobsResumed:           s.met.jobsResumed.Load(),
		JobsPreempted:         s.met.jobsPreempted.Load(),
	}
	if s.cache.disk != nil {
		m.DiskEntries = s.cache.disk.Len()
	}
	WriteJSON(w, m)
}
