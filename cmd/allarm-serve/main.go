// Command allarm-serve runs the simulation-as-a-service daemon: the
// sweep front end (internal/server's Front, shared with allarm-router)
// over the local executor — a bounded worker pool and a
// content-addressed result cache, so identical simulations are run once
// and served to every client.
//
// Usage:
//
//	allarm-serve                          # listen on :8347
//	allarm-serve -addr 127.0.0.1:0        # ephemeral port (printed)
//	allarm-serve -parallel 4 -cache 4096
//	allarm-serve -cache-dir /var/lib/allarm -retain 24h
//	allarm-serve -cache-dir /var/lib/allarm -grace 60s
//	allarm-serve -cache-dir /var/lib/allarm -checkpoint-interval 500000
//	                                          # machine-state checkpoints:
//	                                          # kill-resume + preemption
//	allarm-serve -auth tokens.json            # bearer-token multi-tenancy
//
// Endpoints:
//
//	POST   /v1/sweeps               submit a sweep (benchmarks/workloads
//	                                × policies × pf_kib); returns its id
//	GET    /v1/sweeps               list sweeps
//	GET    /v1/sweeps/{id}          status and per-job progress
//	DELETE /v1/sweeps/{id}          evict a finished sweep (409 while it
//	                                is still running)
//	GET    /v1/sweeps/{id}/results  results; ?format= or Accept
//	                                negotiates json, ndjson, csv, table
//	GET    /v1/sweeps/{id}/events   live progress (Server-Sent Events)
//	GET    /v1/sweeps/{id}/timeline lifecycle timeline: accepted,
//	                                started, checkpointed, preempted,
//	                                resumed, finished (admin under -auth)
//	POST   /v1/traces               upload a captured trace; jobs
//	                                reference it as "trace:<id>"
//	GET    /v1/policies             registered directory policies
//	GET    /v1/benchmarks           benchmark presets
//	GET    /v1/version              build version (fleet skew checks)
//	GET    /healthz                 liveness (reports draining)
//	GET    /metrics                 counters: jobs run, cache hits
//	                                (memory/disk), recoveries, aborts;
//	                                ?format=prometheus for text
//	                                exposition with latency histograms
//	GET    /debug/pprof/            live CPU/heap/goroutine profiling
//	                                (admin under -auth)
//
// Every response carries an X-Allarm-Request-Id header (minted when the
// request did not send one); request logs include it, and -log-level /
// -log-format select slog verbosity and text or JSON encoding.
//
// With -cache-dir the daemon is restart-safe: every complete result is
// written through to a content-addressed disk store (keyed by the same
// Job.Key as the in-memory cache), sweep specs and trace uploads are
// persisted, and on boot unfinished sweeps re-enqueue under their
// original ids with already-computed jobs served from disk instead of
// re-simulating. -retain bounds how long finished sweeps (not their
// cached results) are kept.
//
// With -checkpoint-interval N (which needs -cache-dir) the daemon
// additionally checkpoints the full machine state of every running
// simulation every N events under <cache-dir>/jobckpts. A killed
// daemon then resumes interrupted jobs from their latest checkpoint at
// boot, bit-identically, losing at most one interval of simulation;
// long jobs yield their worker slot to waiting work at checkpoint
// boundaries (preemption). Corrupt, truncated or version-skewed
// checkpoint files are discarded and the job re-simulates from
// scratch.
//
// On SIGINT/SIGTERM the daemon drains: submissions are refused,
// in-flight sweeps get -grace to finish, and whatever is still running
// is cancelled — the cancellation reaches into the simulation event
// loop, so even a long job aborts within one event budget. The sweep
// ends "checkpointed" with its partial results fetchable until exit;
// with -cache-dir it stays journaled and the next boot finishes it
// under the same id.
//
// See the "Durability & cancellation" section of README.md for the
// cache-dir layout, checkpoint format and drain semantics, and the
// "Fleet serving" section for running shards behind allarm-router.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	allarm "allarm"
	"allarm/internal/obs"
	"allarm/internal/server"
)

// main only translates run's status into an exit code so run's defers
// execute on every path, including signal-driven shutdown.
func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr      = flag.String("addr", ":8347", "listen address (host:port; port 0 picks one)")
		parallel  = flag.Int("parallel", 0, "simulation worker count (0 = all cores)")
		cacheSize = flag.Int("cache", server.DefaultCacheEntries, "in-memory result cache capacity in entries")
		cacheDir  = flag.String("cache-dir", "", "state directory: persistent result store, sweep journal, traces and job checkpoints")
		retain    = flag.Duration("retain", 0, "evict finished sweeps this long after completion (0 = keep forever)")
		ckptEvery = flag.Uint64("checkpoint-interval", 0, "events between machine-state job checkpoints under <cache-dir>/jobckpts (0 = off); enables resume-after-kill and preemption")
		grace     = flag.Duration("grace", 30*time.Second, "drain grace period before in-flight sweeps are cancelled")
		authFile  = flag.String("auth", "", "JSON file of client tokens (bearer auth, rate limits, job quotas)")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logFormat = flag.String("log-format", "text", "log encoding: text or json")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("allarm-serve", allarm.Version)
		return 0
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "allarm-serve:", err)
		return 1
	}

	opts := server.Options{
		Workers:            *parallel,
		CacheEntries:       *cacheSize,
		CacheDir:           *cacheDir,
		Retain:             *retain,
		CheckpointInterval: *ckptEvery,
		Logger:             logger,
	}
	if *authFile != "" {
		guard, err := server.LoadGuard(*authFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "allarm-serve:", err)
			return 1
		}
		opts.Guard = guard
	}
	srv, err := server.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "allarm-serve:", err)
		return 1
	}
	defer srv.Close()

	drain := func() {
		logger.Info("signal received; draining", "grace", *grace)
		dctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		srv.Drain(dctx)
	}
	if err := server.ServeDaemon("allarm-serve", *addr, "", srv.Handler(), drain, 5*time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "allarm-serve:", err)
		return 1
	}
	logger.Info("drained; bye")
	return 0
}
