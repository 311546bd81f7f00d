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
//	allarm-serve -checkpoint /var/lib/allarm -grace 60s
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
//	GET    /v1/checkpoints/{name}   pull a job's machine-state checkpoint
//	POST   /v1/checkpoints/{name}   push one (fleet migration; with
//	                                -checkpoint-interval/-checkpoint-dir)
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
// With -checkpoint-interval N the daemon additionally checkpoints the
// full machine state of every running simulation every N events (under
// -checkpoint-dir, default <cache-dir>/jobckpts). A killed daemon then
// resumes interrupted jobs from their latest checkpoint at boot —
// bit-identically, losing at most one interval of simulation — long
// jobs yield their worker slot to waiting work at checkpoint
// boundaries (preemption), and the /v1/checkpoints endpoints let
// allarm-router migrate in-flight jobs between shards on membership
// changes. Corrupt, truncated or version-skewed checkpoint files are
// discarded and the job re-simulates from scratch. Note the distinct
// roles: -checkpoint holds drain-time partial-result NDJSON,
// -checkpoint-dir holds resumable machine state.
//
// On SIGINT/SIGTERM the daemon drains: submissions are refused,
// in-flight sweeps get -grace to finish, and whatever is still running
// is cancelled — the cancellation reaches into the simulation event
// loop, so even a long job aborts within one event budget — with
// partial results checkpointed (fetchable until exit and written as
// <sweep-id>.ndjson under -checkpoint or <cache-dir>/checkpoints).
//
// See the "Durability & cancellation" section of README.md for the
// cache-dir layout, checkpoint format and drain semantics, and the
// "Fleet serving" section for running shards behind allarm-router.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
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
		addr       = flag.String("addr", ":8347", "listen address (host:port; port 0 picks one)")
		parallel   = flag.Int("parallel", 0, "simulation worker count (0 = all cores)")
		cacheSize  = flag.Int("cache", server.DefaultCacheEntries, "in-memory result cache capacity in entries")
		cacheDir   = flag.String("cache-dir", "", "directory for the persistent result store and restart recovery")
		retain     = flag.Duration("retain", 0, "evict finished sweeps this long after completion (0 = keep forever)")
		checkpoint = flag.String("checkpoint", "", "directory for drain-time partial-result checkpoints (default <cache-dir>/checkpoints)")
		ckptEvery  = flag.Uint64("checkpoint-interval", 0, "events between machine-state job checkpoints (0 = off); enables resume-after-kill and preemption")
		ckptDir    = flag.String("checkpoint-dir", "", "directory for machine-state job checkpoints (default <cache-dir>/jobckpts)")
		grace      = flag.Duration("grace", 30*time.Second, "drain grace period before in-flight sweeps are cancelled")
		authFile   = flag.String("auth", "", "JSON file of client tokens (bearer auth, rate limits, job quotas)")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logFormat  = flag.String("log-format", "text", "log encoding: text or json")
		version    = flag.Bool("version", false, "print version and exit")
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

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := server.Options{
		Workers:            *parallel,
		CacheEntries:       *cacheSize,
		CacheDir:           *cacheDir,
		Retain:             *retain,
		CheckpointDir:      *checkpoint,
		CheckpointInterval: *ckptEvery,
		JobCheckpointDir:   *ckptDir,
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

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "allarm-serve:", err)
		return 1
	}
	// The resolved address goes to stdout so scripts starting the daemon
	// on an ephemeral port (-addr :0) can discover where it listens.
	fmt.Printf("allarm-serve: listening on http://%s\n", ln.Addr())

	// ReadHeaderTimeout bounds slow-loris header dribble; IdleTimeout
	// reaps abandoned keep-alive connections. No overall write timeout:
	// /events streams for as long as a sweep runs.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "allarm-serve:", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of re-draining

	logger.Info("signal received; draining", "grace", *grace)
	dctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	srv.Drain(dctx)

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "allarm-serve:", err)
		return 1
	}
	logger.Info("drained; bye")
	return 0
}
