// Command allarm-router fronts a fleet of allarm-serve shards with the
// sweep front end a single daemon serves (internal/server's Front) over
// a remote executor (internal/fleet). Jobs are consistent-hashed onto
// shards by the same content key the shards cache under, so identical
// jobs always land where their result is already warm. All simulation
// results live in the shards; with -state-dir the router keeps the same
// journal a daemon keeps under -cache-dir, so a crash or SIGKILL
// mid-gather resumes — under the original sweep ids, with byte-identical
// results and zero re-simulations — at the next boot.
//
// Usage:
//
//	allarm-router -shards http://s1:8347,http://s2:8347
//	allarm-router -addr :8350 -shards ... -shard-token fleet-secret
//	allarm-router -auth tokens.json       # client-facing bearer auth
//	allarm-router -state-dir /var/lib/allarm-router   # sweep journal
//
// A sweep submitted here is expanded exactly as a single daemon would
// expand it, scattered to the owning shards as explicit job lists,
// and gathered back in submission order — every emitter (json, ndjson,
// csv, table) renders byte-identically to a single-node run. Shards
// are health-checked every 2s and excluded after two failed probes;
// each shard call gets 3 attempts with jittered backoff from 100ms and
// a 30s deadline. A shard lost mid-sweep degrades that sweep's jobs to
// "skipped" rather than failing the gather, and a later health
// transition re-queues those jobs onto their new owner. The shard set
// is fixed while the router runs: to change it, restart the router
// with an edited -shards list and the same -state-dir; recovery moves
// the jobs of departed shards onto their new owners. GET /metrics
// reports per-shard request, retry and unhealthy interval counters
// (?format=prometheus adds latency histograms in text exposition).
//
// Observability: every response carries an X-Allarm-Request-Id header,
// forwarded on each shard call so one client request correlates across
// the whole fleet's logs. GET /v1/sweeps/{id}/timeline merges the
// router's lifecycle events (accepted, expanded, assigned, gathered,
// requeued, done) with each shard's per-job timeline into one
// fleet-wide view; /debug/pprof serves live profiles. Both are
// admin-scoped when -auth is set. -log-level and -log-format select
// slog verbosity and text or JSON encoding.
//
// See the "Fleet serving" and "Fault tolerance" sections of README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	allarm "allarm"
	"allarm/internal/fleet"
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
		addr       = flag.String("addr", ":8350", "listen address (host:port; port 0 picks one)")
		shards     = flag.String("shards", "", "comma-separated allarm-serve base URLs")
		shardToken = flag.String("shard-token", "", "bearer token the router presents to shards")
		authFile   = flag.String("auth", "", "JSON file of client tokens (bearer auth, rate limits, job quotas; \"admin\": true unlocks timelines and pprof)")
		stateDir   = flag.String("state-dir", "", "journal directory: accepted sweeps survive router restarts (empty = in-memory only)")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logFormat  = flag.String("log-format", "text", "log encoding: text or json")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("allarm-router", allarm.Version)
		return 0
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "allarm-router:", err)
		return 1
	}

	var shardList []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shardList = append(shardList, s)
		}
	}
	if len(shardList) == 0 {
		fmt.Fprintln(os.Stderr, "allarm-router: -shards is required (allarm-serve URLs)")
		return 2
	}

	opts := fleet.Options{Shards: shardList, ShardToken: *shardToken, StateDir: *stateDir, Logger: logger}
	if *authFile != "" {
		guard, err := server.LoadGuard(*authFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "allarm-router:", err)
			return 1
		}
		opts.Guard = guard
	}

	rt, err := fleet.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "allarm-router:", err)
		return 1
	}
	defer rt.Close()

	note := fmt.Sprintf(", %d shard(s)", len(shardList))
	if err := server.ServeDaemon("allarm-router", *addr, note, rt.Handler(), nil, 10*time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "allarm-router:", err)
		return 1
	}
	logger.Info("bye")
	return 0
}
