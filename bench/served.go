package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	allarm "allarm"
)

const (
	// daemonTimeout bounds a daemon's boot and its shutdown.
	daemonTimeout = 20 * time.Second
	// requestTimeout bounds one HTTP exchange, including a CPU profile.
	requestTimeout = 2 * time.Minute
	// cleanEvery is how many requests pass between two clean-ups of the
	// shards' finished sweeps.
	cleanEvery = 10
)

// buildDaemons builds allarm-serve and allarm-router from the checkout
// at root into binDir.
func buildDaemons(ctx context.Context, root, binDir string) error {
	for _, name := range []string{"allarm-serve", "allarm-router"} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(binDir, name), "./cmd/"+name)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("build %s: %v\n%s", name, err, out)
		}
	}
	return nil
}

// daemon is one child daemon process.
type daemon struct {
	name    string
	url     string
	cmd     *exec.Cmd
	drained chan struct{} // closed once the daemon's stdout reaches EOF
}

// startDaemon execs bin and waits for its "listening on http://ADDR"
// line. The router's line reads "listening on http://ADDR, N shard(s)",
// so the address ends at the first space, minus a trailing comma.
func startDaemon(ctx context.Context, name, bin string, args ...string) (*daemon, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = pw
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	pw.Close()
	d := &daemon{name: name, cmd: cmd, drained: make(chan struct{})}
	lines := make(chan string, 1)
	go func() {
		defer close(d.drained)
		defer pr.Close()
		br := bufio.NewReader(pr)
		line, _ := br.ReadString('\n') // an early exit shows as a missing address below
		lines <- line
		io.Copy(io.Discard, br) // nothing more is expected; drain until exit
	}()
	select {
	case line := <-lines:
		if i := strings.Index(line, "http://"); i >= 0 {
			d.url = strings.TrimSuffix(strings.Fields(line[i:])[0], ",")
			return d, nil
		}
		err = fmt.Errorf("%s: no listen address in %q", name, line)
	case <-time.After(daemonTimeout):
		err = fmt.Errorf("%s: no listen line after %v", name, daemonTimeout)
	case <-ctx.Done():
		err = ctx.Err()
	}
	d.stop()
	return nil, err
}

// stop sends SIGTERM, waits for the daemon to exit (killing it after
// daemonTimeout) and returns its peak RSS in KiB.
func (d *daemon) stop() (int64, error) {
	err := d.cmd.Process.Signal(syscall.SIGTERM)
	if errors.Is(err, os.ErrProcessDone) {
		err = nil
	}
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	select {
	case werr := <-exited:
		if err == nil && werr != nil {
			err = fmt.Errorf("%s exit: %w", d.name, werr)
		}
	case <-time.After(daemonTimeout):
		d.cmd.Process.Kill()
		<-exited
		err = fmt.Errorf("%s: killed after no exit in %v", d.name, daemonTimeout)
	}
	<-d.drained
	var rss int64
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss
	}
	return rss, err
}

// fleet is two allarm-serve shards behind one allarm-router.
type fleet struct {
	shards []*daemon
	router *daemon
}

// bootFleet starts a fleet and returns it with its boot time: from the
// first exec until every daemon answers /healthz with 200.
func bootFleet(ctx context.Context, c *client, binDir string) (*fleet, time.Duration, error) {
	t0 := time.Now()
	f := &fleet{}
	var urls []string
	for i := 0; i < 2; i++ {
		d, err := startDaemon(ctx, fmt.Sprintf("shard-%d", i), filepath.Join(binDir, "allarm-serve"),
			"-addr", "127.0.0.1:0", "-parallel", "1", "-log-level", "warn")
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		f.shards = append(f.shards, d)
		urls = append(urls, d.url)
	}
	d, err := startDaemon(ctx, "router", filepath.Join(binDir, "allarm-router"),
		"-addr", "127.0.0.1:0", "-shards", strings.Join(urls, ","), "-log-level", "warn")
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	f.router = d
	for _, d := range f.daemons() {
		if _, err := c.do(ctx, "GET", d.url+"/healthz", nil, http.StatusOK); err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	return f, time.Since(t0), nil
}

func (f *fleet) daemons() []*daemon {
	if f.router == nil {
		return f.shards
	}
	return append([]*daemon{f.router}, f.shards...)
}

// stop stops every daemon, router first, and returns their summed peak
// RSS in KiB and the first error.
func (f *fleet) stop() (int64, error) {
	var sum int64
	var first error
	for _, d := range f.daemons() {
		rss, err := d.stop()
		sum += rss
		if first == nil {
			first = err
		}
	}
	return sum, first
}

// client is the closed-loop HTTP client: one request at a time over
// kept-alive connections.
type client struct{ hc *http.Client }

func newClient() *client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 2
	tr.DisableCompression = true
	return &client{hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

// do sends one request and returns the whole body, or an error when the
// status is not want.
func (c *client) do(ctx context.Context, method, url string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, url, resp.StatusCode, data)
	}
	return data, nil
}

// sweepTiming is one sweep request as the client saw it: the instants it
// started, was accepted (submit), saw its event stream end (wait) and
// read the last CSV byte (fetch).
type sweepTiming struct {
	id  string
	at  [4]time.Time
	csv []byte
}

func (t sweepTiming) total() time.Duration { return t.at[3].Sub(t.at[0]) }

// sweep submits body to base and follows the sweep to its CSV results.
func (c *client) sweep(ctx context.Context, base string, body []byte) (sweepTiming, error) {
	var t sweepTiming
	t.at[0] = time.Now()
	data, err := c.do(ctx, "POST", base+"/v1/sweeps", body, http.StatusAccepted)
	if err != nil {
		return t, err
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil || sub.ID == "" {
		return t, fmt.Errorf("submit: bad reply %.200q", data)
	}
	t.id = sub.ID
	t.at[1] = time.Now()
	if _, err := c.do(ctx, "GET", base+"/v1/sweeps/"+t.id+"/events", nil, http.StatusOK); err != nil {
		return t, err
	}
	t.at[2] = time.Now()
	if t.csv, err = c.do(ctx, "GET", base+"/v1/sweeps/"+t.id+"/results?format=csv", nil, http.StatusOK); err != nil {
		return t, err
	}
	t.at[3] = time.Now()
	return t, nil
}

// remove deletes a finished sweep so a long run holds no garbage.
func (c *client) remove(ctx context.Context, base, id string) error {
	_, err := c.do(ctx, "DELETE", base+"/v1/sweeps/"+id, nil, http.StatusNoContent)
	return err
}

// memStats reads a daemon's cumulative heap allocations (count and
// bytes) from the runtime.MemStats block of its allocs profile.
func (c *client) memStats(ctx context.Context, base string) (mallocs, bytes float64, err error) {
	data, err := c.do(ctx, "GET", base+"/debug/pprof/allocs?debug=1", nil, http.StatusOK)
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			mallocs, err = strconv.ParseFloat(v, 64)
		}
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok && err == nil {
			bytes, err = strconv.ParseFloat(v, 64)
		}
	}
	if err == nil && mallocs == 0 {
		err = fmt.Errorf("%s: no MemStats in the allocs profile", base)
	}
	return mallocs, bytes, err
}

// jobTimes is one job's life on its shard: the shard accepted its sweep,
// started the job and finished it.
type jobTimes struct{ queued, started, finished time.Time }

// timeline reads a routed sweep's merged timeline and returns each job's
// shard-side times, in job order.
func (c *client) timeline(ctx context.Context, base, id string) ([]jobTimes, error) {
	data, err := c.do(ctx, "GET", base+"/v1/sweeps/"+id+"/timeline", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var tv struct {
		Events []struct {
			Time  time.Time `json:"ts"`
			Event string    `json:"event"`
			Job   int       `json:"job"`
			Shard string    `json:"shard"`
		} `json:"events"`
	}
	if err := json.Unmarshal(data, &tv); err != nil {
		return nil, fmt.Errorf("timeline %s: %w", id, err)
	}
	accepted := make(map[string]time.Time)
	byJob := make(map[int]*jobTimes)
	shardOf := make(map[int]string)
	get := func(j int) *jobTimes {
		if byJob[j] == nil {
			byJob[j] = &jobTimes{}
		}
		return byJob[j]
	}
	for _, e := range tv.Events {
		switch {
		case e.Shard == "":
		case e.Event == "accepted" && e.Job < 0:
			accepted[e.Shard] = e.Time
		case e.Event == "started" && e.Job >= 0:
			get(e.Job).started = e.Time
			shardOf[e.Job] = e.Shard
		case e.Event == "finished" && e.Job >= 0:
			get(e.Job).finished = e.Time
		}
	}
	out := make([]jobTimes, len(byJob))
	for j := range out {
		jt := byJob[j]
		if jt == nil || jt.started.IsZero() || jt.finished.IsZero() || accepted[shardOf[j]].IsZero() {
			return nil, fmt.Errorf("timeline %s: job %d incomplete", id, j)
		}
		jt.queued = accepted[shardOf[j]]
		out[j] = *jt
	}
	return out, nil
}

// sweepBody is the POST /v1/sweeps request.
type sweepBody struct {
	Benchmarks []string `json:"benchmarks"`
	Policies   []string `json:"policies"`
	PFKiB      []int    `json:"pf_kib,omitempty"`
	Config     struct {
		AccessesPerThread int    `json:"accesses_per_thread"`
		Seed              uint64 `json:"seed"`
	} `json:"config"`
}

func (b sweepBody) encode(accesses int, seed uint64) []byte {
	b.Config.AccessesPerThread = accesses
	b.Config.Seed = seed
	data, _ := json.Marshal(b) // plain strings and numbers always marshal
	return data
}

// checkRows checks a results CSV: a header and n rows, each with an
// empty error column and a positive access count.
func checkRows(data []byte, n int) error {
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return fmt.Errorf("results CSV: %w", err)
	}
	if len(rows) != n+1 || len(rows[0]) < 9 || rows[0][6] != "error" || rows[0][8] != "accesses" {
		return fmt.Errorf("results CSV: %d lines, want a header and %d rows", len(rows), n)
	}
	for _, r := range rows[1:] {
		if len(r) != len(rows[0]) || r[6] != "" || r[8] == "0" {
			return fmt.Errorf("results CSV: failed row %q", r)
		}
	}
	return nil
}

// servedRun is one run of the served workload.
type servedRun struct {
	o      options
	c      *client
	start  time.Time
	shards []string // shard base URLs
	ref    []byte   // the hit sweep's CSV, which every hit must repeat

	setupNs          []float64
	bootEvery        time.Duration // between spare boots; 0 in the traced run
	nextBoot         time.Time
	coldNs           []float64
	coldCSV          []byte // the first cold sweep's CSV
	jobRunNs         []float64
	sweepRunNs       []float64 // mean job run time of each cold sweep
	jobQueueNs       []float64
	hitNs            []float64 // through the router
	shardHitNs       []float64 // straight to a shard (traced run)
	baseHitNs        []float64 // through the router, before profiling (traced run)
	allocs, allocB   float64   // shard heap allocations during the cold phase
	rssKB            int64
	retries          float64
	spans            []span
	traces           int // traced requests so far
	attempted, fails int
}

func (r *servedRun) fail(err error) {
	fmt.Fprintln(os.Stderr, "bench: served:", err)
	r.attempted++
	r.fails++
}

// runServed runs the served workload: a fleet boot, a pre-warm of the
// hit sweep, then a cold phase and a hit phase of one closed-loop
// client, together o.seconds long, with o.boots-1 more boots timed
// between requests. The traced run first times unprofiled hits, then
// CPU-profiles every daemon over both phases.
func runServed(ctx context.Context, o options) report {
	r := &servedRun{o: o, c: newClient(), start: time.Now()}
	defer r.c.hc.CloseIdleConnections()
	vals, err := r.run(ctx)
	if err != nil {
		r.fail(err)
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	return report{Correct: r.fails == 0, Attempted: r.attempted, Failed: r.fails, Metrics: fill(specs, vals)}
}

func (r *servedRun) run(ctx context.Context) (map[string]float64, error) {
	f, d, err := bootFleet(ctx, r.c, r.o.binDir)
	if err != nil {
		return nil, err
	}
	r.setupNs = append(r.setupNs, float64(d))
	stopped := false
	defer func() {
		if !stopped {
			f.stop()
		}
	}()
	router, shard := f.router.url, f.shards[0].url
	for _, d := range f.shards {
		r.shards = append(r.shards, d.url)
	}
	if err := r.prewarm(ctx, router, shard); err != nil {
		return nil, err
	}

	measure := r.o.seconds
	var profiles []<-chan profileResult
	hitShard := ""
	if !r.o.trace {
		r.bootEvery = seconds(measure / float64(r.o.boots))
		r.nextBoot = time.Now().Add(r.bootEvery)
	}
	if r.o.trace {
		r.hits(ctx, router, "", seconds(measure/4), &r.baseHitNs)
		// The profiled phases last whole seconds, the profile endpoint's
		// unit.
		secs := int(math.Max(1, math.Round(measure*3/4)))
		measure = float64(secs)
		hitShard = shard
		dir := filepath.Join(r.o.root, buildDir, "prof", servedName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		for _, d := range f.daemons() {
			profiles = append(profiles, r.profile(ctx, d, secs, filepath.Join(dir, d.name+".pprof")))
		}
	}
	before, err := r.shardAllocs(ctx, f)
	if err != nil {
		return nil, err
	}
	r.colds(ctx, router, seconds(measure*coldShare))
	after, err := r.shardAllocs(ctx, f)
	if err != nil {
		return nil, err
	}
	r.allocs, r.allocB = after[0]-before[0], after[1]-before[1]
	r.hits(ctx, router, hitShard, seconds(measure*(1-coldShare)), &r.hitNs)

	var paths []string
	for _, ch := range profiles {
		p := <-ch
		if p.err != nil {
			return nil, p.err
		}
		paths = append(paths, p.path)
	}
	if r.o.trace {
		if r.retries, err = r.routerRetries(ctx, router); err != nil {
			return nil, err
		}
	}
	stopped = true
	if r.rssKB, err = f.stop(); err != nil {
		r.fail(err)
	}

	replayCSV, c, err := replayCold(r.o.seed + coldSeedBase)
	if err != nil {
		return nil, err
	}
	if bytes.Equal(replayCSV, r.coldCSV) {
		r.attempted++
	} else {
		r.fail(fmt.Errorf("cold sweep CSV differs from the in-process simulation of its jobs"))
	}
	if !r.o.trace {
		return r.endToEnd(c), nil
	}
	return r.perLayer(ctx, c, paths)
}

// prewarm runs the hit sweep through the router and straight to a
// shard, so every later hit is served from cache on both paths, and
// fixes the reference CSV: the two must match byte for byte, and at the
// default seed the committed golden.
func (r *servedRun) prewarm(ctx context.Context, router, shard string) error {
	body := r.hitBody()
	var got [2][]byte
	for i, base := range []string{router, shard} {
		r.attempted++
		t, err := r.c.sweep(ctx, base, body)
		if err == nil {
			err = r.c.remove(ctx, base, t.id)
		}
		if err != nil {
			r.fails++
			return err
		}
		got[i] = t.csv
	}
	r.ref = got[0]
	sum := sha256.Sum256(r.ref)
	switch {
	case !bytes.Equal(got[0], got[1]):
		r.fail(fmt.Errorf("router CSV differs from the shard-direct CSV"))
	case r.o.seed == defaultSeed && hex.EncodeToString(sum[:]) != goldens["served-hit-csv"]:
		r.fail(fmt.Errorf("hit sweep CSV sha256 %x, want %s", sum, goldens["served-hit-csv"]))
	default:
		if err := checkRows(r.ref, len(hitBenchmarks())*len(hitPolicies)*len(hitPFKiB)); err != nil {
			r.fail(err)
		}
	}
	return nil
}

// hitBody is the hit sweep's request.
func (r *servedRun) hitBody() []byte {
	return sweepBody{Benchmarks: hitBenchmarks(), Policies: hitPolicies, PFKiB: hitPFKiB}.encode(hitAccesses, r.o.seed)
}

// colds runs cold sweeps through the router for d (at least one), each
// with a seed no earlier sweep used, and checks and times each.
func (r *servedRun) colds(ctx context.Context, router string, d time.Duration) {
	body := sweepBody{Benchmarks: coldBenchmarks, Policies: coldPolicies}
	end := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		if ctx.Err() != nil {
			return
		}
		t, err := r.c.sweep(ctx, router, body.encode(coldAccesses, r.o.seed+coldSeedBase+uint64(i)))
		if err == nil {
			err = checkRows(t.csv, len(coldBenchmarks)*len(coldPolicies))
		}
		var jobs []jobTimes
		if err == nil {
			jobs, err = r.c.timeline(ctx, router, t.id)
		}
		if err == nil {
			err = r.c.remove(ctx, router, t.id)
		}
		if err == nil {
			err = r.clean(ctx, i)
		}
		if err != nil {
			r.fail(err)
			continue
		}
		r.attempted++
		if i == 0 {
			r.coldCSV = t.csv
		}
		r.coldNs = append(r.coldNs, float64(t.total()))
		var run float64
		for _, j := range jobs {
			run += float64(j.finished.Sub(j.started))
			r.jobRunNs = append(r.jobRunNs, float64(j.finished.Sub(j.started)))
			r.jobQueueNs = append(r.jobQueueNs, float64(j.started.Sub(j.queued)))
		}
		r.sweepRunNs = append(r.sweepRunNs, run/float64(len(jobs)))
		r.record("cold", t, jobs)
		r.spareBoot(ctx)
	}
}

// hits resubmits the hit sweep through the router for d (at least
// once), alternating with shard-direct submissions when shard is set,
// and checks that every answer repeats the reference CSV.
func (r *servedRun) hits(ctx context.Context, router, shard string, d time.Duration, into *[]float64) {
	body := r.hitBody()
	end := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		if ctx.Err() != nil {
			return
		}
		r.hit(ctx, router, body, into)
		if shard != "" {
			r.hit(ctx, shard, body, &r.shardHitNs)
		}
		if err := r.clean(ctx, i); err != nil {
			r.fail(err)
		}
		r.spareBoot(ctx)
	}
}

// spareBoot times one more fleet boot between two requests when the
// next is due. Spreading the boots over the run, rather than timing them
// in one burst, keeps setup_s from following one moment's host speed.
func (r *servedRun) spareBoot(ctx context.Context) {
	if r.bootEvery == 0 || len(r.setupNs) >= r.o.boots || time.Now().Before(r.nextBoot) {
		return
	}
	r.nextBoot = r.nextBoot.Add(r.bootEvery)
	f, d, err := bootFleet(ctx, r.c, r.o.binDir)
	if err == nil {
		_, err = f.stop()
	}
	if err != nil {
		r.fail(err)
		return
	}
	r.attempted++
	r.setupNs = append(r.setupNs, float64(d))
}

// clean deletes, every cleanEvery requests, the sweeps the router left
// finished on the shards, so a shard's memory does not grow with the
// number of requests. Between two requests of the closed loop every
// shard sweep has been gathered.
func (r *servedRun) clean(ctx context.Context, i int) error {
	if i%cleanEvery != cleanEvery-1 {
		return nil
	}
	for _, base := range r.shards {
		data, err := r.c.do(ctx, "GET", base+"/v1/sweeps", nil, http.StatusOK)
		if err != nil {
			return err
		}
		var list []struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		}
		if err := json.Unmarshal(data, &list); err != nil {
			return fmt.Errorf("sweep list: %w", err)
		}
		for _, sw := range list {
			if sw.Status != "done" {
				continue
			}
			if err := r.c.remove(ctx, base, sw.ID); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *servedRun) hit(ctx context.Context, base string, body []byte, into *[]float64) {
	t, err := r.c.sweep(ctx, base, body)
	if err == nil && !bytes.Equal(t.csv, r.ref) {
		err = fmt.Errorf("hit sweep CSV from %s differs from the reference", base)
	}
	if err == nil {
		err = r.c.remove(ctx, base, t.id)
	}
	if err != nil {
		r.fail(err)
		return
	}
	r.attempted++
	*into = append(*into, float64(t.total()))
	r.record("hit", t, nil)
}

// record keeps a traced request's spans: the request, its
// submit/wait/fetch phases and, for each job, its queue and run on the
// shard (children of wait).
func (r *servedRun) record(name string, t sweepTiming, jobs []jobTimes) {
	if !r.o.trace {
		return
	}
	r.traces++
	id := r.traces
	at := func(x time.Time) int64 { return x.UnixNano() }
	r.spans = append(r.spans,
		span{Trace: id, ID: 1, Name: name, Start: at(t.at[0]), End: at(t.at[3])},
		span{Trace: id, ID: 2, Parent: 1, Name: "submit", Start: at(t.at[0]), End: at(t.at[1])},
		span{Trace: id, ID: 3, Parent: 1, Name: "wait", Start: at(t.at[1]), End: at(t.at[2])},
		span{Trace: id, ID: 4, Parent: 1, Name: "fetch", Start: at(t.at[2]), End: at(t.at[3])},
	)
	for j, jt := range jobs {
		r.spans = append(r.spans,
			span{Trace: id, ID: 5 + 2*j, Parent: 3, Name: "queue", Start: at(jt.queued), End: at(jt.started)},
			span{Trace: id, ID: 6 + 2*j, Parent: 3, Name: "run", Start: at(jt.started), End: at(jt.finished)},
		)
	}
}

// shardAllocs sums the shards' cumulative heap allocations (count,
// bytes).
func (r *servedRun) shardAllocs(ctx context.Context, f *fleet) ([2]float64, error) {
	var sum [2]float64
	for _, d := range f.shards {
		n, b, err := r.c.memStats(ctx, d.url)
		if err != nil {
			return sum, err
		}
		sum[0] += n
		sum[1] += b
	}
	return sum, nil
}

type profileResult struct {
	path string
	err  error
}

// profile fetches a secs-long CPU profile of d into path, in the
// background.
func (r *servedRun) profile(ctx context.Context, d *daemon, secs int, path string) <-chan profileResult {
	ch := make(chan profileResult, 1)
	go func() {
		data, err := r.c.do(ctx, "GET", fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", d.url, secs), nil, http.StatusOK)
		if err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
		ch <- profileResult{path, err}
	}()
	return ch
}

// routerRetries sums the router's shard retry counters.
func (r *servedRun) routerRetries(ctx context.Context, router string) (float64, error) {
	data, err := r.c.do(ctx, "GET", router+"/metrics", nil, http.StatusOK)
	if err != nil {
		return 0, err
	}
	var m struct {
		Shards []struct {
			Retries float64 `json:"retries"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return 0, fmt.Errorf("router metrics: %w", err)
	}
	var n float64
	for _, s := range m.Shards {
		n += s.Retries
	}
	return n, nil
}

// replayCold simulates the jobs of the cold sweep with the given seed
// in-process, exactly as a shard expands them, and returns their CSV and
// their summed per-layer counts.
func replayCold(seed uint64) ([]byte, map[string]float64, error) {
	var rows []allarm.SweepResult
	sum := make(map[string]float64)
	for _, b := range coldBenchmarks {
		for _, p := range coldPolicies {
			cfg := allarm.ExperimentConfig()
			cfg.AccessesPerThread = coldAccesses
			cfg.Seed = seed
			cfg.Policy = allarm.Policy(p)
			job := allarm.Job{Benchmark: b, Config: cfg}
			s, _, res := step(job, false)
			if s.Error != "" {
				return nil, nil, fmt.Errorf("replay %s/%s: %s", b, p, s.Error)
			}
			rows = append(rows, allarm.SweepResult{Job: job, Result: res})
			for k, v := range counts(res) {
				sum[k] += v
			}
		}
	}
	var buf bytes.Buffer
	if err := (allarm.CSVEmitter{}).Emit(&buf, rows); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), sum, nil
}

// endToEnd summarises the untraced run. A cold job is one simulation;
// c holds the summed counts of one cold sweep's jobs.
func (r *servedRun) endToEnd(c map[string]float64) map[string]float64 {
	jobs := float64(len(r.jobRunNs))
	p50 := quantile(r.sweepRunNs, 0.5) / 1e9
	perJob := float64(len(coldBenchmarks) * len(coldPolicies))
	return map[string]float64{
		"setup_s":          median(r.setupNs) / 1e9,
		"sim_p50_s":        p50,
		"sim_p75_s":        quantile(r.sweepRunNs, 0.75) / 1e9,
		"accesses_per_s":   ratio(c["workload.accesses"]/perJob, p50),
		"allocs_per_sim":   ratio(r.allocs, jobs),
		"alloc_mb_per_sim": ratio(r.allocB, jobs) / (1 << 20),
		"peak_rss_mb":      float64(r.rssKB) / 1024,
		"cold_p50_s":       quantile(r.coldNs, 0.5) / 1e9,
		"cold_p75_s":       quantile(r.coldNs, 0.75) / 1e9,
		"hit_p50_ms":       quantile(r.hitNs, 0.5) / 1e6,
		"hit_p90_ms":       quantile(r.hitNs, 0.9) / 1e6,
	}
}

// perLayer summarises the traced run: the mean exact counts of a cold
// job, CPU shares and per-unit costs from the daemons' profiles, the
// serving-layer latencies and the request spans.
func (r *servedRun) perLayer(ctx context.Context, c map[string]float64, profiles []string) (map[string]float64, error) {
	perJob := float64(len(coldBenchmarks) * len(coldPolicies))
	vals := ratios(c)
	for k, v := range c {
		vals[k] = v / perJob
	}
	layers, total, err := layerSeconds(ctx, profiles)
	if err != nil {
		return nil, err
	}
	for _, l := range append(append([]string(nil), cpuLayers...), "server", "fleet", "transport", "codec") {
		vals[l+".cpu_share"] = ratio(layers[l], total)
	}
	jobs := float64(len(r.jobRunNs))
	per := func(layer string, n float64) float64 { return ratio(layers[layer]*1e9/jobs, n/perJob) }
	vals["sim.ns_per_event"] = per("sim", c["sim.events"])
	vals["cache.ns_per_access"] = per("cache", c["cache.accesses"])
	vals["core.ns_per_request"] = per("core", c["core.local_requests"]+c["core.remote_requests"])
	vals["noc.ns_per_message"] = per("noc", c["noc.messages"])
	vals["dram.ns_per_access"] = per("dram", c["dram.reads"]+c["dram.writes"])
	vals["workload.ns_per_access"] = per("workload", c["workload.accesses"])

	vals["server.hit_p50_ms"] = quantile(r.shardHitNs, 0.5) / 1e6
	vals["server.hit_p90_ms"] = quantile(r.shardHitNs, 0.9) / 1e6
	vals["fleet.overhead_p50_ms"] = (quantile(r.hitNs, 0.5) - quantile(r.shardHitNs, 0.5)) / 1e6
	vals["fleet.hit_p99_ms"] = quantile(r.hitNs, 0.99) / 1e6
	vals["fleet.retries"] = r.retries
	vals["server.queue_wait_ms"] = median(r.jobQueueNs) / 1e6
	vals["server.job_run_ms"] = median(r.jobRunNs) / 1e6
	for k, v := range spanMedians(r.spans, "submit", "wait", "fetch") {
		vals[k] = v
	}
	vals["trace.overhead_frac"] = ratio(median(r.hitNs), median(r.baseHitNs)) - 1
	if err := writeTrace(r.o.root, servedName, r.start, r.spans); err != nil {
		return nil, err
	}
	return vals, nil
}
