package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	allarm "allarm"
)

const (
	// batchSims is how many simulations one child process runs. Each
	// child's first simulation is also a cold-start sample, so small
	// batches give enough of those.
	batchSims = 2
	// setupPerSim is how many StartJob calls an untraced child times
	// after each simulation, for setup_s. Spreading them over the whole
	// run, rather than timing them in one burst, keeps their median from
	// following one moment's host speed.
	setupPerSim = 4
	// emitBlocks blocks of emitBlock CSV renderings of each finished
	// Result time the simulation workloads' hit path. A sample is the
	// mean of one block: a single rendering takes a few microseconds and
	// its time swings by 2x with the core's state.
	emitBlocks = 10
	emitBlock  = 20
	// traceWindow is the event window traced simulations step in, so the
	// warmup/ROI boundary is observed between windows.
	traceWindow = 65536
	// minTracedSims is how many traced (and untraced) simulations a
	// traced run collects at least.
	minTracedSims = 10
)

// simSample is one simulation's report from a child process.
type simSample struct {
	WallNs     int64              `json:"wall_ns"`
	DoneUnixNs int64              `json:"done_unix_ns"`
	Allocs     uint64             `json:"allocs"`
	AllocBytes uint64             `json:"alloc_bytes"`
	Digest     string             `json:"digest"`
	Counts     map[string]float64 `json:"counts"`
	EmitNs     []int64            `json:"emit_ns,omitempty"`
	SetupNs    []int64            `json:"setup_ns,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
	Error      string             `json:"error,omitempty"`
}

// runSimChild is the child-process side of a batch: it runs batchSims
// simulations one after another and prints one JSON sample per line.
// With profileDir set, each simulation's timed span is CPU-profiled into
// its own file there and the simulation steps in traceWindow windows.
func runSimChild(w simWorkload, seed uint64, profileDir string, out io.Writer) error {
	job := w.job(seed, 1)
	enc := json.NewEncoder(out)
	for i := 0; i < batchSims; i++ {
		var prof *os.File
		if profileDir != "" {
			f, err := os.CreateTemp(profileDir, w.name+"-*.pprof")
			if err != nil {
				return err
			}
			prof = f
		}
		s := simulate(job, prof)
		if prof != nil {
			if err := prof.Close(); err != nil {
				return err
			}
		}
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// simulate runs one complete simulation after a GC (outside the timed
// span) and measures it; an untraced one then times the hit path and
// set-up (StartJob, each after a GC). A non-nil prof receives a CPU
// profile of the timed span, and the run is then traced: stepped in
// windows, with setup/warmup/roi/result spans.
func simulate(job allarm.Job, prof *os.File) simSample {
	traced := prof != nil
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if traced {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return simSample{Error: err.Error()}
		}
	}
	t0 := time.Now()
	s, marks, res := step(job, traced)
	t1 := time.Now()
	if traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&after)
	if s.Error != "" {
		return s
	}
	s.WallNs = t1.Sub(t0).Nanoseconds()
	s.DoneUnixNs = t1.UnixNano()
	s.Allocs = after.Mallocs - before.Mallocs
	s.AllocBytes = after.TotalAlloc - before.TotalAlloc
	s.Digest = digest(res)
	s.Counts = counts(res)
	if traced {
		at := func(t time.Time) int64 { return t.UnixNano() }
		s.Spans = []span{
			{ID: 1, Name: "sim", Start: at(t0), End: at(t1)},
			{ID: 2, Parent: 1, Name: "setup", Start: at(t0), End: at(marks[0])},
			{ID: 3, Parent: 1, Name: "warmup", Start: at(marks[0]), End: at(marks[1])},
			{ID: 4, Parent: 1, Name: "roi", Start: at(marks[1]), End: at(marks[2])},
			{ID: 5, Parent: 1, Name: "result", Start: at(marks[2]), End: at(t1)},
		}
		return s
	}
	rows := []allarm.SweepResult{{Job: job, Result: res}}
	var buf bytes.Buffer
	// A GC and an untimed first block, so no timed block collects the
	// simulation's garbage or pays for caches the simulation evicted.
	runtime.GC()
	for i := -1; i < emitBlocks; i++ {
		t := time.Now()
		for j := 0; j < emitBlock; j++ {
			buf.Reset()
			if err := (allarm.CSVEmitter{}).Emit(&buf, rows); err != nil {
				s.Error = err.Error()
				return s
			}
		}
		if i >= 0 {
			s.EmitNs = append(s.EmitNs, time.Since(t).Nanoseconds()/emitBlock)
		}
	}
	for i := 0; i < setupPerSim; i++ {
		runtime.GC()
		t := time.Now()
		_, err := allarm.StartJob(job)
		d := time.Since(t)
		if err != nil {
			s.Error = err.Error()
			return s
		}
		s.SetupNs = append(s.SetupNs, d.Nanoseconds())
	}
	return s
}

// step drives one job from StartJob to Result. marks are the instants
// StartJob returned, the measured region began and the last event fired.
func step(job allarm.Job, traced bool) (s simSample, marks [3]time.Time, res *allarm.Result) {
	h, err := allarm.StartJob(job)
	if err != nil {
		return simSample{Error: err.Error()}, marks, nil
	}
	marks[0] = time.Now()
	var window uint64
	if traced {
		window = traceWindow
		if h.CanSnapshot() {
			marks[1] = marks[0]
		}
	}
	for {
		done, err := h.Step(context.Background(), window)
		if err != nil {
			return simSample{Error: err.Error()}, marks, nil
		}
		if done {
			break
		}
		if traced && marks[1].IsZero() && h.CanSnapshot() {
			marks[1] = time.Now()
		}
	}
	marks[2] = time.Now()
	if marks[1].IsZero() {
		marks[1] = marks[2]
	}
	res, err = h.Result()
	if err != nil {
		return simSample{Error: err.Error()}, marks, nil
	}
	return s, marks, res
}

// simRun is the parent-side state of one simulation workload's run: it
// spawns child processes and collects their samples.
type simRun struct {
	w      simWorkload
	o      options
	golden string // expected digest; "" means every repeat must agree

	samples  []simSample // untraced simulations
	traced   []simSample
	coldNs   []float64
	maxRSSKB int64
	measured time.Duration
	start    time.Time

	attempted, failed int
}

func newSimRun(w simWorkload, o options) (*simRun, error) {
	r := &simRun{w: w, o: o, start: time.Now()}
	if o.seed == defaultSeed {
		r.golden = goldens[w.name]
	}
	if o.trace {
		if err := os.RemoveAll(r.profileDir()); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(r.profileDir(), 0o755); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// child runs this binary as a child process that simulates one batch,
// and returns its standard output, its exec instant and its peak RSS.
func (r *simRun) child(ctx context.Context, extra ...string) (out []byte, startUnixNs, maxRSSKB int64, err error) {
	args := append([]string{"-child", "-workload", r.w.name, "-seed", strconv.FormatUint(r.o.seed, 10)}, extra...)
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, r.o.exe, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err = cmd.Run(); err != nil {
		err = fmt.Errorf("%s child: %w", r.w.name, err)
	}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			maxRSSKB = ru.Maxrss
		}
	}
	return stdout.Bytes(), start.UnixNano(), maxRSSKB, err
}

// batch runs one child of batchSims simulations, traced (CPU-profiled
// and windowed) or not, and checks every sample. A child that fails
// counts its missing simulations as failed operations.
func (r *simRun) batch(ctx context.Context, traced bool) {
	t := time.Now()
	defer func() { r.measured += time.Since(t) }()
	var args []string
	if traced {
		args = []string{"-profile", r.profileDir()}
	}
	out, startNs, rss, err := r.child(ctx, args...)
	var got []simSample
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var s simSample
		if e := dec.Decode(&s); e == io.EOF {
			break
		} else if e != nil {
			err = fmt.Errorf("%s child output: %w", r.w.name, e)
			break
		}
		got = append(got, s)
	}
	if err != nil || len(got) != batchSims {
		r.fail(batchSims-len(got), fmt.Errorf("%s child returned %d of %d samples: %v", r.w.name, len(got), batchSims, err))
	}
	if rss > r.maxRSSKB && !traced {
		r.maxRSSKB = rss
	}
	for i, s := range got {
		r.attempted++
		if !r.check(s) {
			r.failed++
			continue
		}
		if traced {
			for j := range s.Spans {
				s.Spans[j].Trace = len(r.traced) + 1
			}
			r.traced = append(r.traced, s)
			continue
		}
		if i == 0 {
			r.coldNs = append(r.coldNs, float64(s.DoneUnixNs-startNs))
		}
		r.samples = append(r.samples, s)
	}
}

// profileDir is where the workload's traced children write their CPU
// profiles, one file per simulation.
func (r *simRun) profileDir() string {
	return filepath.Join(r.o.root, buildDir, "prof", r.w.name)
}

// done reports whether the run has measured enough: o.seconds of
// batches, and in a traced run at least minTracedSims traced and
// untraced simulations. A run that keeps failing stops at four times
// its time budget.
func (r *simRun) done() bool {
	budget := seconds(r.o.seconds)
	switch {
	case r.measured >= 4*budget:
		return true
	case r.measured < budget:
		return false
	case r.o.trace:
		return len(r.traced) >= minTracedSims && len(r.samples) >= minTracedSims
	}
	return true
}

// report returns the run's result: end-to-end metrics, or per-layer
// ones for a traced run.
func (r *simRun) report(ctx context.Context) report {
	specs, vals := endToEnd, map[string]float64(nil)
	if r.o.trace {
		specs = perLayer
		var err error
		if vals, err = r.perLayer(ctx); err != nil {
			r.fail(1, err)
		}
	} else {
		vals = r.endToEnd()
	}
	return report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: fill(specs, vals)}
}

func (r *simRun) fail(n int, err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	r.attempted += n
	r.failed += n
}

// check reports whether a sample succeeded with the expected digest: the
// committed golden at the default seed, otherwise the digest of the
// run's first simulation.
func (r *simRun) check(s simSample) bool {
	if s.Error != "" {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", r.w.name, s.Error)
		return false
	}
	if r.golden == "" {
		r.golden = s.Digest
	}
	if s.Digest != r.golden {
		fmt.Fprintf(os.Stderr, "bench: %s: digest %s, want %s\n", r.w.name, s.Digest, r.golden)
		return false
	}
	return true
}

// endToEnd summarises the untraced simulations.
func (r *simRun) endToEnd() map[string]float64 {
	var wall, allocs, bytes, acc, emit, setup []float64
	for _, s := range r.samples {
		for _, ns := range s.SetupNs {
			setup = append(setup, float64(ns))
		}
		wall = append(wall, float64(s.WallNs))
		allocs = append(allocs, float64(s.Allocs))
		bytes = append(bytes, float64(s.AllocBytes))
		acc = append(acc, s.Counts["workload.accesses"])
		for _, e := range s.EmitNs {
			emit = append(emit, float64(e))
		}
	}
	p50 := quantile(wall, 0.5) / 1e9
	return map[string]float64{
		"setup_s":          median(setup) / 1e9,
		"sim_p50_s":        p50,
		"sim_p75_s":        quantile(wall, 0.75) / 1e9,
		"accesses_per_s":   ratio(median(acc), p50),
		"allocs_per_sim":   median(allocs),
		"alloc_mb_per_sim": median(bytes) / (1 << 20),
		"peak_rss_mb":      float64(r.maxRSSKB) / 1024,
		"cold_p50_s":       quantile(r.coldNs, 0.5) / 1e9,
		"cold_p75_s":       quantile(r.coldNs, 0.75) / 1e9,
		"hit_p50_ms":       quantile(emit, 0.5) / 1e6,
		"hit_p90_ms":       quantile(emit, 0.9) / 1e6,
	}
}

// perLayer summarises the traced simulations: exact counts and ratios,
// CPU shares and per-unit costs from the profiles, span medians, tracing
// overhead against the untraced simulations, and the microbenchmarks.
func (r *simRun) perLayer(ctx context.Context) (map[string]float64, error) {
	if len(r.traced) == 0 {
		return nil, fmt.Errorf("%s: no traced simulation succeeded", r.w.name)
	}
	c := r.traced[0].Counts
	vals := ratios(c)
	for k, v := range c {
		vals[k] = v
	}
	profiles, err := filepath.Glob(filepath.Join(r.profileDir(), "*.pprof"))
	if err != nil {
		return nil, err
	}
	layers, total, err := layerSeconds(ctx, profiles)
	if err != nil {
		return nil, err
	}
	for _, l := range cpuLayers {
		vals[l+".cpu_share"] = ratio(layers[l], total)
	}
	// Self time per simulation, in ns, divided by the layer's work count.
	per := func(layer string, n float64) float64 {
		return ratio(layers[layer]*1e9/float64(len(r.traced)), n)
	}
	vals["sim.ns_per_event"] = per("sim", c["sim.events"])
	vals["cache.ns_per_access"] = per("cache", c["cache.accesses"])
	vals["core.ns_per_request"] = per("core", c["core.local_requests"]+c["core.remote_requests"])
	vals["noc.ns_per_message"] = per("noc", c["noc.messages"])
	vals["dram.ns_per_access"] = per("dram", c["dram.reads"]+c["dram.writes"])
	vals["workload.ns_per_access"] = per("workload", c["workload.accesses"])

	var spans []span
	var tracedWall, wall []float64
	for _, s := range r.traced {
		spans = append(spans, s.Spans...)
		tracedWall = append(tracedWall, float64(s.WallNs))
	}
	for _, s := range r.samples {
		wall = append(wall, float64(s.WallNs))
	}
	for k, v := range spanMedians(spans, "setup", "warmup", "roi", "result") {
		vals[k] = v
	}
	vals["trace.overhead_frac"] = ratio(median(tracedWall), median(wall)) - 1
	if err := writeTrace(r.o.root, r.w.name, r.start, spans); err != nil {
		return nil, err
	}

	m, err := micro(r.w, r.o.seed)
	if err != nil {
		return nil, err
	}
	for k, v := range m {
		vals[k] = v
	}
	explained := c["sim.events"]*m["micro.engine_event_ns"] +
		c["cache.accesses"]*m["micro.cache_access_ns"] +
		c["core.pf_allocs"]*m["micro.pf_alloc_ns"] +
		c["noc.messages"]*m["micro.noc_send_ns"] +
		(c["dram.reads"]+c["dram.writes"])*m["micro.dram_read_ns"] +
		c["workload.accesses"]*m["micro.stream_next_ns"]
	vals["micro.explained_frac"] = ratio(explained, median(wall))
	return vals, nil
}
