package main

import (
	"time"

	allarm "allarm"
	"allarm/internal/cache"
	"allarm/internal/core"
	"allarm/internal/dram"
	"allarm/internal/mem"
	"allarm/internal/noc"
	"allarm/internal/sim"
)

const (
	// microOps is the number of calls one microbenchmark repetition
	// makes (the stream and cache ones replay the whole stream instead).
	microOps = 200_000
	// microReps is how often each microbenchmark repeats; the median
	// ns per call is reported.
	microReps = 3
)

// microSink keeps the compiler from discarding measured results.
var microSink sim.Time

// micro times the simulator's layer primitives through their exported
// functions, fed with inputs shaped like the workload's: thread 0's
// access stream, and the lines of that stream which miss a private
// L1/L2 hierarchy of the workload's geometry (an L2-miss-shaped mix).
// It returns ns per call, keyed by per-layer metric name.
func micro(w simWorkload, seed uint64) (map[string]float64, error) {
	cfg := w.job(seed, 1).Config
	threads := cfg.Threads
	if w.multiProcess {
		threads = 1
	}
	wl, err := allarm.BenchmarkWorkload(w.benchmark, threads, w.accesses)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)

	accs := make([]allarm.Access, 0, w.accesses)
	out["micro.stream_next_ns"] = nsPerCall(func() (time.Duration, int) {
		s := wl.Stream(0, seed)
		accs = accs[:0]
		t := time.Now()
		for a, ok := s.Next(); ok; a, ok = s.Next() {
			accs = append(accs, a)
		}
		return time.Since(t), len(accs)
	})

	misses := make([]mem.PAddr, 0, len(accs))
	out["micro.cache_access_ns"] = nsPerCall(func() (time.Duration, int) {
		h := cache.NewHierarchy(cfg.L1Bytes, cfg.L1Ways, cfg.L2Bytes, cfg.L2Ways)
		misses = misses[:0]
		t := time.Now()
		for _, a := range accs {
			pa := mem.PAddr(a.VAddr)
			if r := h.Access(pa, a.Write); r.Outcome != cache.Hit {
				st := cache.Exclusive
				if a.Write {
					st = cache.Modified
				}
				h.Fill(pa, st, false, 0)
				misses = append(misses, mem.LineOf(pa))
			}
		}
		return time.Since(t), len(accs)
	})
	if len(misses) == 0 {
		misses = append(misses, 0)
	}

	out["micro.pf_alloc_ns"] = nsPerCall(func() (time.Duration, int) {
		pf := core.NewProbeFilter(cfg.PFBytes, cfg.PFWays)
		n := 0
		t := time.Now()
		// Each pass shifts the lines above the workload's address range:
		// every Alloc installs an absent line in the set the workload's
		// own miss would use, evicting once the filter is full.
		for pass := 0; n < microOps; pass++ {
			off := mem.PAddr(pass) << 40
			for _, a := range misses {
				if pf.Peek(a+off) == nil {
					pf.Alloc(a+off, core.EntryEM, 0, nil)
					n++
				}
			}
		}
		return time.Since(t), n
	})

	nsT := func(v float64) sim.Time { return sim.Time(v * float64(sim.Nanosecond)) }
	ncfg := noc.Config{
		Width: cfg.MeshW, Height: cfg.MeshH,
		LinkLatency: nsT(cfg.LinkNs), LinkBandwidth: cfg.LinkBytesPerNs,
		FlitBytes: cfg.FlitBytes, ControlBytes: cfg.CtrlMsgBytes, DataBytes: cfg.DataMsgBytes,
		LocalLatency: nsT(cfg.CacheNs),
	}
	out["micro.noc_send_ns"] = nsPerCall(func() (time.Duration, int) {
		m := noc.New(ncfg)
		var now sim.Time
		n := 0
		t := time.Now()
		// Messages travel from the missing thread's node to a remote home
		// picked by the line's page: noc.messages counts remote ones only.
		for n < microOps {
			for i, a := range misses {
				src := i % threads
				dst := (src + 1 + int(uint64(a)/mem.PageBytes%uint64(cfg.Nodes-1))) % cfg.Nodes
				microSink = m.Send(now, mem.NodeID(src), mem.NodeID(dst), noc.Class(i&1))
				now += sim.Nanosecond
				n++
			}
		}
		return time.Since(t), n
	})

	out["micro.dram_read_ns"] = nsPerCall(func() (time.Duration, int) {
		c := dram.New(nsT(cfg.DRAMNs), nsT(cfg.DRAMIntervalNs))
		var now sim.Time
		t := time.Now()
		for i := 0; i < microOps; i++ {
			microSink = c.Read(now)
			now += 2 * sim.Nanosecond
		}
		return time.Since(t), microOps
	})

	// The event heap holds four in-flight events per thread, each
	// rescheduling itself at one of the machine's latencies.
	lat := []sim.Time{nsT(cfg.CacheNs), nsT(cfg.DirNs), nsT(cfg.LinkNs), 2 * nsT(cfg.LinkNs), nsT(cfg.DRAMNs)}
	out["micro.engine_event_ns"] = nsPerCall(func() (time.Duration, int) {
		eng := &sim.Engine{}
		left := microOps
		hops := make([]microHop, 4*threads)
		for i := range hops {
			hops[i] = microHop{eng: eng, delay: lat[i%len(lat)], left: &left}
			eng.Schedule(sim.Time(i)*100*sim.Picosecond, &hops[i])
		}
		t := time.Now()
		fired := eng.Run(0)
		return time.Since(t), int(fired)
	})
	return out, nil
}

// microHop is an event that reschedules itself until the shared budget
// runs out.
type microHop struct {
	eng   *sim.Engine
	delay sim.Time
	left  *int
}

// Handle implements sim.Handler.
func (h *microHop) Handle(now sim.Time) {
	if *h.left > 0 {
		*h.left--
		h.eng.Schedule(now+h.delay, h)
	}
}

// nsPerCall runs f microReps times and returns the median ns per call.
func nsPerCall(f func() (time.Duration, int)) float64 {
	var xs []float64
	for i := 0; i < microReps; i++ {
		d, n := f()
		xs = append(xs, ratio(float64(d.Nanoseconds()), float64(n)))
	}
	return median(xs)
}
