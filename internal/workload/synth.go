package workload

import (
	"fmt"
	"sync"

	"allarm/internal/mem"
	"allarm/internal/rng"
)

// SharePattern selects how threads reference the shared region.
type SharePattern uint8

const (
	// Uniform spreads shared accesses uniformly over the whole region
	// (poor reuse; most shared references miss).
	Uniform SharePattern = iota
	// HotOwner concentrates accesses on a Zipf-skewed hot set of the
	// shared region; combined with OwnerInit placement this reproduces
	// blackscholes' "one thread initialises, everyone reads" behaviour.
	HotOwner
	// Stencil partitions the region by thread; each thread mostly works
	// on its own partition and leaks NeighborFrac of its shared accesses
	// into the adjacent partitions' boundary rows (ocean's pattern).
	Stencil
	// Pipeline stages data between threads: each thread writes its own
	// partition and reads its upstream neighbour's (dedup/x264).
	Pipeline
	// Migratory passes blocks of lines from thread to thread with
	// read-modify-write bursts (cholesky's panel updates).
	Migratory
)

// String implements fmt.Stringer.
func (p SharePattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case HotOwner:
		return "hot-owner"
	case Stencil:
		return "stencil"
	case Pipeline:
		return "pipeline"
	case Migratory:
		return "migratory"
	default:
		return "unknown"
	}
}

// InitPattern selects which thread first-touches shared pages (NUMA
// placement before the region of interest).
type InitPattern uint8

const (
	// OwnerInit: thread 0 touches every shared page (blackscholes).
	OwnerInit InitPattern = iota
	// PartitionedInit: each thread touches its own partition (ocean,
	// barnes after domain decomposition).
	PartitionedInit
	// InterleavedInit: pages round-robin across threads (scattered data
	// structures; ocean-non-contiguous approximates this).
	InterleavedInit
)

// Params configures a synthetic benchmark generator.
type Params struct {
	Name              string
	Threads           int
	AccessesPerThread int

	// PrivateBytes is each thread's private working set; relative to the
	// L2 capacity it controls the local (capacity) miss rate.
	PrivateBytes int
	// PrivateFrac is the fraction of references into the private region.
	PrivateFrac float64
	// PrivateWriteFrac is the store fraction of private references.
	PrivateWriteFrac float64
	// PrivateHot skews private references: fraction of private accesses
	// that go to a small hot subset (reuse), the rest streaming.
	PrivateHot float64

	// SharedBytes is the shared region size; SharedWriteFrac its store
	// ratio; SharedHot the Zipf exponent for HotOwner.
	SharedBytes     int
	SharedWriteFrac float64
	SharedHot       float64

	// GlobalBytes is a machine-wide read-mostly region (code, lookup
	// tables, octree internals, reference frames): GlobalFrac of all
	// references go here. Each thread repeatedly sweeps its own slice
	// (GlobalHot of global references; the affinity real schedulers
	// create), the rest sample uniformly. Because the whole region is
	// first-touched during initialisation by a few threads
	// (GlobalHomeNodes), its directory entries concentrate on a few hot
	// homes — the imbalance that drives baseline probe-filter pressure.
	GlobalBytes int
	GlobalFrac  float64
	GlobalHot   float64
	// GlobalHomeNodes concentrates the global region's pages on the
	// first k threads' nodes (0 = spread across all threads). Shared
	// structures in real programs (tree roots, task queues, hash
	// directories, reference frames) are first-touched by a few threads,
	// so a few homes carry most of the machine's tracking load.
	GlobalHomeNodes int

	Pattern SharePattern
	Init    InitPattern
	// NeighborFrac (Stencil): share of shared accesses to neighbours'
	// boundaries. UpstreamFrac (Pipeline): share of shared accesses that
	// read the upstream stage. BlockLines/BlockRun (Migratory): lines per
	// migratory block and accesses per ownership episode.
	NeighborFrac float64
	UpstreamFrac float64
	BlockLines   int
	BlockRun     int

	// SeqRunFrac is the probability of continuing a sequential run
	// (spatial locality) rather than jumping.
	SeqRunFrac float64

	// Think is the mean compute gap between accesses; ThinkJitter its
	// uniform spread.
	Think       Duration
	ThinkJitter Duration
}

// Synthetic is a Workload built from Params.
type Synthetic struct {
	p Params

	// hot is HotOwner's Zipf table, built on the first Stream call and
	// shared read-only by every thread's sampler.
	hotOnce sync.Once
	hot     rng.ZipfCDF
}

// NewSynthetic validates p and returns the workload.
func NewSynthetic(p Params) (*Synthetic, error) {
	if err := validateParams(p); err != nil {
		return nil, err
	}
	if p.BlockLines <= 0 {
		p.BlockLines = 64
	}
	if p.BlockRun <= 0 {
		p.BlockRun = 32
	}
	return &Synthetic{p: p}, nil
}

// MustSynthetic is NewSynthetic for the trusted built-in presets.
func MustSynthetic(p Params) *Synthetic {
	w, err := NewSynthetic(p)
	if err != nil {
		panic(err)
	}
	return w
}

// Name implements Workload.
func (w *Synthetic) Name() string { return w.p.Name }

// Key fingerprints the simulation the generator produces: presets are
// fully identified by name, threads and access budget.
func (w *Synthetic) Key() string {
	return fmt.Sprintf("bench:%s/t%d/a%d", w.p.Name, w.p.Threads, w.p.AccessesPerThread)
}

// Threads implements Workload.
func (w *Synthetic) Threads() int { return w.p.Threads }

// Params returns a copy of the generator parameters.
func (w *Synthetic) Params() Params { return w.p }

// ForEachPage implements Workload: private pages belong to their thread;
// global pages interleave across threads (balanced homes); shared pages
// follow the Init pattern.
func (w *Synthetic) ForEachPage(fn func(page uint64, thread int)) {
	for t := 0; t < w.p.Threads; t++ {
		base := PrivateBase(t)
		for off := 0; off < w.p.PrivateBytes; off += mem.PageBytes {
			fn(base+uint64(off), t)
		}
	}
	ghomes := w.p.GlobalHomeNodes
	if ghomes <= 0 || ghomes > w.p.Threads {
		ghomes = w.p.Threads
	}
	for i := 0; i < w.p.GlobalBytes/mem.PageBytes; i++ {
		fn(globalBase+uint64(i*mem.PageBytes), i%ghomes)
	}
	pages := w.p.SharedBytes / mem.PageBytes
	part := (pages + w.p.Threads - 1) / w.p.Threads
	for i := 0; i < pages; i++ {
		va := sharedBase + uint64(i*mem.PageBytes)
		switch w.p.Init {
		case OwnerInit:
			fn(va, 0)
		case PartitionedInit:
			fn(va, min(i/part, w.p.Threads-1))
		case InterleavedInit:
			fn(va, i%w.p.Threads)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// WarmupStream implements Workload: thread t's initialisation pass, run before the
// measured region of interest: it sweeps the thread's private region, its
// own shared partition, and a slice of the global region shared with a
// partner thread (so every global line acquires two readers and its
// probe-filter entry degrades to the lingering S state). This leaves the
// caches and probe filters in the steady state a long-running benchmark
// would have at the start of its measured phase.
func (w *Synthetic) WarmupStream(t int, seed uint64) Stream {
	p := w.p
	var sweeps []sweep

	// Private region, line-granular, with writes per the preset.
	sweeps = append(sweeps, sweep{
		base:  PrivateBase(t),
		lines: p.PrivateBytes / mem.LineBytes,
		write: p.PrivateWriteFrac,
	})

	// Own shared partition (patterns with per-thread partitions touch it
	// heavily; a single pass warms the caches and directory).
	sharedLines := p.SharedBytes / mem.LineBytes
	part := sharedLines / p.Threads
	if part > 0 {
		sweeps = append(sweeps, sweep{
			base:  sharedBase + uint64(t*part*mem.LineBytes),
			lines: part,
			write: p.SharedWriteFrac,
		})
	}

	// Own global slice: one pass warms the caches and leaves the slice's
	// probe-filter entries live at their (concentrated) homes — the
	// steady state a long-running benchmark reaches.
	if p.GlobalBytes > 0 {
		slice := p.GlobalBytes / mem.LineBytes / p.Threads
		if slice > 0 {
			sweeps = append(sweeps, sweep{
				base:  globalBase + uint64(t*slice*mem.LineBytes),
				lines: slice,
				write: 0,
			})
		}
	}
	return &warmupStream{sweeps: sweeps, src: rng.New(seed ^ 0xdead ^ uint64(t)<<32)}
}

type sweep struct {
	base  uint64
	lines int
	write float64
}

type warmupStream struct {
	sweeps []sweep
	src    *rng.Source
	si     int
	li     int
}

// Next implements Stream: one access per line, zero think time.
func (ws *warmupStream) Next() (Access, bool) {
	for ws.si < len(ws.sweeps) {
		sw := ws.sweeps[ws.si]
		if ws.li < sw.lines {
			a := Access{
				VAddr: sw.base + uint64(ws.li*mem.LineBytes),
				Write: ws.src.Bool(sw.write),
			}
			ws.li++
			return a, true
		}
		ws.si++
		ws.li = 0
	}
	return Access{}, false
}

// Stream implements Workload.
func (w *Synthetic) Stream(t int, seed uint64) Stream {
	p := w.p
	src := rng.New(seed ^ (uint64(t)+1)*0x9e3779b97f4a7c15 ^ hashName(p.Name))
	s := &synthStream{p: p, t: t, src: src}
	privLines := p.PrivateBytes / mem.LineBytes
	hotLines := privLines / 8
	if hotLines < 1 {
		hotLines = 1
	}
	s.privLines = privLines
	s.hotLines = hotLines
	if p.Pattern == HotOwner {
		s.zipf = w.hotCDF().Sampler(src)
	}
	return s
}

// hotCDF returns the workload's shared HotOwner Zipf table.
func (w *Synthetic) hotCDF() rng.ZipfCDF {
	w.hotOnce.Do(func() {
		n := w.p.SharedBytes / mem.LineBytes
		if n > 4096 {
			n = 4096 // Zipf table over the hot head; tail sampled uniform
		}
		w.hot = rng.NewZipfCDF(n, w.p.SharedHot)
	})
	return w.hot
}

// hashName folds a benchmark name into the seed so different benchmarks
// with the same seed do not replay identical random streams.
func hashName(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// wordBytes is the access granularity: sequential runs step one word at a
// time, so a streaming pass touches each 64-byte line eight times before
// moving on — the spatial locality that gives real codes their cache hit
// rates.
const wordBytes = 8

// wordsPerLine is the number of access-granularity words per cache line.
const wordsPerLine = mem.LineBytes / wordBytes

type synthStream struct {
	p         Params
	t         int
	src       *rng.Source
	zipf      *rng.Zipf
	issued    int
	privLines int
	hotLines  int
	// sequential-run cursors, in words
	privCursor   int
	sharedCursor int
	globalCursor int
	migEpoch     int
}

// Next implements Stream.
func (s *synthStream) Next() (Access, bool) {
	if s.issued >= s.p.AccessesPerThread {
		return Access{}, false
	}
	s.issued++

	think := s.p.Think
	if s.p.ThinkJitter > 0 {
		think += Duration(s.src.Uint64n(uint64(s.p.ThinkJitter)))
	}

	r := s.src.Float64()
	switch {
	case r < s.p.GlobalFrac:
		return Access{VAddr: s.globalAddr(), Think: think}, true
	case r < s.p.GlobalFrac+s.p.PrivateFrac:
		return Access{
			VAddr: s.privateAddr(),
			Write: s.src.Bool(s.p.PrivateWriteFrac),
			Think: think,
		}, true
	}
	va, write := s.sharedAddr()
	return Access{VAddr: va, Write: write, Think: think}, true
}

// globalAddr picks a read-only word: with probability GlobalHot the
// thread continues the word-granular sweep of its own slice (fast
// revisit, so a back-invalidated slice line is guaranteed to re-miss on
// the next pass), otherwise it samples the whole region uniformly
// (creating the multi-reader S entries that linger in the probe filter).
func (s *synthStream) globalAddr() uint64 {
	lines := s.p.GlobalBytes / mem.LineBytes
	slice := lines / s.p.Threads
	if slice < 1 {
		slice = 1
	}
	if s.src.Bool(s.p.GlobalHot) {
		s.globalCursor = (s.globalCursor + 1) % (slice * wordsPerLine)
		word := s.t*slice*wordsPerLine + s.globalCursor
		return globalBase + uint64(word*wordBytes)
	}
	line := s.src.Intn(lines)
	return globalBase + uint64(line*mem.LineBytes+s.src.Intn(wordsPerLine)*wordBytes)
}

// privateAddr picks a word in the thread's private arena: a hot subset
// with strong reuse plus a streaming remainder, with word-granular
// sequential runs for spatial locality.
func (s *synthStream) privateAddr() uint64 {
	words := s.privLines * wordsPerLine
	switch {
	case s.src.Bool(s.p.SeqRunFrac):
		s.privCursor = (s.privCursor + 1) % words
	case s.src.Bool(s.p.PrivateHot):
		s.privCursor = s.src.Intn(s.hotLines) * wordsPerLine
	default:
		s.privCursor = s.src.Intn(s.privLines) * wordsPerLine
	}
	return PrivateBase(s.t) + uint64(s.privCursor*wordBytes)
}

// sharedAddr picks a word in the shared region according to the pattern.
func (s *synthStream) sharedAddr() (uint64, bool) {
	lines := s.p.SharedBytes / mem.LineBytes
	part := lines / s.p.Threads
	if part == 0 {
		part = 1
	}
	write := s.src.Bool(s.p.SharedWriteFrac)

	var word int
	switch s.p.Pattern {
	case Uniform:
		if s.src.Bool(s.p.SeqRunFrac) {
			s.sharedCursor = (s.sharedCursor + 1) % (lines * wordsPerLine)
		} else {
			s.sharedCursor = s.src.Intn(lines) * wordsPerLine
		}
		word = s.sharedCursor

	case HotOwner:
		var line int
		if s.zipf != nil && s.src.Bool(0.85) {
			line = s.zipf.Next()
		} else {
			line = s.src.Intn(lines)
		}
		word = line*wordsPerLine + s.src.Intn(wordsPerLine)

	case Stencil:
		if s.src.Bool(s.p.NeighborFrac) {
			// Boundary exchange: sweep the first quarter of an adjacent
			// thread's partition (the halo plane; proportionally wide in
			// a scaled-down grid).
			n := s.t + 1
			if s.src.Bool(0.5) {
				n = s.t - 1
			}
			n = ((n % s.p.Threads) + s.p.Threads) % s.p.Threads
			boundary := part / 4
			if boundary < 1 {
				boundary = 1
			}
			word = (n*part + s.src.Intn(boundary)) * wordsPerLine
		} else {
			if s.src.Bool(s.p.SeqRunFrac) {
				s.sharedCursor = (s.sharedCursor + 1) % (part * wordsPerLine)
			} else {
				s.sharedCursor = s.src.Intn(part) * wordsPerLine
			}
			word = s.t*part*wordsPerLine + s.sharedCursor
		}

	case Pipeline:
		// Stages communicate through a bounded queue region at the head
		// of each partition: the producer re-writes it, the consumer
		// re-reads it, so the traffic is coherence (invalidation) misses
		// rather than capacity misses — dedup/x264's behaviour.
		queue := part / 8
		if queue < 1 {
			queue = 1
		}
		switch {
		case s.src.Bool(s.p.UpstreamFrac):
			up := ((s.t-1)%s.p.Threads + s.p.Threads) % s.p.Threads
			word = (up*part+s.src.Intn(queue))*wordsPerLine + s.src.Intn(wordsPerLine)
			write = false
		case s.src.Bool(0.5):
			// Enqueue into our own queue region.
			word = (s.t*part+s.src.Intn(queue))*wordsPerLine + s.src.Intn(wordsPerLine)
			write = true
		default:
			// Scratch sweep across the rest of our partition.
			if s.src.Bool(s.p.SeqRunFrac) {
				s.sharedCursor = (s.sharedCursor + 1) % (part * wordsPerLine)
			} else {
				s.sharedCursor = s.src.Intn(part) * wordsPerLine
			}
			word = s.t*part*wordsPerLine + s.sharedCursor
		}

	case Migratory:
		// Blocks pass from thread to thread; within an ownership episode
		// the thread sweeps the block word-by-word (read-modify-write),
		// so misses are coherence misses at block handoff.
		blocks := lines / s.p.BlockLines
		if blocks == 0 {
			blocks = 1
		}
		if s.issued%s.p.BlockRun == 0 {
			s.migEpoch++
		}
		b := (s.t + s.migEpoch) % blocks
		blockWords := s.p.BlockLines * wordsPerLine
		s.sharedCursor = (s.sharedCursor + 1) % blockWords
		word = b*blockWords + s.sharedCursor
	}

	maxWord := lines*wordsPerLine - 1
	if word > maxWord {
		word = maxWord
	}
	return sharedBase + uint64(word*wordBytes), write
}
