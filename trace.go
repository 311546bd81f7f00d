package allarm

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"allarm/internal/trace"
)

// CaptureTrace writes a complete replayable trace of wl to w: its page
// placements, its warmup pass and its measured access streams, captured
// at the given seed. A workload loaded back with ReadTrace and run under
// the same Config (and any policy) produces results bit-identical to
// running wl directly — placement, warmup, access order and
// picosecond-exact think times all survive the round trip.
func CaptureTrace(w io.Writer, wl Workload, seed uint64) error {
	if wl == nil {
		return fmt.Errorf("allarm: CaptureTrace needs a workload")
	}
	_, err := trace.Capture(w, wl, seed)
	return err
}

// LoadTrace reads a trace file captured with CaptureTrace (or the
// allarm-trace tool) into a replayable Workload named after the file.
// Replays ignore the run seed: the captured streams are exact.
func LoadTrace(path string) (Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("allarm: %w", err)
	}
	defer f.Close()
	wl, err := ReadTraceNamed(f, filepath.Base(path))
	if err != nil {
		return nil, fmt.Errorf("allarm: trace %s: %w", path, err)
	}
	return wl, nil
}

// ReadTrace reads a trace stream into a replayable Workload (named
// "trace"; LoadTrace names it after its file).
func ReadTrace(r io.Reader) (Workload, error) {
	return ReadTraceNamed(r, "trace")
}

// ReadTraceNamed reads a trace stream into a replayable Workload with
// the given name. The name identifies the workload in results and — via
// Job.Key — in sweep deduplication and allarm-serve's result cache, so
// distinct trace contents sharing one deduplicated sweep (or one cache)
// need distinct names; allarm-serve names uploads by content hash for
// exactly this reason. The replay's Key (see Keyer) covers its name,
// thread count and record counts.
func ReadTraceNamed(r io.Reader, name string) (Workload, error) {
	tr, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	rp, err := trace.LoadReplay(tr, name)
	if err != nil {
		return nil, err
	}
	return rp, nil
}
