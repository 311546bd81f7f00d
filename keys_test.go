package allarm_test

import (
	"bytes"
	"testing"

	allarm "allarm"
)

// Job.Key is the content address of allarm-serve's result cache (and
// Sweep.Dedup's fingerprint), so its exact value is a compatibility
// surface: silent drift would make the service cache conflate distinct
// simulations or re-run identical ones. These goldens pin the key for
// every workload kind. If one fails, the key format changed — make sure
// that was a deliberate, simulation-semantics-affecting change (for
// example Config gaining a behaviour-affecting field, which must change
// keys), then update the golden.
//
// goldenConfigKey is the fingerprint of goldenKeyConfig below; it is
// shared by every job golden because the config suffix is common.
const goldenConfigKey = "{Threads:4 AccessesPerThread:1000 Seed:7 Policy:allarm ALLARMRanges:[] " +
	"MemPolicy:0 Nodes:0 MeshW:0 MeshH:0 L1Bytes:0 L1Ways:0 L2Bytes:0 L2Ways:0 " +
	"PFBytes:131072 PFWays:0 CacheNs:0 DirNs:0 DRAMNs:0 LinkNs:0 DRAMIntervalNs:0 " +
	"LinkBytesPerNs:0 FlitBytes:0 CtrlMsgBytes:0 DataMsgBytes:0 MemMiBPerNode:0 " +
	"CheckInvariants:false MaxEvents:0}"

// noMPKey is the fingerprint of an inactive multi-process section.
const noMPKey = "{Copies:0 FootprintBytes:0 LocalMemBytes:0}"

func goldenKeyConfig() allarm.Config {
	return allarm.Config{Threads: 4, AccessesPerThread: 1000, Seed: 7, Policy: allarm.ALLARM, PFBytes: 128 << 10}
}

// goldenProgWorkload is a tiny deterministic programmatic workload (2
// threads × 3 accesses) used by the trace and programmatic goldens.
func goldenProgWorkload(t *testing.T) allarm.Workload {
	t.Helper()
	wl, err := allarm.NewWorkload(allarm.WorkloadSpec{
		Name: "pingpong", Threads: 2, Key: "pingpong-v1",
		Stream: func(thread int, seed uint64) allarm.Stream {
			n := 0
			return allarm.StreamFunc(func() (allarm.Access, bool) {
				if n >= 3 {
					return allarm.Access{}, false
				}
				n++
				return allarm.Access{VAddr: uint64(0x1000 * (n + thread)), Write: n%2 == 0, Think: allarm.Nanosecond}, true
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func TestJobKeyGoldenBenchmark(t *testing.T) {
	job := allarm.Job{Benchmark: "barnes", Config: goldenKeyConfig()}
	want := "bench:barnes|false|" + noMPKey + "|" + goldenConfigKey
	if got := job.Key(); got != want {
		t.Errorf("benchmark job key drifted:\n got %q\nwant %q", got, want)
	}
}

func TestJobKeyGoldenBenchmarkWorkload(t *testing.T) {
	wl, err := allarm.BenchmarkWorkload("barnes", 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	job := allarm.Job{Workload: wl, Config: goldenKeyConfig()}
	want := "wl:bench:barnes/t4/a1000|false|" + noMPKey + "|" + goldenConfigKey
	if got := job.Key(); got != want {
		t.Errorf("benchmark-workload job key drifted:\n got %q\nwant %q", got, want)
	}
}

func TestJobKeyGoldenProgrammatic(t *testing.T) {
	job := allarm.Job{Workload: goldenProgWorkload(t), Config: goldenKeyConfig()}
	want := "wl:func:pingpong-v1|false|" + noMPKey + "|" + goldenConfigKey
	if got := job.Key(); got != want {
		t.Errorf("programmatic job key drifted:\n got %q\nwant %q", got, want)
	}
}

func TestJobKeyGoldenTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := allarm.CaptureTrace(&buf, goldenProgWorkload(t), 7); err != nil {
		t.Fatal(err)
	}
	wl, err := allarm.ReadTraceNamed(&buf, "golden")
	if err != nil {
		t.Fatal(err)
	}
	job := allarm.Job{Workload: wl, Config: goldenKeyConfig()}
	// 2 threads × 3 measured records, no warmup.
	want := "wl:trace:golden#2/6+0|false|" + noMPKey + "|" + goldenConfigKey
	if got := job.Key(); got != want {
		t.Errorf("trace job key drifted:\n got %q\nwant %q", got, want)
	}
}

func TestJobKeyGoldenMultiProcess(t *testing.T) {
	mp := allarm.DefaultMultiProcess()
	job := allarm.Job{Benchmark: "barnes", Config: goldenKeyConfig(), MultiProcess: &mp}
	want := "bench:barnes|true|{Copies:2 FootprintBytes:655360 LocalMemBytes:589824}|" + goldenConfigKey
	if got := job.Key(); got != want {
		t.Errorf("multi-process job key drifted:\n got %q\nwant %q", got, want)
	}
}

// TestJobKeyDiscriminates spot-checks that the key separates what must
// be separate and unifies what must be unified.
func TestJobKeyDiscriminates(t *testing.T) {
	cfg := goldenKeyConfig()
	base := allarm.Job{Benchmark: "barnes", Config: cfg}

	same := allarm.Job{Benchmark: "barnes", Config: cfg}
	if base.Key() != same.Key() {
		t.Error("identical jobs got different keys")
	}

	seed := base
	seed.Config.Seed = 8
	pol := base
	pol.Config.Policy = allarm.Baseline
	pf := base
	pf.Config.PFBytes = 256 << 10
	other := allarm.Job{Benchmark: "x264", Config: cfg}
	for name, j := range map[string]allarm.Job{"seed": seed, "policy": pol, "pf": pf, "benchmark": other} {
		if j.Key() == base.Key() {
			t.Errorf("job differing in %s shares the base key", name)
		}
	}

	// A first-class Workload makes MultiProcess inert (Job.RunCtx ignores
	// it), so it must not split the key.
	wl, err := allarm.BenchmarkWorkload("barnes", 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	mp := allarm.DefaultMultiProcess()
	a := allarm.Job{Workload: wl, Config: cfg}
	b := allarm.Job{Workload: wl, Config: cfg, MultiProcess: &mp}
	if a.Key() != b.Key() {
		t.Error("inert MultiProcess split the key of a Workload job")
	}
}
