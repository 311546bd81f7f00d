package allarm_test

import (
	"bytes"
	"fmt"
	"reflect"
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

// TestJobKeyMatchesFormat holds Job.Key to its reference form (fmt's
// %+v rendering, FormatKey) for the preset configurations and for a
// Config whose every field carries a distinct non-zero value, set
// through reflect: a Config field added without a Job.Key appender
// entry, or an entry out of declaration order, fails here.
func TestJobKeyMatchesFormat(t *testing.T) {
	mp := allarm.DefaultMultiProcess()
	jobs := map[string]allarm.Job{
		"default":       {Benchmark: "barnes", Config: allarm.DefaultConfig()},
		"experiment":    {Benchmark: "ocean-cont", Config: allarm.ExperimentConfig()},
		"golden":        {Benchmark: "barnes", Config: goldenKeyConfig()},
		"multi-process": {Benchmark: "ocean-cont", Config: allarm.ExperimentConfig(), MultiProcess: &mp},
		"every-field":   {Benchmark: "barnes", Config: everyFieldConfig(t)},
	}
	for name, j := range jobs {
		if got, want := j.Key(), allarm.FormatKey(j); got != want {
			t.Errorf("%s: Key differs from its reference form:\n got %q\nwant %q", name, got, want)
		}
	}
}

// everyFieldConfig sets each Config field, in declaration order, to a
// value no other field holds.
func everyFieldConfig(t *testing.T) allarm.Config {
	t.Helper()
	var c allarm.Config
	v := reflect.ValueOf(&c).Elem()
	n := 0
	var fill func(f reflect.Value, name string)
	fill = func(f reflect.Value, name string) {
		n++
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(int64(1000 + n))
		case reflect.Uint64:
			f.SetUint(uint64(2000 + n))
		case reflect.Float64:
			f.SetFloat(float64(n) + 0.25)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString(fmt.Sprintf("policy-%d", n))
		case reflect.Slice:
			s := reflect.MakeSlice(f.Type(), 2, 2)
			for i := 0; i < s.Len(); i++ {
				fill(s.Index(i), name)
			}
			f.Set(s)
		case reflect.Struct:
			for i := 0; i < f.NumField(); i++ {
				fill(f.Field(i), name+"."+f.Type().Field(i).Name)
			}
		default:
			t.Fatalf("Config.%s: kind %s has no test value; extend everyFieldConfig", name, f.Kind())
		}
	}
	for i := 0; i < v.NumField(); i++ {
		fill(v.Field(i), v.Type().Field(i).Name)
	}
	return c
}

// TestJobKeyAllocs pins the key's cost in allocations: the buffer and
// the returned string.
func TestJobKeyAllocs(t *testing.T) {
	j := allarm.Job{Benchmark: "barnes", Config: allarm.ExperimentConfig()}
	if n := testing.AllocsPerRun(100, func() { j.Key() }); n > 2 {
		t.Errorf("Job.Key allocates %v times, want at most 2", n)
	}
}

func BenchmarkJobKey(b *testing.B) {
	j := allarm.Job{Benchmark: "barnes", Config: allarm.ExperimentConfig()}
	b.ReportAllocs()
	for b.Loop() {
		j.Key()
	}
}
