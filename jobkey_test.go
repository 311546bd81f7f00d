package allarm

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// FormatKey is the reference form Job.Key reproduces without
// reflection: the workload fingerprint, whether the multi-process
// section is active, then that section and the Config as fmt's %+v
// prints them. It is exported for the package's external tests.
func FormatKey(j Job) string {
	wl := "bench:" + j.Benchmark
	if j.Workload != nil {
		if k, ok := j.Workload.(Keyer); ok {
			wl = "wl:" + k.Key()
		} else {
			wl = fmt.Sprintf("wl:%s#%d", j.Workload.Name(), j.Workload.Threads())
		}
	}
	mp := MultiProcessConfig{}
	active := j.Workload == nil && j.MultiProcess != nil
	if active {
		mp = *j.MultiProcess
	}
	return fmt.Sprintf("%s|%t|%+v|%+v", wl, active, mp, j.Config)
}

// fuzzWorkload is a Workload without a Key, so its jobs take
// the name-and-threads fallback of the workload fingerprint.
type fuzzWorkload struct {
	name    string
	threads int
}

func (w fuzzWorkload) Name() string                              { return w.name }
func (w fuzzWorkload) Threads() int                              { return w.threads }
func (w fuzzWorkload) Stream(int, uint64) Stream                 { return nil }
func (w fuzzWorkload) WarmupStream(int, uint64) Stream           { return nil }
func (w fuzzWorkload) ForEachPage(func(page uint64, thread int)) {}

// fuzzKeyedWorkload is a Workload fingerprinted by its Key.
type fuzzKeyedWorkload struct {
	fuzzWorkload
	key string
}

func (w fuzzKeyedWorkload) Key() string { return w.key }

// fuzzWords reads data as little-endian 64-bit words, zero once spent.
type fuzzWords []byte

func (d *fuzzWords) next() uint64 {
	var w [8]byte
	*d = (*d)[copy(w[:], *d):]
	return binary.LittleEndian.Uint64(w[:])
}

// fuzzJob builds a job from fuzz input. Every int, uint and float
// field of Config, in declaration order, takes the next word of data
// (floats as IEEE bits, so NaN payloads, infinities, -0 and subnormals
// all occur); ALLARMRanges takes 0–3 ranges. kind picks the workload
// (bit 0-1: preset, keyed Workload, unkeyed Workload) and whether
// MultiProcess is set (bit 2).
func fuzzJob(t *testing.T, data []byte, policy string, kind uint8, name string) Job {
	d := fuzzWords(data)
	var c Config
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(int64(d.next()))
		case reflect.Uint64:
			f.SetUint(d.next())
		case reflect.Float64:
			f.SetFloat(math.Float64frombits(d.next()))
		case reflect.Bool:
			f.SetBool(d.next()&1 == 1)
		case reflect.String:
			f.SetString(policy)
		case reflect.Slice:
			for n := d.next() % 4; n > 0; n-- {
				c.ALLARMRanges = append(c.ALLARMRanges, AddrRange{Start: d.next(), End: d.next()})
			}
		default:
			t.Fatalf("Config.%s: kind %s has no fuzz decoding", v.Type().Field(i).Name, f.Kind())
		}
	}
	j := Job{Config: c}
	if kind&4 != 0 {
		j.MultiProcess = &MultiProcessConfig{Copies: int(d.next()), FootprintBytes: int(d.next()), LocalMemBytes: int(d.next())}
	}
	wl := fuzzWorkload{name: name, threads: int(d.next())}
	switch kind & 3 {
	case 1:
		j.Workload = fuzzKeyedWorkload{wl, name}
	case 2:
		j.Workload = wl
	default:
		j.Benchmark = name
	}
	return j
}

// FuzzJobKey holds Job.Key to FormatKey over fuzzed configurations,
// multi-process sections and workloads.
func FuzzJobKey(f *testing.F) {
	words := func(w uint64) []byte {
		b := make([]byte, 0, 8*48)
		for i := 0; i < 48; i++ {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	edges := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		1e6, 1e20, 1e21, 1e-4, 1e-5, 0.1, 123456.789, -2.5e-300,
		math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	for i, e := range edges {
		f.Add(words(math.Float64bits(e)), "allarm", uint8(i%8), "barnes")
	}
	for _, w := range []uint64{0, 1, math.MaxUint64, 1 << 63, math.MaxInt64} {
		f.Add(words(w), "baseline", uint8(w%8), "ocean-cont")
	}
	for i, p := range []string{"", "%d}{", "}|{", "a b:c", "\xff\xfe\x00"} {
		f.Add(words(uint64(i+1)), p, uint8(i+1), "trace:%s#")
	}
	f.Fuzz(func(t *testing.T, data []byte, policy string, kind uint8, name string) {
		j := fuzzJob(t, data, policy, kind, name)
		if got, want := j.Key(), FormatKey(j); got != want {
			t.Fatalf("Key differs from its reference form:\n got %q\nwant %q", got, want)
		}
	})
}
