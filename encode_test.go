package allarm_test

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	allarm "allarm"
)

// refCSVHeader and refCells are the CSV/table rendering as it was before
// the append encoders, kept as their oracle: every cell through strconv,
// the file through encoding/csv.
var refCSVHeader = strings.Split(
	"benchmark,policy,threads,copies,pf_kib,seed,error,runtime_ns,accesses,pf_allocs,pf_evictions,eviction_msgs,l2_misses,noc_bytes,noc_msgs,local_reqs,remote_reqs,local_probes,probes_hidden,untracked_grants,uncached_grants,noc_energy_pj,pf_energy_pj", ",")

func refCells(rec allarm.Record) []string {
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }
	m := rec.RecordMetrics
	if m == nil {
		m = &allarm.RecordMetrics{}
	}
	return []string{
		rec.Benchmark, rec.Policy,
		strconv.Itoa(rec.Threads), strconv.Itoa(rec.Copies),
		strconv.Itoa(rec.PFKiB), u(rec.Seed), rec.Error,
		f(m.RuntimeNs), u(m.Accesses), u(m.PFAllocs),
		u(m.PFEvictions), u(m.EvictionMsgs), u(m.L2Misses),
		u(m.NoCBytes), u(m.NoCMessages), u(m.LocalRequests),
		u(m.RemoteRequests), u(m.LocalProbes), u(m.ProbesHidden),
		u(m.UntrackedGrants), u(m.UncachedGrants),
		f(m.NoCEnergyPJ), f(m.PFEnergyPJ),
	}
}

func refCSV(recs []allarm.Record) ([]byte, error) {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	cw.Write(refCSVHeader)
	for _, rec := range recs {
		cw.Write(refCells(rec))
	}
	cw.Flush()
	return buf.Bytes(), cw.Error()
}

func refNDJSON(recs []allarm.Record) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return buf.Bytes(), err
		}
	}
	return buf.Bytes(), nil
}

func refJSON(recs []allarm.Record, indent bool) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if indent {
		enc.SetIndent("", "  ")
	}
	err := enc.Encode(recs)
	return buf.Bytes(), err
}

// checkEncoders renders recs with every record emitter and its oracle:
// each must write the same bytes, and fail exactly when the oracle does.
func checkEncoders(t *testing.T, recs []allarm.Record) {
	t.Helper()
	cases := []struct {
		name string
		e    allarm.RecordEmitter
		ref  func([]allarm.Record) ([]byte, error)
	}{
		{"csv", allarm.CSVEmitter{}, refCSV},
		{"ndjson", allarm.NDJSONEmitter{}, refNDJSON},
		{"json", allarm.JSONEmitter{}, func(r []allarm.Record) ([]byte, error) { return refJSON(r, false) }},
		{"json-indent", allarm.JSONEmitter{Indent: true}, func(r []allarm.Record) ([]byte, error) { return refJSON(r, true) }},
	}
	for _, c := range cases {
		want, wantErr := c.ref(recs)
		var got bytes.Buffer
		err := c.e.EmitRecords(&got, recs)
		if (err != nil) != (wantErr != nil) || !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: got %q (err %v)\nwant %q (err %v)", c.name, got.Bytes(), err, want, wantErr)
		}
	}
}

// FuzzRecordEncoders holds the CSV, NDJSON and JSON record encoders to
// encoding/csv over the reference cells and to json.Encoder: fuzzed
// text fields (CSV specials, HTML characters, invalid UTF-8, U+2028),
// metric floats from raw IEEE bits (NaN, infinities, −0, subnormals,
// the 'f'/'e' switch points), nil or set metrics and the aborted flag.
// The fuzzed record sits between a plain one and a failed one, so an
// unsupported float must leave exactly the preceding rows written.
func FuzzRecordEncoders(f *testing.F) {
	texts := []string{"", `\.`, " lead", "\tx", "\u00a0nbsp", "\u0085x", "a\u2028b", "a,b", `q"q"`, "cr\rlf\n", "<&>",
		"\xff\xfe", "\u2028\u2029", "ünïcødé", "barnes", `allarm: unknown benchmark "no-such"`}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 1e-6, 1e-7,
		1e20, 1e21, 1234.5, 0.05, 0.25, 9.95, math.MaxFloat64, 1 << 53}
	for i, s := range texts {
		v := floats[i%len(floats)]
		f.Add(s, texts[(i+1)%len(texts)], texts[(i+2)%len(texts)],
			math.Float64bits(v), math.Float64bits(floats[(i+3)%len(floats)]), math.Float64bits(-v), uint64(i)*977, uint8(i))
	}
	f.Fuzz(func(t *testing.T, bench, policy, errMsg string, rt, nocE, pfE, count uint64, flags uint8) {
		rec := allarm.Record{
			Benchmark: bench, Policy: policy, Error: errMsg,
			Threads: int(int32(count)), PFKiB: int(int16(count >> 32)), Seed: count * 0x9e3779b97f4a7c15,
			Aborted: flags&1 != 0,
		}
		if flags&2 != 0 {
			rec.Copies = int(count >> 48)
		}
		if flags&4 == 0 {
			rec.RecordMetrics = &allarm.RecordMetrics{
				RuntimeNs: math.Float64frombits(rt), NoCEnergyPJ: math.Float64frombits(nocE), PFEnergyPJ: math.Float64frombits(pfE),
				Accesses: count, PFAllocs: count >> 1, PFEvictions: count >> 7, EvictionMsgs: ^count, L2Misses: count * 3,
				NoCBytes: count << 5, NoCMessages: 1, LocalRequests: count >> 13, RemoteRequests: count & 0xffff,
				LocalProbes: count >> 40, ProbesHidden: 7, UntrackedGrants: math.MaxUint64, UncachedGrants: count % 10,
			}
		}
		plain := fabricatedResults()
		recs := []allarm.Record{allarm.RecordOf(plain[0]), rec, allarm.RecordOf(plain[1])}
		if flags&8 != 0 {
			recs = recs[1:2]
		}
		checkEncoders(t, recs)
		if flags&16 != 0 {
			checkEncoders(t, nil)
		}
	})
}

// TestCSVFloatCells: the one-decimal metric cells match strconv's 'f', 1
// over random magnitudes, exact halves and their neighbours.
func TestCSVFloatCells(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	recs := make([]allarm.Record, 0, 3000)
	for len(recs) < cap(recs) {
		half := float64(r.Int63n(1e9)) / 20
		other := r.Float64() * math.Pow(10, float64(r.Intn(20)))
		if len(recs)%2 == 0 {
			other = -math.Nextafter(half, 0)
		}
		recs = append(recs, allarm.Record{RecordMetrics: &allarm.RecordMetrics{
			RuntimeNs: math.Float64frombits(r.Uint64()), NoCEnergyPJ: half, PFEnergyPJ: other,
		}})
	}
	want, _ := refCSV(recs)
	var got bytes.Buffer
	if err := (allarm.CSVEmitter{}).EmitRecords(&got, recs); err != nil || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("CSV float cells differ from strconv (err %v)", err)
	}
}
