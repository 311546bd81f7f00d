package allarm_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	allarm "allarm"
)

// fabricatedResults builds a two-row sweep outcome by hand (one success,
// one failed job) so emitter goldens don't depend on the simulator.
func fabricatedResults() []allarm.SweepResult {
	cfg := allarm.Config{Threads: 16, PFBytes: 128 << 10, Seed: 1, Policy: allarm.ALLARM}
	ok := allarm.SweepResult{
		Job: allarm.Job{Benchmark: "barnes", Config: cfg},
		Result: &allarm.Result{
			Benchmark:  "barnes",
			PolicyUsed: allarm.ALLARM,
			RuntimeNs:  1234.5,
			Accesses:   32000,
			PFAllocs:   100,
			// Zero on purpose: ALLARM eliminating every eviction is the
			// paper's headline case and must survive serialisation.
			PFEvictions:     0,
			EvictionMsgs:    40,
			L2Misses:        500,
			NoCBytes:        65536,
			NoCMessages:     900,
			LocalRequests:   700,
			RemoteRequests:  300,
			LocalProbes:     50,
			ProbesHidden:    45,
			UntrackedGrants: 600,
			NoCEnergyPJ:     1000.4,
			PFEnergyPJ:      200.8,
		},
	}
	badCfg := cfg
	badCfg.Policy = allarm.Baseline
	bad := allarm.SweepResult{
		Job: allarm.Job{Benchmark: "no-such", Config: badCfg},
		Err: errors.New("allarm: unknown benchmark \"no-such\""),
	}
	return []allarm.SweepResult{ok, bad}
}

func TestCSVEmitterGolden(t *testing.T) {
	var sb strings.Builder
	if err := (allarm.CSVEmitter{}).Emit(&sb, fabricatedResults()); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"benchmark,policy,threads,copies,pf_kib,seed,error,runtime_ns,accesses,pf_allocs,pf_evictions,eviction_msgs,l2_misses,noc_bytes,noc_msgs,local_reqs,remote_reqs,local_probes,probes_hidden,untracked_grants,uncached_grants,noc_energy_pj,pf_energy_pj",
		"barnes,allarm,16,0,128,1,,1234.5,32000,100,0,40,500,65536,900,700,300,50,45,600,0,1000.4,200.8",
		"no-such,baseline,16,0,128,1,\"allarm: unknown benchmark \"\"no-such\"\"\",0.0,0,0,0,0,0,0,0,0,0,0,0,0,0,0.0,0.0",
		"",
	}, "\n")
	if sb.String() != want {
		t.Fatalf("CSV output:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestJSONEmitterGolden(t *testing.T) {
	var sb strings.Builder
	if err := (allarm.JSONEmitter{}).Emit(&sb, fabricatedResults()); err != nil {
		t.Fatal(err)
	}
	var recs []map[string]interface{}
	if err := json.Unmarshal([]byte(sb.String()), &recs); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	r := recs[0]
	if r["benchmark"] != "barnes" || r["policy"] != "allarm" {
		t.Fatalf("record 0 ids wrong: %v", r)
	}
	if r["runtime_ns"] != 1234.5 || r["pf_kib"] != float64(128) || r["untracked_grants"] != float64(600) {
		t.Fatalf("record 0 metrics wrong: %v", r)
	}
	// A legitimately zero metric must be present (0), not omitted.
	if v, present := r["pf_evictions"]; !present || v != float64(0) {
		t.Fatalf("zero metric dropped from JSON: %v", r)
	}
	if _, present := r["error"]; present {
		t.Fatal("successful record carries an error field")
	}
	if recs[1]["error"] != "allarm: unknown benchmark \"no-such\"" {
		t.Fatalf("record 1 error wrong: %v", recs[1])
	}
	if _, present := recs[1]["runtime_ns"]; present {
		t.Fatal("failed record carries metrics")
	}
}

func TestNDJSONEmitterGolden(t *testing.T) {
	var sb strings.Builder
	if err := (allarm.NDJSONEmitter{}).Emit(&sb, fabricatedResults()); err != nil {
		t.Fatal(err)
	}
	// One self-contained JSON object per line, keys exactly as
	// JSONEmitter writes them (failed jobs omit the metric keys; the
	// legitimately zero pf_evictions survives).
	want := strings.Join([]string{
		`{"benchmark":"barnes","policy":"allarm","threads":16,"pf_kib":128,"seed":1,"runtime_ns":1234.5,"accesses":32000,"pf_allocs":100,"pf_evictions":0,"eviction_msgs":40,"l2_misses":500,"noc_bytes":65536,"noc_msgs":900,"local_reqs":700,"remote_reqs":300,"local_probes":50,"probes_hidden":45,"untracked_grants":600,"uncached_grants":0,"noc_energy_pj":1000.4,"pf_energy_pj":200.8}`,
		`{"benchmark":"no-such","policy":"baseline","threads":16,"pf_kib":128,"seed":1,"error":"allarm: unknown benchmark \"no-such\""}`,
		"",
	}, "\n")
	if sb.String() != want {
		t.Fatalf("NDJSON output:\n%s\nwant:\n%s", sb.String(), want)
	}
	// Every line must be independently parseable (the streaming
	// property the format exists for).
	for i, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
		var rec map[string]interface{}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not standalone JSON: %v\n%s", i, err, line)
		}
	}
}

// TestEmitAbortedRecord: a job cancelled mid-simulation (partial
// Result + cancellation error) is emitted with "aborted":true and its
// partial metrics alongside the error — the contract a drained
// sweep's served rows rely on — while plain failures and successes are unchanged.
func TestEmitAbortedRecord(t *testing.T) {
	cfg := allarm.Config{Threads: 16, PFBytes: 128 << 10, Seed: 1, Policy: allarm.Baseline}
	aborted := allarm.SweepResult{
		Job: allarm.Job{Benchmark: "barnes", Config: cfg},
		Result: &allarm.Result{
			Benchmark:  "barnes",
			PolicyUsed: allarm.Baseline,
			RuntimeNs:  99.5,
			Accesses:   1200,
			Partial:    true,
		},
		Err: fmt.Errorf("allarm: barnes (baseline): %w", context.Canceled),
	}
	if !aborted.Aborted() {
		t.Fatal("fixture not recognised as aborted")
	}
	skipped := allarm.SweepResult{
		Job: allarm.Job{Benchmark: "x264", Config: cfg},
		Err: context.Canceled,
	}

	var sb strings.Builder
	if err := (allarm.NDJSONEmitter{}).Emit(&sb, []allarm.SweepResult{aborted, skipped}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2:\n%s", len(lines), sb.String())
	}
	var a, s map[string]interface{}
	if err := json.Unmarshal([]byte(lines[0]), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &s); err != nil {
		t.Fatal(err)
	}
	if a["aborted"] != true {
		t.Errorf("aborted record missing aborted flag: %v", a)
	}
	if a["error"] == "" || a["error"] == nil {
		t.Errorf("aborted record missing error: %v", a)
	}
	if a["runtime_ns"] != 99.5 || a["accesses"] != float64(1200) {
		t.Errorf("aborted record lost its partial metrics: %v", a)
	}
	if _, present := s["aborted"]; present {
		t.Errorf("skipped record carries an aborted flag: %v", s)
	}
	if _, present := s["runtime_ns"]; present {
		t.Errorf("skipped record carries metrics: %v", s)
	}

	// The CSV column set is unchanged: aborted rows render their partial
	// metrics with the error column, no extra column.
	sb.Reset()
	if err := (allarm.CSVEmitter{}).Emit(&sb, []allarm.SweepResult{aborted}); err != nil {
		t.Fatal(err)
	}
	csvLines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if !strings.Contains(csvLines[1], "99.5") || !strings.Contains(csvLines[1], "context canceled") {
		t.Errorf("aborted CSV row: %s", csvLines[1])
	}
	if got, want := strings.Count(csvLines[1], ","), strings.Count(csvLines[0], ","); got != want {
		t.Errorf("aborted CSV row has %d separators, header has %d", got, want)
	}
}

func TestJSONEmitterIndent(t *testing.T) {
	var sb strings.Builder
	if err := (allarm.JSONEmitter{Indent: true}).Emit(&sb, fabricatedResults()); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "[\n  {\n") {
		t.Fatalf("indented output not pretty-printed:\n%s", sb.String())
	}
}

func TestTableEmitterGolden(t *testing.T) {
	var sb strings.Builder
	if err := (&allarm.TableEmitter{}).Emit(&sb, fabricatedResults()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "benchmark | policy") {
		t.Fatalf("table header wrong:\n%s", out)
	}
	for _, want := range []string{"barnes", "allarm", "1234.5", "no-such", "unknown benchmark"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestTableEmitterReferenceSpeedup(t *testing.T) {
	results := fabricatedResults()[:1]
	ref := &allarm.Result{RuntimeNs: 2469.0} // exactly 2x the row's runtime
	e := &allarm.TableEmitter{
		Reference: func(allarm.SweepResult) *allarm.Result { return ref },
	}
	var sb strings.Builder
	if err := e.Emit(&sb, results); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "speedup") || !strings.Contains(out, "2.000") {
		t.Fatalf("speedup column missing:\n%s", out)
	}
	if !strings.Contains(out, "geomean") {
		t.Fatalf("geomean row missing:\n%s", out)
	}
}

// benchRows is n successful results, the hit path's usual rows.
func benchRows(n int) []allarm.SweepResult {
	ok := fabricatedResults()[0]
	rows := make([]allarm.SweepResult, n)
	for i := range rows {
		rows[i] = ok
	}
	return rows
}

func benchmarkEmit(b *testing.B, e allarm.Emitter) {
	for _, n := range []int{1, 64} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			rows := benchRows(n)
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := e.Emit(&buf, rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEmitCSV(b *testing.B)    { benchmarkEmit(b, allarm.CSVEmitter{}) }
func BenchmarkEmitNDJSON(b *testing.B) { benchmarkEmit(b, allarm.NDJSONEmitter{}) }

// TestCSVEmitAllocs: a one-row CSV render of a live result allocates
// only what RecordsOf needs (the record slice and its metrics), not a
// writer, a buffer or a string per cell.
func TestCSVEmitAllocs(t *testing.T) {
	rows := benchRows(1)
	var buf bytes.Buffer
	buf.Grow(4096)
	allocs := testing.AllocsPerRun(200, func() {
		buf.Reset()
		if err := (allarm.CSVEmitter{}).Emit(&buf, rows); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("one-row CSV Emit: %.0f allocs, want at most 3", allocs)
	}
}
