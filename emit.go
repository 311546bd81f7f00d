package allarm

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"allarm/internal/stats"
)

// Emitter renders the results of a sweep. The built-in emitters —
// TableEmitter, CSVEmitter, JSONEmitter and NDJSONEmitter — share one
// flat Record per job (spec fields plus the Result metrics), so the
// same sweep can feed a terminal, a spreadsheet or a downstream tool
// without re-running. Every built-in emitter also implements
// RecordEmitter: rendering pre-flattened Records (for example rows
// gathered from several allarm-serve shards by allarm-router) goes
// through exactly the same code path as rendering live results, so the
// two are byte-identical by construction.
type Emitter interface {
	Emit(w io.Writer, results []SweepResult) error
}

// RecordEmitter renders pre-flattened Records — the merge seam for
// consumers that hold rows rather than live SweepResults (allarm-router
// gathers per-shard NDJSON into Records and re-renders them in global
// spec order). All built-in emitters implement it, and their Emit is
// defined as EmitRecords over RecordsOf, which is what guarantees
// gathered output matches single-node output byte for byte.
type RecordEmitter interface {
	Emitter
	EmitRecords(w io.Writer, recs []Record) error
}

// sweepColumns are the emitted fields, in order. Table and CSV output
// use exactly these headers; JSON uses their snake_case tags below.
var sweepColumns = []string{
	"benchmark", "policy", "threads", "copies", "pf_kib", "seed", "error",
	"runtime_ns", "accesses", "pf_allocs", "pf_evictions", "eviction_msgs",
	"l2_misses", "noc_bytes", "noc_msgs", "local_reqs", "remote_reqs",
	"local_probes", "probes_hidden", "untracked_grants", "uncached_grants",
	"noc_energy_pj", "pf_energy_pj",
}

// Record is the flat serialisable view of one SweepResult — the row
// every emitter renders and the unit allarm-router ships between fleet
// nodes. The metrics are an embedded pointer so JSON keeps legitimate
// zeros on successful runs (ALLARM eliminating every eviction must read
// as "pf_evictions": 0) while failed jobs omit the metric keys entirely;
// ReadRecords round-trips both cases losslessly.
type Record struct {
	Benchmark string `json:"benchmark"`
	Policy    string `json:"policy"`
	Threads   int    `json:"threads"`
	Copies    int    `json:"copies,omitempty"`
	PFKiB     int    `json:"pf_kib"`
	Seed      uint64 `json:"seed"`
	Error     string `json:"error,omitempty"`
	// Aborted marks a job cancelled mid-simulation (drain, Ctrl-C): the
	// error explains the cancellation and the metrics, when present, are
	// the partial counts up to the abort instant. Only JSON-based
	// emitters carry the flag (checkpoint NDJSON in particular); the
	// CSV/table column set is unchanged.
	Aborted bool `json:"aborted,omitempty"`

	*RecordMetrics
}

// RecordMetrics are the per-run measurements, present only when the job
// produced a Result.
type RecordMetrics struct {
	RuntimeNs       float64 `json:"runtime_ns"`
	Accesses        uint64  `json:"accesses"`
	PFAllocs        uint64  `json:"pf_allocs"`
	PFEvictions     uint64  `json:"pf_evictions"`
	EvictionMsgs    uint64  `json:"eviction_msgs"`
	L2Misses        uint64  `json:"l2_misses"`
	NoCBytes        uint64  `json:"noc_bytes"`
	NoCMessages     uint64  `json:"noc_msgs"`
	LocalRequests   uint64  `json:"local_reqs"`
	RemoteRequests  uint64  `json:"remote_reqs"`
	LocalProbes     uint64  `json:"local_probes"`
	ProbesHidden    uint64  `json:"probes_hidden"`
	UntrackedGrants uint64  `json:"untracked_grants"`
	UncachedGrants  uint64  `json:"uncached_grants"`
	NoCEnergyPJ     float64 `json:"noc_energy_pj"`
	PFEnergyPJ      float64 `json:"pf_energy_pj"`
}

// RecordOf flattens one SweepResult into its emitted Record.
func RecordOf(r SweepResult) Record {
	rec := Record{
		Benchmark: r.Job.WorkloadName(),
		Policy:    r.Job.Config.Policy.String(),
		Threads:   r.Job.Config.Threads,
		PFKiB:     r.Job.Config.PFBytes >> 10,
		Seed:      r.Job.Config.Seed,
	}
	if r.Job.Workload != nil {
		// A first-class Workload wins over MultiProcess in Job.RunCtx, so
		// the record must not describe a multi-process run.
		rec.Threads = r.Job.Workload.Threads()
	} else if r.Job.MultiProcess != nil {
		rec.Copies = r.Job.MultiProcess.Copies
		rec.Threads = 1
	}
	if r.Err != nil {
		rec.Error = r.Err.Error()
		rec.Aborted = r.Aborted()
		if !rec.Aborted {
			// Failed or skipped outright: no metrics to report. Aborted
			// jobs fall through so their partial counts are emitted
			// alongside the error (checkpoint NDJSON relies on this).
			return rec
		}
	}
	if res := r.Result; res != nil {
		rec.RecordMetrics = &RecordMetrics{
			RuntimeNs:       res.RuntimeNs,
			Accesses:        res.Accesses,
			PFAllocs:        res.PFAllocs,
			PFEvictions:     res.PFEvictions,
			EvictionMsgs:    res.EvictionMsgs,
			L2Misses:        res.L2Misses,
			NoCBytes:        res.NoCBytes,
			NoCMessages:     res.NoCMessages,
			LocalRequests:   res.LocalRequests,
			RemoteRequests:  res.RemoteRequests,
			LocalProbes:     res.LocalProbes,
			ProbesHidden:    res.ProbesHidden,
			UntrackedGrants: res.UntrackedGrants,
			UncachedGrants:  res.UncachedGrants,
			NoCEnergyPJ:     res.NoCEnergyPJ,
			PFEnergyPJ:      res.PFEnergyPJ,
		}
	}
	return rec
}

// RecordsOf flattens a whole sweep's results in order.
func RecordsOf(results []SweepResult) []Record {
	recs := make([]Record, len(results))
	for i, r := range results {
		recs[i] = RecordOf(r)
	}
	return recs
}

// ReadRecords decodes an NDJSON stream of Records (one object per line,
// as NDJSONEmitter writes them). It is the gather side of the fleet
// merge seam: Records survive the NDJSON round trip losslessly —
// re-emitting what ReadRecords returns produces the original bytes —
// because Go's JSON encoder prints floats in their shortest exact form.
func ReadRecords(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("allarm: record %d: %w", len(recs), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// cells renders the record's fields as strings in sweepColumns order.
// Failed jobs print zero metrics (the error column explains why).
func (rec Record) cells() []string {
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }
	m := rec.RecordMetrics
	if m == nil {
		m = &RecordMetrics{}
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

// TableEmitter renders sweep results as an aligned text table, one row
// per job, with a final geomean row over the successful runtimes'
// speedups when a Reference is set.
type TableEmitter struct {
	// Reference, when non-nil, selects the run each row's speedup is
	// normalised to (typically the full-size baseline); a "speedup"
	// column is appended and a geomean row (over non-zero speedups, as
	// the paper's figures do) closes the table. The speedup needs the
	// live Results, so it applies to Emit only — EmitRecords renders the
	// plain column set.
	Reference func(r SweepResult) *Result
}

// Emit implements Emitter.
func (e *TableEmitter) Emit(w io.Writer, results []SweepResult) error {
	if e.Reference == nil {
		return e.EmitRecords(w, RecordsOf(results))
	}
	header := append(append([]string{}, sweepColumns...), "speedup")
	t := stats.NewTable(header...)
	var speedups []float64
	for _, r := range results {
		cells := RecordOf(r).cells()
		v := 0.0
		if ref := e.Reference(r); ref != nil && r.Result != nil {
			v = stats.SafeDiv(ref.RuntimeNs, r.Result.RuntimeNs, 0)
		}
		speedups = append(speedups, v)
		cells = append(cells, fmt.Sprintf("%.3f", v))
		t.AddRow(cells...)
	}
	geo := make([]string, len(sweepColumns)+1)
	geo[0] = "geomean"
	geo[len(geo)-1] = fmt.Sprintf("%.3f", stats.GeomeanNonZero(speedups))
	t.AddRow(geo...)
	_, err := fmt.Fprint(w, t.String())
	return err
}

// EmitRecords implements RecordEmitter (no speedup column: Reference
// needs live Results).
func (e *TableEmitter) EmitRecords(w io.Writer, recs []Record) error {
	t := stats.NewTable(sweepColumns...)
	for _, rec := range recs {
		t.AddRow(rec.cells()...)
	}
	_, err := fmt.Fprint(w, t.String())
	return err
}

// CSVEmitter renders sweep results as CSV with a header row.
type CSVEmitter struct{}

// Emit implements Emitter.
func (e CSVEmitter) Emit(w io.Writer, results []SweepResult) error {
	return e.EmitRecords(w, RecordsOf(results))
}

// EmitRecords implements RecordEmitter.
func (CSVEmitter) EmitRecords(w io.Writer, recs []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(sweepColumns); err != nil {
		return err
	}
	for _, rec := range recs {
		if err := cw.Write(rec.cells()); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// JSONEmitter renders sweep results as a JSON array of records.
type JSONEmitter struct {
	// Indent pretty-prints with two-space indentation.
	Indent bool
}

// Emit implements Emitter.
func (e JSONEmitter) Emit(w io.Writer, results []SweepResult) error {
	return e.EmitRecords(w, RecordsOf(results))
}

// EmitRecords implements RecordEmitter.
func (e JSONEmitter) EmitRecords(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	if e.Indent {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(recs)
}

// NDJSONEmitter renders sweep results as newline-delimited JSON: one
// Record object per line, with exactly the keys JSONEmitter uses.
// Because every line is independently parseable, the format streams —
// allarm-serve emits it for results endpoints where consumers want rows
// as they read, and `jq` or a log pipeline can process output without
// buffering the whole array. It is also the fleet wire format:
// allarm-router gathers shard results as NDJSON, decodes them with
// ReadRecords and re-renders the merged rows byte-identically.
type NDJSONEmitter struct{}

// Emit implements Emitter.
func (e NDJSONEmitter) Emit(w io.Writer, results []SweepResult) error {
	return e.EmitRecords(w, RecordsOf(results))
}

// EmitRecords implements RecordEmitter.
func (NDJSONEmitter) EmitRecords(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}
