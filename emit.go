package allarm

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"allarm/internal/jsonw"
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
//
// Two appenders render every Record: appendCells the Table and CSV
// cells, appendJSON the JSON and NDJSON object. Each emitter appends its
// whole output into one pooled buffer and writes it once.
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
	// emitters carry the flag; the CSV/table column set is unchanged.
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
			// alongside the error (a drained sweep's rows rely on this).
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
// because the NDJSON appender prints floats as encoding/json does, in
// their shortest exact form.
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

// counts are the integer metrics in column order.
func (m *RecordMetrics) counts() [13]uint64 {
	return [...]uint64{m.Accesses, m.PFAllocs, m.PFEvictions, m.EvictionMsgs, m.L2Misses, m.NoCBytes, m.NoCMessages,
		m.LocalRequests, m.RemoteRequests, m.LocalProbes, m.ProbesHidden, m.UntrackedGrants, m.UncachedGrants}
}

// appendCells appends the record's Table and CSV cells in sweepColumns
// order: text appends a string cell and end closes every cell. Failed
// jobs print zero metrics (the error column explains why).
func (rec *Record) appendCells(b []byte, text func([]byte, string) []byte, end func([]byte) []byte) []byte {
	i := func(b []byte, v int) []byte { return end(strconv.AppendInt(b, int64(v), 10)) }
	u := func(b []byte, v uint64) []byte { return end(strconv.AppendUint(b, v, 10)) }
	f := func(b []byte, v float64) []byte { return end(appendFixed1(b, v)) }
	m := rec.RecordMetrics
	if m == nil {
		m = &RecordMetrics{}
	}
	b = end(text(end(text(b, rec.Benchmark)), rec.Policy))
	b = end(text(u(i(i(i(b, rec.Threads), rec.Copies), rec.PFKiB), rec.Seed), rec.Error))
	b = f(b, m.RuntimeNs)
	for _, v := range m.counts() {
		b = u(b, v)
	}
	return f(f(b, m.NoCEnergyPJ), m.PFEnergyPJ)
}

// appendFixed1 appends v exactly as strconv.AppendFloat(b, v, 'f', 1,
// 64) does, without strconv's multiprecision path: below 2^53, |v| is
// m/2^k for integers m < 2^53 and k ≥ 0, so rounding 10|v| half to even
// is integer arithmetic on 10m.
func appendFixed1(b []byte, v float64) []byte {
	if !(math.Abs(v) < 1<<53) {
		return strconv.AppendFloat(b, v, 'f', 1, 64)
	}
	frac, exp := math.Frexp(math.Abs(v))
	n, k := 10*uint64(frac*(1<<53)), 53-exp
	var q uint64 // stays 0 from k = 58 on, where n < 2^57 is under half a unit
	if k < 58 {
		q = n >> k
		if rem, half := n&(1<<k-1), uint64(1)<<k>>1; rem > half || rem == half && q&1 == 1 {
			q++
		}
	}
	if math.Signbit(v) {
		b = append(b, '-')
	}
	return append(append(strconv.AppendUint(b, q/10, 10), '.'), byte('0'+q%10))
}

// cells renders the record's cells as strings, for the table.
func (rec Record) cells() []string {
	cells := make([]string, 0, len(sweepColumns))
	rec.appendCells(nil, func(b []byte, s string) []byte { return append(b, s...) }, func(b []byte) []byte {
		cells = append(cells, string(b))
		return b[:0]
	})
	return cells
}

// appendCSVField appends s as encoding/csv writes a field: quoted when
// it is `\.`, holds a comma, quote, CR or LF, or starts with a space
// rune, with each quote doubled inside.
func appendCSVField(b []byte, s string) []byte {
	quote := s == `\.`
	for i := 0; i < len(s) && !quote; i++ {
		quote = s[i] == ',' || s[i] == '"' || s[i] == '\r' || s[i] == '\n'
	}
	if r, _ := utf8.DecodeRuneInString(s); !quote && !unicode.IsSpace(r) {
		return append(b, s...)
	}
	return append(append(append(b, '"'), strings.ReplaceAll(s, `"`, `""`)...), '"')
}

// appendJSON appends the record as encoding/json marshals it (a nil
// RecordMetrics drops every metric key); a NaN or ±Inf metric fails.
func (rec *Record) appendJSON(b []byte) ([]byte, error) {
	o := jsonw.Open(b)
	o.String("benchmark", rec.Benchmark)
	o.String("policy", rec.Policy)
	o.Int("threads", rec.Threads)
	if rec.Copies != 0 {
		o.Int("copies", rec.Copies)
	}
	o.Int("pf_kib", rec.PFKiB)
	o.Uint("seed", rec.Seed)
	if rec.Error != "" {
		o.String("error", rec.Error)
	}
	if rec.Aborted {
		o.Bool("aborted", true)
	}
	if m := rec.RecordMetrics; m != nil {
		o.Float("runtime_ns", m.RuntimeNs)
		for i, v := range m.counts() {
			o.Uint(sweepColumns[8+i], v) // the keys are the column names
		}
		o.Float("noc_energy_pj", m.NoCEnergyPJ)
		o.Float("pf_energy_pj", m.PFEnergyPJ)
	}
	return o.Close()
}

// emitBufs recycles output buffers of up to 64 KiB.
var emitBufs = sync.Pool{New: func() any { return new([]byte) }}

// emitOnce renders into a pooled buffer and writes it to w in one call.
// When fill fails, it returns what the reflective encoders wrote before
// the failure, and that goes out with the error.
func emitOnce(w io.Writer, fill func(b []byte) ([]byte, error)) error {
	bp := emitBufs.Get().(*[]byte)
	b, err := fill((*bp)[:0])
	if _, werr := w.Write(b); err == nil {
		err = werr
	}
	if cap(b) <= 64<<10 {
		*bp = b[:0]
		emitBufs.Put(bp)
	}
	return err
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
	return emitOnce(w, func(b []byte) ([]byte, error) {
		b = append(b, csvHeader...)
		for i := range recs {
			b = recs[i].appendCells(b, appendCSVField, func(b []byte) []byte { return append(b, ',') })
			b[len(b)-1] = '\n' // the row's last comma
		}
		return b, nil
	})
}

var csvHeader = strings.Join(sweepColumns, ",") + "\n"

// JSONEmitter renders sweep results as a JSON array of records.
type JSONEmitter struct {
	// Indent pretty-prints with two-space indentation.
	Indent bool
}

// Emit implements Emitter.
func (e JSONEmitter) Emit(w io.Writer, results []SweepResult) error {
	return e.EmitRecords(w, RecordsOf(results))
}

// EmitRecords implements RecordEmitter. The indented form is the
// compact one through json.Indent, as json.Encoder's SetIndent does.
func (e JSONEmitter) EmitRecords(w io.Writer, recs []Record) error {
	return emitOnce(w, func(b []byte) ([]byte, error) {
		if recs == nil {
			return append(b, "null\n"...), nil // the same indented
		}
		b, err := appendRecords(append(b, '['), recs, ',')
		if err != nil {
			return b[:0], err
		}
		b = append(b[:len(b)-min(len(recs), 1)], ']', '\n') // drop the last comma
		if !e.Indent {
			return b, nil
		}
		var out bytes.Buffer
		err = json.Indent(&out, b, "", "  ")
		return out.Bytes(), err
	})
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
	return emitOnce(w, func(b []byte) ([]byte, error) { return appendRecords(b, recs, '\n') })
}

// appendRecords appends each record's JSON followed by sep. On a
// failure it returns the rows before the failing one.
func appendRecords(b []byte, recs []Record, sep byte) ([]byte, error) {
	for i := range recs {
		row, err := recs[i].appendJSON(b)
		if err != nil {
			return b, err
		}
		b = append(row, sep)
	}
	return b, nil
}
