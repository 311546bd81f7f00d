package allarm_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	allarm "allarm"
)

// normalised is rec as it reads back from JSON: encoding/json decodes
// each invalid UTF-8 byte of a string as U+FFFD, as []rune does.
func normalised(rec allarm.Record) allarm.Record {
	for _, s := range []*string{&rec.Benchmark, &rec.Policy, &rec.Error} {
		*s = string([]rune(*s))
	}
	return rec
}

// emitAll renders recs in every record format.
func emitAll(t *testing.T, recs []allarm.Record) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for name, e := range map[string]allarm.RecordEmitter{
		"csv": allarm.CSVEmitter{}, "ndjson": allarm.NDJSONEmitter{}, "json": allarm.JSONEmitter{},
		"json-indent": allarm.JSONEmitter{Indent: true}, "table": &allarm.TableEmitter{},
	} {
		var buf bytes.Buffer
		if err := e.EmitRecords(&buf, recs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// oracleRecord decodes one line with encoding/json.
func oracleRecord(line []byte) (allarm.Record, error) {
	var rec allarm.Record
	err := json.Unmarshal(line, &rec)
	return rec, err
}

// checkReadBack emits recs as NDJSON and reads them back: the rows must
// equal recs (as JSON normalises them) and encoding/json's reading of
// each line, and re-emit the same bytes in every format.
func checkReadBack(t *testing.T, recs []allarm.Record) {
	t.Helper()
	var body bytes.Buffer
	if err := (allarm.NDJSONEmitter{}).EmitRecords(&body, recs); err != nil {
		t.Fatal(err)
	}
	got, err := allarm.ReadRecords(bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatalf("ReadRecords: %v\n%s", err, body.Bytes())
	}
	var want []allarm.Record
	for _, rec := range recs {
		want = append(want, normalised(rec))
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	lines := bytes.Split(bytes.TrimSuffix(body.Bytes(), []byte("\n")), []byte("\n"))
	for i := range want {
		ref, err := oracleRecord(lines[i])
		if err != nil {
			t.Fatalf("record %d: encoding/json: %v", i, err)
		}
		if !reflect.DeepEqual(got[i], want[i]) || !reflect.DeepEqual(got[i], ref) {
			t.Fatalf("record %d:\n got %+v %+v\nwant %+v %+v\njson %+v %+v", i, got[i], got[i].RecordMetrics,
				want[i], want[i].RecordMetrics, ref, ref.RecordMetrics)
		}
	}
	gotOut, wantOut := emitAll(t, got), emitAll(t, want)
	for name := range wantOut {
		if !bytes.Equal(gotOut[name], wantOut[name]) {
			t.Fatalf("%s re-emit differs:\n got %q\nwant %q", name, gotOut[name], wantOut[name])
		}
	}
}

// edgeRecords are rows at the corners of the NDJSON form: every escape
// the string appender writes, aborted rows with and without partial
// metrics, copies set and absent, negative ints, the largest counts and
// floats in their 'e' form, subnormal and negative zero.
func edgeRecords() []allarm.Record {
	metrics := func(rt, nocE, pfE float64, count uint64) *allarm.RecordMetrics {
		return &allarm.RecordMetrics{RuntimeNs: rt, NoCEnergyPJ: nocE, PFEnergyPJ: pfE,
			Accesses: count, PFAllocs: count, PFEvictions: 0, EvictionMsgs: count, L2Misses: count, NoCBytes: count,
			NoCMessages: count, LocalRequests: count, RemoteRequests: count, LocalProbes: count, ProbesHidden: count,
			UntrackedGrants: count, UncachedGrants: count}
	}
	return []allarm.Record{
		{Benchmark: `q"uo\te`, Policy: "cr\rlf\n", Threads: 4, PFKiB: 64, Seed: 2,
			Error: "<&> \u2028\u2029 \x00\x01\x0b\x1f\x7f \b\t\n\f\r \ufffd ünïcødé \xff\xfe \xed\xa0\x80 \\u0041 \\"},
		{Benchmark: "barnes", Policy: "allarm", Threads: 16, PFKiB: 128, Seed: 1, Error: "context canceled", Aborted: true,
			RecordMetrics: metrics(99.5, 0, 0.25, 1200)},
		{Benchmark: "x264", Policy: "baseline", Threads: 16, PFKiB: 128, Seed: 1, Error: "context canceled", Aborted: true},
		{Benchmark: "ocean-cont", Policy: "allarm-hyst", Threads: 1, Copies: 2, PFKiB: 8, Seed: 3,
			RecordMetrics: metrics(1e21, 5e-324, math.Copysign(0, -1), math.MaxUint64)},
		{Benchmark: "", Policy: "", Threads: -7, Copies: -1, PFKiB: -32, Seed: math.MaxUint64,
			RecordMetrics: metrics(1e-7, math.MaxFloat64, -1e300, 0)},
		{Threads: math.MinInt64, Copies: math.MaxInt64, PFKiB: math.MaxInt64,
			RecordMetrics: metrics(123456.78900000001, 1e20, 9.99e-7, 1)},
	}
}

func TestReadRecordsRoundTrip(t *testing.T) {
	recs := append(allarm.RecordsOf(fabricatedResults()), edgeRecords()...)
	checkReadBack(t, recs)
	checkReadBack(t, hitRecords(64))
	checkReadBack(t, nil)

	// Blank lines are skipped; records keep their indices.
	var body bytes.Buffer
	(allarm.NDJSONEmitter{}).EmitRecords(&body, recs[:2])
	lines := strings.SplitAfter(body.String(), "\n")
	got, err := allarm.ReadRecords(strings.NewReader("\n\n" + lines[0] + "\n" + lines[1] + "\n"))
	if err != nil || len(got) != 2 || !reflect.DeepEqual(got, recs[:2]) {
		t.Fatalf("blank lines: %d records, %v", len(got), err)
	}

	// A final line without its newline still reads.
	if got, err := allarm.ReadRecords(strings.NewReader(strings.TrimSuffix(body.String(), "\n"))); err != nil || len(got) != 2 {
		t.Fatalf("unterminated last line: %d records, %v", len(got), err)
	}
}

// TestReadRecordsLineCap: a line of 1 MiB with its newline reads; one
// byte more fails with bufio.ErrTooLong and names the record.
func TestReadRecordsLineCap(t *testing.T) {
	line := func(n int) []byte {
		rec := allarm.Record{Benchmark: "barnes", Policy: "allarm", Threads: 16, PFKiB: 128, Seed: 1, Error: "x"}
		var b bytes.Buffer
		(allarm.NDJSONEmitter{}).EmitRecords(&b, []allarm.Record{rec})
		rec.Error = strings.Repeat("x", n-b.Len()+1)
		b.Reset()
		(allarm.NDJSONEmitter{}).EmitRecords(&b, []allarm.Record{rec})
		if b.Len() != n {
			t.Fatalf("line of %d bytes, want %d", b.Len(), n)
		}
		return b.Bytes()
	}
	ok := line(1 << 20)
	recs, err := allarm.ReadRecords(bytes.NewReader(append(line(100), ok...)))
	if err != nil || len(recs) != 2 || len(recs[1].Error) < 1<<20-200 {
		t.Fatalf("1 MiB line: %d records, %v", len(recs), err)
	}
	_, err = allarm.ReadRecords(bytes.NewReader(append(line(100), line(1<<20+1)...)))
	if !errors.Is(err, bufio.ErrTooLong) || !strings.Contains(err.Error(), "record 1:") {
		t.Fatalf("over-long line: %v, want bufio.ErrTooLong naming record 1", err)
	}
}

// goodLine is a line NDJSONEmitter writes; nearMisses edit it into
// lines it never writes.
const goodLine = `{"benchmark":"barnes","policy":"allarm","threads":16,"pf_kib":128,"seed":1,"runtime_ns":1234.5,"accesses":32000,"pf_allocs":100,"pf_evictions":0,"eviction_msgs":40,"l2_misses":500,"noc_bytes":65536,"noc_msgs":900,"local_reqs":700,"remote_reqs":300,"local_probes":50,"probes_hidden":45,"untracked_grants":600,"uncached_grants":0,"noc_energy_pj":1000.4,"pf_energy_pj":200.8}`

var nearMisses = [][2]string{
	{`{"benchmark"`, ` {"benchmark"`},                          // leading whitespace
	{`,"policy"`, `, "policy"`},                                // whitespace between members
	{`"allarm"`, `"allarm" `},                                  // whitespace after a value
	{`200.8}`, "200.8}\r"},                                     // carriage return
	{`200.8}`, `200.8}{}`},                                     // trailing bytes
	{`200.8}`, `200.8,"extra":1}`},                             // unknown key
	{`"threads":16`, `"threads":16,"threads":16`},              // duplicate key
	{`"threads":16,"pf_kib":128`, `"pf_kib":128,"threads":16`}, // keys out of order
	{`"benchmark"`, `"BENCHMARK"`},                             // encoding/json matches keys in any case
	{`"seed":1`, `"seed":null`},                                // null
	{`"seed":1`, `"seed":01`},                                  // leading zero
	{`"seed":1`, `"seed":-1`},                                  // negative uint
	{`"seed":1`, `"seed":1.0`},                                 // float syntax in an int
	{`"seed":1`, `"seed":18446744073709551616`},                // uint64 overflow
	{`"threads":16`, `"threads":-0`},                           // negative zero int
	{`"threads":16`, `"threads":9223372036854775808`},          // int overflow
	{`"threads":16`, `"threads":"16"`},                         // string for an int
	{`"seed":1`, `"seed":1,"copies":2`},                        // copies after its place
	{`"threads":16`, `"threads":16,"copies":0`},                // a zero copies is omitted
	{`"seed":1`, `"seed":1,"error":""`},                        // an empty error is omitted
	{`"seed":1`, `"seed":1,"aborted":false`},                   // a false aborted is omitted
	{`"barnes"`, `"barn\u0065s"`},                              // needless escape
	{`"barnes"`, `"barnes\/"`},                                 // solidus escape
	{`"barnes"`, `"\ud800"`},                                   // surrogate escape
	{`"barnes"`, `"\ud83d\ude00"`},                             // surrogate pair
	{`"barnes"`, `"\u003C"`},                                   // uppercase hex
	{`"barnes"`, `"<"`},                                        // raw HTML character
	{`"barnes"`, "\"\x01\""},                                   // raw control byte
	{`"barnes"`, "\"\xff\""},                                   // raw invalid UTF-8
	{`"barnes"`, "\"\u2028\""},                                 // raw line separator
	{`"barnes"`, `"barnes`},                                    // unterminated string
	{`1234.5`, `1234.50`},                                      // not the shortest float
	{`1234.5`, `1.2345e3`},                                     // 'e' form below 1e21
	{`1234.5`, `1234.5E0`},                                     // uppercase exponent
	{`1234.5`, `+1234.5`},                                      // plus sign
	{`1234.5`, `1e400`},                                        // out of range
	{`1234.5`, `NaN`},                                          // not a number
	{`200.8`, `0200.8`},                                        // leading zero float
	{`1234.5`, `.5`},                                           // no integer part
	{`,"noc_energy_pj":1000.4,"pf_energy_pj":200.8}`, `}`},     // metric block cut short
	{`"runtime_ns":1234.5,`, ``},                               // metric block without runtime_ns
	{`"pf_evictions":0`, `"pf_evictions":null`},                // null metric
	{goodLine, `null`},
	{goodLine, `{}`},
	{goodLine, `[]`},
}

func TestReadRecordsRejects(t *testing.T) {
	if _, err := allarm.ReadRecords(strings.NewReader(goodLine + "\n")); err != nil {
		t.Fatalf("good line: %v", err)
	}
	for _, nm := range nearMisses {
		if !strings.Contains(goodLine, nm[0]) {
			t.Fatalf("near miss %q: %q not in the good line", nm[1], nm[0])
		}
		bad := strings.Replace(goodLine, nm[0], nm[1], 1)
		recs, err := allarm.ReadRecords(strings.NewReader(goodLine + "\n\n" + bad + "\n"))
		if err == nil || !strings.HasPrefix(err.Error(), "allarm: record 1: ") || recs != nil {
			t.Errorf("%q: %d records, error %v; want an error naming record 1", bad, len(recs), err)
		}
	}
}

// TestReadRecordsStrings: every one-byte string, each byte between two
// letters, every rune up to U+FFFF and a few mixed strings read back
// from a record as encoding/json reads them; and of the 65,536 lowercase
// \u escapes in a record string, exactly the ones the emitter writes
// are accepted, each as the rune it stands for.
func TestReadRecordsStrings(t *testing.T) {
	cases := []string{"", "plain", "bad \"cfg\" <x> & y\tünïcødé end\xff", "\xed\xa0\x80", "\xf0\x9f\x98", "a b\x7f\\"}
	for c := 0; c < 256; c++ {
		cases = append(cases, string([]byte{byte(c)}), "a"+string([]byte{byte(c)})+"z")
	}
	for r := rune(0); r <= 0xffff; r++ {
		cases = append(cases, string(r))
	}
	var recs []allarm.Record
	for i := 0; i < len(cases); i += 3 {
		rec := allarm.Record{Benchmark: cases[i], Threads: 1}
		if i+2 < len(cases) {
			rec.Policy, rec.Error = cases[i+1], cases[i+2]
		}
		recs = append(recs, rec)
	}
	checkReadBack(t, recs)

	line := func(bench string) string {
		var b bytes.Buffer
		(allarm.NDJSONEmitter{}).EmitRecords(&b, []allarm.Record{{Benchmark: bench, Policy: "allarm", Threads: 16}})
		return b.String()
	}
	written := map[string]bool{line("\xff"): true} // the one line with \ufffd
	for r := rune(0); r <= 0xffff; r++ {
		written[line(string(r))] = true
	}
	for r := rune(0); r <= 0xffff; r++ {
		esc := fmt.Sprintf(`"\u%04x"`, r)
		in := strings.Replace(line("x"), `"x"`, esc, 1)
		got, err := allarm.ReadRecords(strings.NewReader(in))
		if (err == nil) != written[in] || err == nil && got[0].Benchmark != string(r) {
			t.Fatalf("%s read as %v, %v; the emitter writes it: %v", esc, got, err, written[in])
		}
	}
}

// TestReadRecordsErrorOffset: a rejected line's error names the first
// byte that differs from the emitter's line for the record read from
// it, counted in the line's own bytes.
func TestReadRecordsErrorOffset(t *testing.T) {
	ufffd := strings.Replace(goodLine, `"barnes"`, `"\ufffd"`, 1) // as the emitter writes "\xff"
	if _, err := allarm.ReadRecords(strings.NewReader(ufffd)); err != nil {
		t.Fatalf("%s: %v", ufffd, err)
	}
	for _, c := range []struct{ line, at string }{
		{strings.Replace(goodLine, `"seed":1`, `"seed":-1`, 1), `-1`},                       // a uint has no sign
		{strings.Replace(ufffd, `"seed":1`, `"seed":-1`, 1), `-1`},                          // past the escape
		{strings.Replace(goodLine, `"threads":16`, `"threads":16,"copies":0`, 1), `copies`}, // omitted when zero
		{strings.Replace(goodLine, `1234.5`, `1234.50`, 1), `0,`},                           // not the shortest float
		{goodLine + "{}", "{}"}, // trailing bytes
		{" " + goodLine, " "},   // leading whitespace
	} {
		_, err := allarm.ReadRecords(strings.NewReader(c.line))
		want := fmt.Sprintf("allarm: record 0: not the emitter's line from byte %d", strings.Index(c.line, c.at))
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", c.line, err, want)
		}
	}
}

// hitRecords are n successful rows shaped like the served hit sweep's:
// 8 benchmarks × 2 policies × 4 probe-filter sizes, with metrics.
func hitRecords(n int) []allarm.Record {
	benches := allarm.Benchmarks()[:8]
	recs := make([]allarm.Record, n)
	for i := range recs {
		c := uint64(i)
		recs[i] = allarm.Record{
			Benchmark: benches[i/8%8], Policy: []string{"baseline", "allarm"}[i/4%2], Threads: 16,
			PFKiB: 32 << (i % 4), Seed: 1,
			RecordMetrics: &allarm.RecordMetrics{
				RuntimeNs: float64(19415612+c*7919) / 1000, Accesses: 4800, PFAllocs: 1505 + c, PFEvictions: 274 - c,
				EvictionMsgs: 202 + c, L2Misses: 2853 + c, NoCBytes: 159776 + 16*c, NoCMessages: 7364 + c,
				LocalRequests: 1284 + c, RemoteRequests: 1569 - c, LocalProbes: c, ProbesHidden: c / 2,
				UntrackedGrants: 3 * c, NoCEnergyPJ: float64(159776+16*c) * 3.4343, PFEnergyPJ: float64(1505+c) * 114.2,
			},
		}
	}
	return recs
}

func hitBody(tb testing.TB, n int) []byte {
	var body bytes.Buffer
	if err := (allarm.NDJSONEmitter{}).EmitRecords(&body, hitRecords(n)); err != nil {
		tb.Fatal(err)
	}
	return body.Bytes()
}

// TestReadRecordsAllocs: a 64-row hit body costs the benchmark and
// policy strings of each row, plus a constant for the scanner, the
// re-append buffer and the growth of the record and metric slices
// (measured: 145 = 2×64 + 17).
func TestReadRecordsAllocs(t *testing.T) {
	body := hitBody(t, 64)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := allarm.ReadRecords(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2*64+20 {
		t.Fatalf("64-row ReadRecords: %.0f allocs, want at most %d", allocs, 2*64+20)
	}
}

func BenchmarkReadRecords(b *testing.B) {
	body := hitBody(b, 64)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := allarm.ReadRecords(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

// fuzzLines are FuzzReadRecords' raw seeds: the emitter's own lines and
// the near misses.
func fuzzLines() []string {
	var body bytes.Buffer
	(allarm.NDJSONEmitter{}).EmitRecords(&body, append(allarm.RecordsOf(fabricatedResults()), edgeRecords()...))
	lines := strings.SplitAfter(body.String(), "\n")
	for _, nm := range nearMisses {
		lines = append(lines, strings.Replace(goodLine, nm[0], nm[1], 1))
	}
	return append(lines, "", "\n\n", goodLine+"\n"+goodLine)
}

// checkLine holds ReadRecords to encoding/json on one arbitrary line: it
// must not panic; what it accepts, encoding/json must read the same, and
// it must be what the emitter writes for that record (up to \ufffd,
// which reads back as a raw U+FFFD); and what encoding/json reads into a
// record that the emitter writes back as the line, it must accept.
func checkLine(t *testing.T, line []byte) {
	got, err := allarm.ReadRecords(bytes.NewReader(line))
	if len(line) == 0 {
		if err != nil || got != nil {
			t.Fatalf("blank line: %v, %v", got, err)
		}
		return
	}
	ref, refErr := oracleRecord(line)
	written := append(bytes.Clone(line), '\n') // line as the emitter would end it
	var reemit bytes.Buffer
	emitErr := (allarm.NDJSONEmitter{}).EmitRecords(&reemit, []allarm.Record{ref})
	if err != nil {
		if !strings.HasPrefix(err.Error(), "allarm: record 0: ") {
			t.Fatalf("%q: error %v does not name the record", line, err)
		}
		if refErr == nil && emitErr == nil && bytes.Equal(reemit.Bytes(), written) {
			t.Fatalf("%q: rejected a line the emitter writes: %v", line, err)
		}
		return
	}
	if refErr != nil {
		t.Fatalf("%q: accepted, but encoding/json fails: %v", line, refErr)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], ref) {
		t.Fatalf("%q: read %+v, encoding/json %+v", line, got, ref)
	}
	var mine bytes.Buffer
	if err := (allarm.NDJSONEmitter{}).EmitRecords(&mine, got); err != nil {
		t.Fatalf("%q: accepted, but re-emit fails: %v", line, err)
	}
	norm := func(b []byte) []byte { return bytes.ReplaceAll(b, []byte(`\ufffd`), []byte("\ufffd")) }
	if !bytes.Equal(norm(mine.Bytes()), norm(written)) {
		t.Fatalf("accepted a line the emitter does not write:\n got %q\nemit %q", line, mine.Bytes())
	}
}

// FuzzReadRecords holds ReadRecords to its contract from two sides: (a)
// the records of FuzzRecordEncoders' generator read back as written,
// and (b) each line of raw, arbitrary bytes, goes through checkLine;
// the whole of raw must read as its lines do one by one.
func FuzzReadRecords(f *testing.F) {
	for i, line := range fuzzLines() {
		f.Add("barnes", "allarm", "", math.Float64bits(float64(i)*1.5), uint64(0), uint64(1), uint64(i)*977, uint8(i), []byte(line))
	}
	for i, s := range fuzzTexts {
		f.Add(s, fuzzTexts[(i+1)%len(fuzzTexts)], fuzzTexts[(i+2)%len(fuzzTexts)], math.Float64bits(fuzzFloats[i%len(fuzzFloats)]),
			math.Float64bits(fuzzFloats[(i+3)%len(fuzzFloats)]), math.Float64bits(-fuzzFloats[i%len(fuzzFloats)]), uint64(i)*977,
			uint8(i), []byte(nil))
	}
	f.Fuzz(func(t *testing.T, bench, policy, errMsg string, rt, nocE, pfE, count uint64, flags uint8, raw []byte) {
		plain := allarm.RecordsOf(fabricatedResults())
		rec := fuzzRecord(bench, policy, errMsg, rt, nocE, pfE, count, flags)
		if m := rec.RecordMetrics; m == nil || finite(m.RuntimeNs, m.NoCEnergyPJ, m.PFEnergyPJ) {
			checkReadBack(t, []allarm.Record{plain[0], rec, plain[1]})
		}

		var want []allarm.Record
		wantOK := true
		for _, line := range bytes.Split(raw, []byte("\n")) {
			checkLine(t, line)
			got, err := allarm.ReadRecords(bytes.NewReader(line))
			if wantOK = err == nil; !wantOK {
				break
			}
			want = append(want, got...)
		}
		got, err := allarm.ReadRecords(bytes.NewReader(raw))
		if (err == nil) != wantOK || wantOK && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: read as a whole %v, %v; line by line %v (ok %v)", raw, got, err, want, wantOK)
		}
	})
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
