package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	allarm "allarm"
	"allarm/internal/obs"
)

// sseFrame is one parsed "event:/data:" frame.
type sseFrame struct {
	typ  string
	data []byte
}

// readStream subscribes to a sweep's event stream and blocks until the
// server ends it (the sweep reached a final state).
func readStream(base, id string) ([]sseFrame, error) {
	resp, err := http.Get(base + "/v1/sweeps/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var frames []sseFrame
	for _, block := range strings.Split(string(raw), "\n\n") {
		var f sseFrame
		for _, line := range strings.Split(block, "\n") {
			if v, ok := strings.CutPrefix(line, "event: "); ok {
				f.typ = v
			} else if v, ok := strings.CutPrefix(line, "data: "); ok {
				f.data = []byte(v)
			}
		}
		if f.typ != "" {
			frames = append(frames, f)
		}
	}
	return frames, nil
}

// checkReplay asserts one subscriber saw a complete, consistent
// history regardless of when it attached: every job reaches "done",
// the done counter never decreases, and the stream ends with the final
// sweep event.
func checkReplay(frames []sseFrame, total int) error {
	if len(frames) == 0 {
		return fmt.Errorf("empty stream")
	}
	terminal := make(map[int]bool)
	lastDone := 0
	var lastSweepStatus string
	for _, f := range frames {
		var ev struct {
			Index  int    `json:"index"`
			Status string `json:"status"`
			Done   int    `json:"done"`
			Total  int    `json:"total"`
		}
		if err := json.Unmarshal(f.data, &ev); err != nil {
			return fmt.Errorf("frame %q: %w", f.data, err)
		}
		if ev.Total != total {
			return fmt.Errorf("frame reports total %d, want %d", ev.Total, total)
		}
		if ev.Done < lastDone {
			return fmt.Errorf("done counter went backwards: %d after %d", ev.Done, lastDone)
		}
		lastDone = ev.Done
		switch f.typ {
		case "job":
			if ev.Status == JobDone {
				terminal[ev.Index] = true
			}
		case "sweep":
			lastSweepStatus = ev.Status
		default:
			return fmt.Errorf("unknown event type %q", f.typ)
		}
	}
	if len(terminal) != total {
		return fmt.Errorf("saw %d jobs reach done, want %d", len(terminal), total)
	}
	if lastSweepStatus != StatusDone {
		return fmt.Errorf("stream ended on sweep status %q", lastSweepStatus)
	}
	if lastDone != total {
		return fmt.Errorf("final done counter %d, want %d", lastDone, total)
	}
	return nil
}

// TestSSELateSubscribersReplay races many subscribers against a
// completing sweep: some attach before any job finishes, some between
// completions, some after the sweep is final. History replay means
// every one of them must observe the identical complete story. Run
// under -race this also exercises the publish/subscribe paths for data
// races.
func TestSSELateSubscribersReplay(t *testing.T) {
	tokens := make(chan struct{})
	_, base := newTestServer(t, Options{
		Workers: 2,
		RunJob: func(ctx context.Context, j allarm.Job) (*allarm.Result, error) {
			select {
			case <-tokens:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &allarm.Result{Benchmark: j.WorkloadName(), RuntimeNs: 1}, nil
		},
	})

	benches := []string{"barnes", "blackscholes", "cholesky", "dedup", "fluidanimate", "x264"}
	sr := submit(t, base, SweepRequest{
		Benchmarks: benches,
		Config:     &ConfigOverrides{Threads: 2, AccessesPerThread: 10},
	})
	total := len(benches)
	if sr.Jobs != total {
		t.Fatalf("expanded to %d jobs, want %d", sr.Jobs, total)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 3*total)
	spawn := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			frames, err := readStream(base, sr.ID)
			if err == nil {
				err = checkReplay(frames, total)
			}
			errs <- err
		}()
	}

	// Wave 1: subscribers attach while every job is still gated.
	for i := 0; i < total; i++ {
		spawn()
	}
	// Release jobs one at a time, attaching a fresh subscriber between
	// each completion — each sees a different live/replayed split.
	for i := 0; i < total; i++ {
		tokens <- struct{}{}
		spawn()
	}
	waitDone(t, base, sr.ID)
	// Wave 3: pure replay after the sweep is final.
	for i := 0; i < total; i++ {
		spawn()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// scriptExec places job i on shards[i] and runs a sweep by calling run
// on its state, so a test can publish an exact sequence of updates.
type scriptExec struct {
	stubExec
	shards []string
	run    func(st *SweepState)
}

func (e scriptExec) Place([]allarm.Job) ([]string, error) { return e.shards, nil }
func (e scriptExec) Run(st *SweepState)                   { e.run(st) }

// TestSSEGolden pins the exact /events body of a three-job sweep: a
// done job, an errored job whose message needs JSON escaping (quotes,
// HTML characters, a control character, non-ASCII text, U+2028 and an
// invalid UTF-8 byte), and a resumed job placed on a shard.
func TestSSEGolden(t *testing.T) {
	const shard = "http://shard-b:8080"
	front, err := NewFront(scriptExec{
		shards: []string{"", "", shard},
		run: func(st *SweepState) {
			st.Update("", 0, JobRunning, "")
			st.Deliver("", 0, allarm.Record{Benchmark: "barnes", Policy: "baseline"}, JobDone)
			st.Update("", 1, JobRunning, "")
			msg := "bad \"cfg\" <x> & y\tünïcødé\u2028end\xff"
			st.Deliver("", 1, allarm.Record{Benchmark: "barnes", Policy: "allarm", Error: msg}, JobError)
			st.setResumed(2)
			st.Update(shard, 2, JobRunning, "")
			st.Deliver(shard, 2, allarm.Record{Benchmark: "barnes", Policy: "allarm-hyst"}, JobDone)
		},
	}, FrontConfig{IDPrefix: "sw-", Incomplete: StatusCheckpointed, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(front.Handler())
	defer srv.Close()
	defer front.Close(nil)
	sr := submit(t, srv.URL, SweepRequest{
		Benchmarks: []string{"barnes"},
		Policies:   []string{"baseline", "allarm", "allarm-hyst"},
	})
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := `event: sweep
data: {"sweep":"sw-000001","status":"running","done":0,"total":3}

event: job
data: {"sweep":"sw-000001","index":0,"benchmark":"barnes","policy":"baseline","pf_kib":128,"status":"running","done":0,"total":3}

event: job
data: {"sweep":"sw-000001","index":0,"benchmark":"barnes","policy":"baseline","pf_kib":128,"status":"done","done":1,"total":3}

event: job
data: {"sweep":"sw-000001","index":1,"benchmark":"barnes","policy":"allarm","pf_kib":128,"status":"running","done":1,"total":3}

event: job
data: {"sweep":"sw-000001","index":1,"benchmark":"barnes","policy":"allarm","pf_kib":128,"status":"error","done":2,"total":3,"error":"bad \"cfg\" \u003cx\u003e \u0026 y\tünïcødé\u2028end\ufffd"}

event: job
data: {"sweep":"sw-000001","index":2,"benchmark":"barnes","policy":"allarm-hyst","pf_kib":128,"shard":"http://shard-b:8080","status":"running","resumed":true,"done":2,"total":3}

event: job
data: {"sweep":"sw-000001","index":2,"benchmark":"barnes","policy":"allarm-hyst","pf_kib":128,"shard":"http://shard-b:8080","status":"done","resumed":true,"done":3,"total":3}

event: sweep
data: {"sweep":"sw-000001","status":"done","done":3,"total":3}

`
	if string(body) != want {
		t.Fatalf("/events body:\n%q\nwant:\n%q", body, want)
	}
}

// FuzzEventEncoders holds the SSE frame encoders to json.Marshal of
// JobEvent and sweepEvent over fuzzed strings (HTML characters, control
// bytes, invalid UTF-8, U+2028) and counters.
func FuzzEventEncoders(f *testing.F) {
	for i, s := range []string{"", "barnes", "<a&b>", "q\"\\", "\x00\x1f\x7f", "\xff", "a\u2028b\u2029", "ünï"} {
		f.Add(s, "sw-000001", "http://shard-b:8080", JobError, "allarm", i, -i, 1<<40, i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, s, sweep, shard, status, policy string, n, m, total int, resumed bool) {
		check := func(e event, payload any, typ string) {
			data, err := json.Marshal(payload)
			if err != nil {
				t.Fatal(err)
			}
			want := "event: " + typ + "\ndata: " + string(data) + "\n\n"
			if got := string(e.appendFrame(nil)); got != want {
				t.Fatalf("frame %q, want %q", got, want)
			}
		}
		job := JobEvent{
			Sweep: sweep, Index: n, Benchmark: s, Policy: policy, PFKiB: m, Shard: shard,
			Status: status, Resumed: resumed, Done: m ^ n, Total: total, Error: s + status,
		}
		check(event{job: job}, job, "job")
		sw := sweepEvent{Sweep: sweep, Status: s, Done: n, Total: total}
		check(event{isSweep: true, sweep: sw}, sw, "sweep")
	})
}
