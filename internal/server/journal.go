package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// journal is a daemon's crash-safe state directory (allarm-serve
// -cache-dir, allarm-router -state-dir):
//
//	sweeps/<id>.json            one journalEntry per accepted sweep
//	sweeps/<id>.records.ndjson  delivered records (one recordLine per row
//	                            in hand; written by the router's gathers)
//	traces/<id>                 raw uploaded trace bytes (traceStore)
//
// Every file is written with atomicWrite, so a SIGKILL at any instant
// leaves each file whole at its previous or its new content, never torn.
// A sweep is journaled before its submission is acknowledged; at boot
// the Front re-expands every entry under its original id, restores the
// journaled records and hands the sweep back to its executor, which
// re-runs (or re-asks the shards for) only what is still owed.
//
// A nil *journal disables persistence: every method no-ops.
type journal struct {
	dir  string
	logf func(format string, args ...any)
}

// journalEntry is one persisted sweep: the client request (the
// deterministic seed ExpandSweep re-expands at boot) and, on the router,
// the shard each job is placed on.
type journalEntry struct {
	ID      string        `json:"id"`
	Created time.Time     `json:"created"`
	Request *SweepRequest `json:"request"`
	// Assignment maps shard name → the job indices it owns. Rewritten
	// when jobs move, so recovery re-asks their current owners.
	Assignment map[string][]int `json:"assignment,omitempty"`
}

// openJournal creates (or reopens) the state directory.
func openJournal(dir string, logf func(string, ...any)) (*journal, error) {
	for _, d := range []string{filepath.Join(dir, "sweeps"), filepath.Join(dir, "traces")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("state dir: %w", err)
		}
	}
	return &journal{dir: dir, logf: logf}, nil
}

func (j *journal) path(id, ext string) string {
	return filepath.Join(j.dir, "sweeps", id+ext)
}

// writeSweep persists (or rewrites) one sweep's entry.
func (j *journal) writeSweep(st *SweepState) {
	if j == nil {
		return
	}
	e := journalEntry{ID: st.ID, Created: st.created, Request: st.Request}
	for i, jv := range st.View().Jobs {
		if jv.Shard == "" {
			continue
		}
		if e.Assignment == nil {
			e.Assignment = make(map[string][]int)
		}
		e.Assignment[jv.Shard] = append(e.Assignment[jv.Shard], i)
	}
	data, err := json.Marshal(e)
	if err == nil {
		err = atomicWrite(j.path(st.ID, ".json"), append(data, '\n'))
	}
	if err != nil {
		j.logf("journal: sweep %s: %v", st.ID, err)
	}
}

// writeRecords rewrites a sweep's delivered records. The whole file is
// rewritten each time (sweeps are at most thousands of rows): a torn
// NDJSON tail would silently drop rows at recovery.
func (j *journal) writeRecords(st *SweepState) {
	if j == nil {
		return
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, l := range st.lines() {
		if err := enc.Encode(l); err != nil {
			return
		}
	}
	if err := atomicWrite(j.path(st.ID, ".records.ndjson"), buf.Bytes()); err != nil {
		j.logf("journal: records %s: %v", st.ID, err)
	}
}

// loadSweeps returns every journaled sweep, oldest id first. An entry
// whose id is not its own file name, in prefix+digits form, is skipped
// like an unreadable one: the id later names the sweep's journal and
// record files.
func (j *journal) loadSweeps(prefix string) []journalEntry {
	if j == nil {
		return nil
	}
	paths, _ := filepath.Glob(j.path("*", ".json"))
	sort.Strings(paths) // zero-padded ids sort chronologically
	var entries []journalEntry
	for _, p := range paths {
		data, err := os.ReadFile(p)
		var e journalEntry
		if err == nil {
			err = json.Unmarshal(data, &e)
		}
		digits, ok := strings.CutPrefix(e.ID, prefix)
		ok = ok && digits != "" && strings.Trim(digits, "0123456789") == "" && p == j.path(e.ID, ".json")
		if err != nil || !ok || e.Request == nil {
			j.logf("journal: %s: unreadable entry, skipping", p)
			continue
		}
		entries = append(entries, e)
	}
	return entries
}

// loadRecords reads a sweep's journaled records. A missing file is no
// records; a malformed line ends the read there (recovery must never
// fail on disk content).
func (j *journal) loadRecords(id string) []recordLine {
	f, err := os.Open(j.path(id, ".records.ndjson"))
	if err != nil {
		return nil
	}
	defer f.Close()
	var lines []recordLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var l recordLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			j.logf("journal: records %s: truncated at line %d", id, len(lines))
			break
		}
		lines = append(lines, l)
	}
	return lines
}

// remove forgets one sweep's entry and records.
func (j *journal) remove(id string) {
	if j == nil {
		return
	}
	os.Remove(j.path(id, ".json"))
	os.Remove(j.path(id, ".records.ndjson"))
}

// shards maps the entry's assignment back to one shard name per job
// (nil when the entry has none).
func (e journalEntry) shards(n int) ([]string, error) {
	if e.Assignment == nil {
		return nil, nil
	}
	shards := make([]string, n)
	for name, idxs := range e.Assignment {
		for _, i := range idxs {
			if i < 0 || i >= n {
				return nil, fmt.Errorf("assignment index %d out of range (%d jobs)", i, n)
			}
			shards[i] = name
		}
	}
	return shards, nil
}
