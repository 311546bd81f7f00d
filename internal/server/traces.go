package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sync"

	allarm "allarm"
)

// traceStore holds uploaded traces, content-addressed: a trace's id is
// "tr-" plus the sha256 of its bytes, so re-uploading identical bytes
// yields the same id on every daemon, and jobs reference it as
// "trace:<id>". Memory holds at most max parsed traces, evicting the
// oldest; with a directory every upload is also persisted there, and a
// lookup that misses memory reloads it from disk. Sweeps capture their
// Workload (and, with keepRaw, the raw bytes) at expansion, so eviction
// never breaks an accepted sweep — only future "trace:ID" specs pay a
// reload.
type traceStore struct {
	dir     string // "" = memory only
	max     int
	keepRaw bool // keep the raw bytes in memory too (the router re-uploads them)
	logf    func(format string, args ...any)

	mu      sync.Mutex
	entries map[string]traceEntry
	order   []string // insertion order, oldest first (eviction)
}

type traceEntry struct {
	wl  allarm.Workload
	raw []byte
}

// validTraceID accepts exactly the ids add produces: "tr-" and 64
// lowercase hex digits. Anything else is unknown before it can reach the
// filesystem, so "trace:../x" cannot escape the trace directory.
func validTraceID(id string) bool {
	if len(id) != 3+2*sha256.Size || id[:3] != "tr-" {
		return false
	}
	for _, c := range id[3:] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// add parses and stores an upload under its content id, persisting it
// when new. A repeat upload returns the stored workload; fresh reports
// whether the id was new to memory.
func (ts *traceStore) add(data []byte) (id string, wl allarm.Workload, fresh bool, err error) {
	sum := sha256.Sum256(data)
	id = "tr-" + hex.EncodeToString(sum[:])
	ts.mu.Lock()
	e, ok := ts.entries[id]
	ts.mu.Unlock()
	if ok {
		return id, e.wl, false, nil
	}
	// The workload is named by the content hash so Job.Key — and with it
	// every result cache — tells distinct traces apart and unifies
	// identical ones, whatever they were called locally.
	if wl, err = allarm.ReadTraceNamed(bytes.NewReader(data), id); err != nil {
		return id, nil, false, err
	}
	e, fresh = ts.put(id, wl, data)
	if fresh && ts.dir != "" {
		if err := atomicWrite(filepath.Join(ts.dir, id), data); err != nil {
			ts.logf("trace %s: persist: %v", id, err)
		}
	}
	return id, e.wl, fresh, nil
}

// load returns the entry for id from memory or, failing that, disk (the
// zero entry for a malformed id or when neither has it).
func (ts *traceStore) load(id string) traceEntry {
	if !validTraceID(id) {
		return traceEntry{}
	}
	ts.mu.Lock()
	e, ok := ts.entries[id]
	ts.mu.Unlock()
	if ok || ts.dir == "" {
		return e
	}
	data, err := os.ReadFile(filepath.Join(ts.dir, id))
	if err != nil {
		return traceEntry{}
	}
	wl, err := allarm.ReadTraceNamed(bytes.NewReader(data), id)
	if err != nil {
		ts.logf("trace %s: reload: %v", id, err)
		return traceEntry{}
	}
	e, _ = ts.put(id, wl, data)
	return e
}

// put inserts a parsed trace unless a racing insert won, returning the
// stored entry and whether this call inserted it. Lookup and insert
// happen under one lock, so the entry is never empty.
func (ts *traceStore) put(id string, wl allarm.Workload, data []byte) (traceEntry, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if cur, ok := ts.entries[id]; ok {
		return cur, false
	}
	e := traceEntry{wl: wl}
	if ts.keepRaw {
		e.raw = data
	}
	ts.entries[id] = e
	ts.order = append(ts.order, id)
	for len(ts.order) > ts.max {
		delete(ts.entries, ts.order[0])
		ts.order = ts.order[1:]
	}
	return e, true
}
