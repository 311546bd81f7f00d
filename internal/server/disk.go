package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	allarm "allarm"
)

// ResultStore is the persistent tier of the result cache: a
// content-addressed directory mapping Job.Key (the same golden-tested
// fingerprint the in-memory LRU and Sweep.Dedup use) to the complete
// simulation result. Entries are immutable once written (simulations
// are deterministic), so one directory is safe to share read-write
// between a draining old daemon and its restarted successor.
//
// Get treats misses and corruption identically (false, never an error:
// the simulator can always regenerate), Put is atomic (concurrent
// readers and crash recovery only ever see complete entries), and Len
// is O(1) (it is scraped by /metrics on an unbounded store).
type ResultStore struct {
	dir string
	// entries tracks the file count (seeded at open, bumped on new
	// puts) so /metrics scrapes don't pay a listing on an unbounded
	// store.
	entries atomic.Int64
}

// diskEntry is the stored representation of one cached result. The
// Result keeps only its exported metrics — the raw per-node statistics
// (Result.Raw) do not survive the round-trip — which is exactly what
// the emitters consume, so served bytes stay identical to a fresh run.
type diskEntry struct {
	Key     string         `json:"key"`
	SavedAt time.Time      `json:"saved_at"`
	Result  *allarm.Result `json:"result"`
}

// NewDiskStore opens (creating if needed) the ResultStore rooted at
// dir: one <sha256(key)>.json file per result, written with
// atomicWrite so a crash (SIGKILL) midway leaves either the old content
// or none — never a torn entry. Each file is a single diskEntry JSON
// object on one line — the same one-object-per-line convention as the
// drain checkpoints' NDJSON, so `jq` and log pipelines can process a
// whole store with `cat dir/*.json`.
func NewDiskStore(dir string) (*ResultStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("result store: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("result store: %w", err)
	}
	s := &ResultStore{dir: dir}
	s.entries.Store(int64(len(names)))
	return s, nil
}

// objectName maps a job key to its entry file name. Keys are arbitrary
// strings (they embed %+v-rendered configs), so the name is the key's
// SHA-256; the key itself is stored inside the entry and checked on Get
// — a hash collision or a foreign file can never serve the wrong
// simulation.
func objectName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + ".json"
}

// Get returns the stored result for key, or false when the entry is
// absent, unreadable or fails key verification.
func (s *ResultStore) Get(key string) (*allarm.Result, bool) {
	data, err := os.ReadFile(filepath.Join(s.dir, objectName(key)))
	if err != nil {
		return nil, false
	}
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Key != key || e.Result == nil {
		return nil, false
	}
	return e.Result, true
}

// Put persists res under key, atomically.
func (s *ResultStore) Put(key string, res *allarm.Result) error {
	data, err := json.Marshal(diskEntry{Key: key, SavedAt: time.Now().UTC(), Result: res})
	if err != nil {
		return err
	}
	data = append(data, '\n')
	path := filepath.Join(s.dir, objectName(key))
	_, statErr := os.Stat(path)
	if err := atomicWrite(path, data); err != nil {
		return err
	}
	if os.IsNotExist(statErr) {
		s.entries.Add(1)
	}
	return nil
}

// Len reports the number of stored entries (approximate when another
// process writes concurrently; the store itself is unbounded —
// retention is the operator's via the content-addressed names).
func (s *ResultStore) Len() int {
	return int(s.entries.Load())
}

// atomicWrite writes data to path via a same-directory temp file,
// fsync and rename: a crash (SIGKILL included) leaves either the old
// content or none, never a torn file. The file is synced before the
// rename and the parent directory after it, so the guarantee holds
// through power loss too — without the fsyncs, a rename can be durable
// while the data it points at is not, which is exactly a torn entry
// after the next boot. It is the write discipline every persistent
// artifact in the system uses — the result store's entries, the
// daemon's sweep specs and job checkpoints, and allarm-router's sweep
// journal.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making a just-renamed entry durable.
// Platforms whose directory handles refuse fsync (some network
// filesystems) degrade to the pre-fsync behavior rather than failing
// the write.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}
