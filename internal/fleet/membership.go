package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"allarm/internal/server"
)

// membership is one immutable snapshot of the fleet: the shard objects
// and the hash ring built over their names. The router swaps whole
// snapshots atomically (Router.mem), so a placement computed against
// one snapshot is internally consistent — the ring's indices always
// point into the same shards slice — while mutations build the next
// snapshot on the side. Shard objects are reused across snapshots by
// name, so health state, version and counters survive membership
// changes (and a re-added shard keeps its history).
type membership struct {
	shards []*shard
	ring   *ring
}

// alive is the ring's placement predicate for this snapshot.
func (m *membership) alive(i int) bool { return m.shards[i].isHealthy() }

// byName returns the shard with the given (normalized) name, or nil.
func (m *membership) byName(name string) *shard {
	for _, sh := range m.shards {
		if sh.name == name {
			return sh
		}
	}
	return nil
}

// names lists the snapshot's shard names in order.
func (m *membership) names() []string {
	out := make([]string, len(m.shards))
	for i, sh := range m.shards {
		out[i] = sh.name
	}
	return out
}

// buildMembership validates a shard URL set and builds a snapshot,
// reusing matching shard objects from the previous snapshot.
func (rt *Router) buildMembership(urls []string, old *membership) (*membership, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("fleet: at least one shard is required")
	}
	seen := make(map[string]bool, len(urls))
	shards := make([]*shard, 0, len(urls))
	names := make([]string, 0, len(urls))
	for _, raw := range urls {
		name := strings.TrimRight(strings.TrimSpace(raw), "/")
		if name == "" {
			return nil, fmt.Errorf("fleet: empty shard URL")
		}
		if seen[name] {
			return nil, fmt.Errorf("fleet: duplicate shard %s", name)
		}
		seen[name] = true
		var sh *shard
		if old != nil {
			sh = old.byName(name)
		}
		if sh == nil {
			sh = newShard(name, rt.opts.ShardToken, rt.transport)
		}
		shards = append(shards, sh)
		names = append(names, name)
	}
	return &membership{shards: shards, ring: newRing(names, rt.opts.Replicas)}, nil
}

// SetShards replaces the fleet's shard set at runtime (SIGHUP reload,
// or the /v1/shards API underneath). The new ring takes effect for all
// subsequent placements; in-flight gathers keep their shard objects and
// finish (or fail and requeue) against them. Skipped jobs whose ring
// owner changed are re-dispatched onto their new owners.
func (rt *Router) SetShards(urls []string) error {
	return rt.mutateMembership(func(cur *membership) ([]string, error) {
		return urls, nil
	})
}

// AddShard admits one shard into the ring.
func (rt *Router) AddShard(url string) error {
	return rt.mutateMembership(func(cur *membership) ([]string, error) {
		name := strings.TrimRight(strings.TrimSpace(url), "/")
		if name == "" {
			return nil, fmt.Errorf("fleet: empty shard URL")
		}
		if cur.byName(name) != nil {
			return nil, fmt.Errorf("fleet: shard %s is already a member", name)
		}
		return append(cur.names(), name), nil
	})
}

// RemoveShard retires one shard from the ring. Its in-flight work is
// not interrupted — gathers against it finish or fail on their own —
// but no new placement will choose it, and skipped jobs it owned move
// to their new ring owners.
func (rt *Router) RemoveShard(url string) error {
	return rt.mutateMembership(func(cur *membership) ([]string, error) {
		name := strings.TrimRight(strings.TrimSpace(url), "/")
		if cur.byName(name) == nil {
			return nil, fmt.Errorf("fleet: shard %s is not a member", name)
		}
		var next []string
		for _, n := range cur.names() {
			if n != name {
				next = append(next, n)
			}
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("fleet: cannot remove the last shard")
		}
		return next, nil
	})
}

// mutateMembership serializes membership changes: compute the next URL
// set from the current snapshot, build + validate it, swap it in,
// journal it, then requeue any skipped jobs the new ring re-homes.
func (rt *Router) mutateMembership(next func(cur *membership) ([]string, error)) error {
	rt.memMu.Lock()
	cur := rt.mem.Load()
	urls, err := next(cur)
	if err != nil {
		rt.memMu.Unlock()
		return err
	}
	mem, err := rt.buildMembership(urls, cur)
	if err != nil {
		rt.memMu.Unlock()
		return err
	}
	rt.mem.Store(mem)
	rt.saveMembership(mem.names())
	rt.met.membershipChanges.Add(1)
	rt.memMu.Unlock()
	rt.logf("membership: %d shard(s): %s", len(mem.shards), strings.Join(mem.names(), ", "))
	// In-flight jobs on departed shards migrate (with their machine-state
	// checkpoints) before the skipped-job requeue runs: migration keeps
	// their progress, requeue only re-places work that already failed.
	rt.migrateInFlight(cur, mem)
	rt.requeueSkipped("membership change")
	return nil
}

// ShardInfo is one row of GET /v1/shards.
type ShardInfo struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

func (rt *Router) handleShardsList(w http.ResponseWriter, r *http.Request) {
	mem := rt.mem.Load()
	out := make([]ShardInfo, len(mem.shards))
	for i, sh := range mem.shards {
		out[i] = ShardInfo{URL: sh.name, Healthy: sh.isHealthy()}
	}
	server.WriteJSON(w, out)
}

// shardMutation decodes the POST/DELETE /v1/shards payload: a JSON body
// {"url": ...}, or a ?url= query parameter (curl-friendly DELETE).
func shardMutation(r *http.Request) (string, error) {
	if u := r.URL.Query().Get("url"); u != "" {
		return u, nil
	}
	var body struct {
		URL string `json:"url"`
	}
	err := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<16)).Decode(&body)
	if err != nil || body.URL == "" {
		return "", fmt.Errorf("expected {\"url\": \"http://shard:port\"} or ?url=")
	}
	return body.URL, nil
}

func (rt *Router) handleShardAdd(w http.ResponseWriter, r *http.Request) {
	if err := server.CheckAdmin(r); err != nil {
		server.WriteError(w, http.StatusForbidden, err)
		return
	}
	url, err := shardMutation(r)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := rt.AddShard(url); err != nil {
		server.WriteError(w, http.StatusConflict, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	server.WriteJSON(w, map[string]any{"shards": rt.mem.Load().names()})
}

func (rt *Router) handleShardRemove(w http.ResponseWriter, r *http.Request) {
	if err := server.CheckAdmin(r); err != nil {
		server.WriteError(w, http.StatusForbidden, err)
		return
	}
	url, err := shardMutation(r)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := rt.RemoveShard(url); err != nil {
		server.WriteError(w, http.StatusConflict, err)
		return
	}
	server.WriteJSON(w, map[string]any{"shards": rt.mem.Load().names()})
}

// requeueSkipped sweeps every known sweep for skipped jobs whose
// current ring owner is a healthy shard other than the one that failed
// them, and re-dispatches exactly those. Called after membership
// changes and after health transitions — the two moments the ring's
// answer for a key can change.
func (rt *Router) requeueSkipped(reason string) {
	if rt.ctx.Err() != nil {
		return
	}
	for _, st := range rt.front.Sweeps() {
		rt.requeueSweep(st, reason)
	}
}

// requeueSweep re-places one sweep's skipped jobs on the current ring.
func (rt *Router) requeueSweep(st *server.SweepState, reason string) {
	mem := rt.mem.Load()
	moved := st.Requeue(maxRequeueWaves, func(i int, jv server.JobView) (string, bool) {
		if jv.Status != server.JobSkipped {
			return "", false
		}
		return owner(mem, st.Sweep.Jobs[i])
	})
	if len(moved) == 0 {
		return
	}
	rt.met.jobsRequeued.Add(uint64(len(moved)))
	st.Timeline("requeued", -1, "", fmt.Sprintf("%d skipped job(s) after %s", len(moved), reason))
	rt.front.Journal(st)
	rt.logf("sweep %s: requeued %d skipped job(s) after %s", st.ID, len(moved), reason)
	groups := groupsOf(st, mem, moved)
	rt.front.Go(func() { rt.dispatch(st, groups) })
}

// journalMembership is the persisted shard set (<StateDir>/membership.json).
// It exists only after a runtime membership mutation; while absent, the
// boot flags rule.
type journalMembership struct {
	Shards  []string  `json:"shards"`
	Updated time.Time `json:"updated"`
}

// saveMembership persists the current shard set (no-op without a
// StateDir).
func (rt *Router) saveMembership(names []string) {
	if rt.opts.StateDir == "" {
		return
	}
	data, err := json.MarshalIndent(journalMembership{Shards: names, Updated: time.Now().UTC()}, "", "  ")
	if err == nil {
		err = server.AtomicWrite(filepath.Join(rt.opts.StateDir, "membership.json"), append(data, '\n'))
	}
	if err != nil {
		rt.logf("journal: membership: %v", err)
	}
}

// loadMembership returns the journaled shard set, ok == false when none
// was ever written (or it is unreadable).
func (rt *Router) loadMembership() ([]string, bool) {
	if rt.opts.StateDir == "" {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(rt.opts.StateDir, "membership.json"))
	if err != nil {
		return nil, false
	}
	var m journalMembership
	if err := json.Unmarshal(data, &m); err != nil || len(m.Shards) == 0 {
		rt.logf("journal: membership.json unreadable, using boot flags")
		return nil, false
	}
	return m.Shards, true
}
