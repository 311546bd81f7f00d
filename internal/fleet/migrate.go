package fleet

import (
	"fmt"

	"allarm/internal/server"
)

// migrateInFlight re-homes jobs that a membership mutation orphaned:
// every non-terminal job owned by a shard that just left the fleet is
// claimed onto its key's new ring owner, its machine-state checkpoint
// (written by the old shard's -checkpoint-interval runner) is pulled
// from the departed shard and pushed to the new owner, and the job is
// re-dispatched there. The new owner's checkpoint-aware runner resumes
// from the pushed snapshot instead of simulating from event zero, so a
// planned shard retirement costs at most one checkpoint interval of
// re-simulation per in-flight job — and the gathered results stay
// byte-identical, because a resumed run is bit-identical to an
// uninterrupted one.
//
// Checkpoint transfer is best-effort: a shard that never checkpointed
// the job (checkpointing off, or the job just started), or one that is
// already unreachable, simply means the new owner starts from scratch —
// the old skip-and-requeue behavior, now the fallback rather than the
// only path.
func (rt *Router) migrateInFlight(old, cur *membership) {
	if rt.ctx.Err() != nil {
		return
	}
	departed := make(map[string]bool)
	for _, name := range old.names() {
		if cur.byName(name) == nil {
			departed[name] = true
		}
	}
	if len(departed) == 0 {
		return
	}
	for _, st := range rt.front.Sweeps() {
		rt.migrateSweep(st, old, cur, departed)
	}
}

// migrateSweep migrates one sweep's orphaned in-flight jobs.
func (rt *Router) migrateSweep(st *server.SweepState, old, cur *membership, departed map[string]bool) {
	from := make(map[int]string)
	moved := st.Reassign(func(i int, jv server.JobView) (string, bool) {
		if !owed(jv) || !departed[jv.Shard] {
			return "", false
		}
		from[i] = jv.Shard
		return owner(cur, st.Sweep.Jobs[i])
	})
	if len(moved) == 0 {
		return
	}
	groups := groupsOf(st, cur, moved)
	for dst, idxs := range groups {
		for _, i := range idxs {
			name := server.CheckpointName(st.Sweep.Jobs[i].Key())
			data, ok := old.byName(from[i]).fetchCheckpoint(rt.ctx, name, rt.timeout)
			if !ok {
				rt.logf("sweep %s: job %d: no checkpoint on %s; %s re-simulates from scratch", st.ID, i, from[i], dst.name)
				continue
			}
			if err := dst.pushCheckpoint(rt.ctx, name, data, rt.timeout); err != nil {
				rt.logf("sweep %s: job %d: checkpoint push to %s: %v; it re-simulates from scratch", st.ID, i, dst.name, err)
				continue
			}
			rt.met.jobsMigrated.Add(1)
			st.Timeline("migrated", i, dst.name, fmt.Sprintf("checkpoint moved from %s (%d bytes)", from[i], len(data)))
			rt.logf("sweep %s: job %d: checkpoint migrated %s -> %s (%d bytes)", st.ID, i, from[i], dst.name, len(data))
		}
	}
	rt.front.Journal(st)
	rt.logf("sweep %s: migrated %d in-flight job(s) off retired shard(s)", st.ID, len(moved))
	rt.front.Go(func() { rt.dispatch(st, groups) })
}
