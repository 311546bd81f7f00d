package fleet

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		// Shaped like real placement keys: workload|mp|mpcfg|config.
		out[i] = fmt.Sprintf("bench:b%d|false|{}|{Threads:%d}", i, i%64)
	}
	return out
}

// TestRingPlacementIsByNameNotOrder: two rings over the same shard set
// in different orders place every key on the same shard name —
// placement is a pure function of the configured set, so every router
// instance agrees.
func TestRingPlacementIsByNameNotOrder(t *testing.T) {
	a := []string{"http://s1", "http://s2", "http://s3"}
	b := []string{"http://s3", "http://s1", "http://s2"}
	ra, rb := newRing(a, defaultReplicas), newRing(b, defaultReplicas)
	for _, k := range keys(500) {
		na := a[ra.lookup(k, nil)]
		nb := b[rb.lookup(k, nil)]
		if na != nb {
			t.Fatalf("key %q: order changed placement: %s vs %s", k, na, nb)
		}
	}
}

// TestRingRemovalMovesOnlyVictimKeys is the consistent-hashing
// property: routing around one dead shard moves exactly the keys it
// owned; every other key keeps its shard (and its warm cache).
func TestRingRemovalMovesOnlyVictimKeys(t *testing.T) {
	names := []string{"http://s1", "http://s2", "http://s3", "http://s4"}
	r := newRing(names, defaultReplicas)
	const dead = 2
	alive := func(i int) bool { return i != dead }
	moved := 0
	for _, k := range keys(1000) {
		before := r.lookup(k, nil)
		after := r.lookup(k, alive)
		if after == dead {
			t.Fatalf("key %q placed on the dead shard", k)
		}
		if before != dead && after != before {
			t.Fatalf("key %q moved from healthy shard %d to %d", k, before, after)
		}
		if before == dead {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no key was owned by the removed shard (degenerate test)")
	}
}

// TestRingBalance: virtual nodes keep the split rough but sane — no
// shard starves or hoards.
func TestRingBalance(t *testing.T) {
	names := []string{"http://s1", "http://s2", "http://s3"}
	r := newRing(names, defaultReplicas)
	counts := make([]int, len(names))
	ks := keys(3000)
	for _, k := range ks {
		counts[r.lookup(k, nil)]++
	}
	for i, c := range counts {
		frac := float64(c) / float64(len(ks))
		if frac < 0.10 || frac > 0.60 {
			t.Errorf("shard %d owns %.1f%% of keys (counts %v)", i, 100*frac, counts)
		}
	}
}

// TestRingNoShardAlive: -1, never a panic or a dead placement.
func TestRingNoShardAlive(t *testing.T) {
	r := newRing([]string{"http://s1"}, 4)
	if got := r.lookup("k", func(int) bool { return false }); got != -1 {
		t.Fatalf("lookup with no live shards = %d, want -1", got)
	}
	empty := newRing(nil, defaultReplicas)
	if got := empty.lookup("k", nil); got != -1 {
		t.Fatalf("empty ring lookup = %d, want -1", got)
	}
}

// TestRingDeterministicAcrossBuilds: rebuilding the identical ring gives
// identical lookups (sort ties broken totally).
func TestRingDeterministicAcrossBuilds(t *testing.T) {
	names := []string{"http://a", "http://b"}
	r1, r2 := newRing(names, 16), newRing(names, 16)
	for _, k := range keys(200) {
		if r1.lookup(k, nil) != r2.lookup(k, nil) {
			t.Fatalf("key %q: placement differs between identical rings", k)
		}
	}
}
