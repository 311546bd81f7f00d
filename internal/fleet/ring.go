package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// ring is a consistent-hash ring mapping Job.Key strings to shard
// indices. Each shard contributes `replicas` points derived from its
// name (its base URL), so the mapping depends only on the configured
// shard set — not on ordering, process lifetime or request history:
// every router instance with the same -shards flag computes the same
// placement, and re-submitting a sweep lands every job on the shard
// that already holds its cached result.
//
// Removing one shard (or routing around it while it is unhealthy) moves
// only the keys that pointed at it — the consistent-hashing property
// that keeps the fleet's per-shard caches warm when the shard set
// changes. ALLARM itself distributes directory entries across
// address-interleaved slices for the same reason: placement by stable
// hash needs no coordination.
type ring struct {
	points []ringPoint // sorted by hash, clockwise
}

type ringPoint struct {
	hash  uint64
	shard int // index into the router's shard slice
}

// hash64 is the ring's hash: the first 8 bytes of SHA-256, matching the
// collision discipline of the result store's content addressing (keys
// embed %+v-rendered configs; a weak hash would cluster them).
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// newRing builds the ring for the named shards with the given number of
// points per shard (virtual nodes; more points = smoother balance).
func newRing(names []string, replicas int) *ring {
	r := &ring{points: make([]ringPoint, 0, len(names)*replicas)}
	for i, name := range names {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hash64(name + "#" + strconv.Itoa(v)),
				shard: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		p, q := r.points[a], r.points[b]
		if p.hash != q.hash {
			return p.hash < q.hash
		}
		// Ties broken by shard index so the order — and therefore every
		// router's placement — is total and deterministic.
		return p.shard < q.shard
	})
	return r
}

// lookup returns the shard owning key: the first point at or after the
// key's hash (wrapping), skipping shards alive reports false for. It
// returns -1 when no shard is alive.
func (r *ring) lookup(key string, alive func(shard int) bool) int {
	if len(r.points) == 0 {
		return -1
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if alive == nil || alive(p.shard) {
			return p.shard
		}
	}
	return -1
}
