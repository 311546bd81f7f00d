package server

import (
	"container/list"
	"sync"

	allarm "allarm"
)

// resultCache is a bounded LRU of simulation results, content-addressed
// by Job.Key. Simulations are deterministic, so a cached *Result is
// exactly what re-running the job would produce; entries are shared
// read-only with every response that hits them.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheItem struct {
	key string
	res *allarm.Result
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached result for key, refreshing its recency.
func (c *resultCache) Get(key string) (*allarm.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).res, true
}

// Add inserts (or refreshes) key, evicting the least recently used entry
// beyond capacity.
func (c *resultCache) Add(key string, res *allarm.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheItem).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheItem{key: key, res: res})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheItem).key)
	}
}

// Len returns the number of cached entries.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// tier identifies which layer of the result store satisfied a Get.
type tier int

const (
	tierNone tier = iota // miss everywhere: the simulation must run
	tierMem              // in-memory LRU hit
	tierDisk             // disk-backend hit (promoted into the LRU)
)

// tieredStore is the two-level content-addressed result store: a
// bounded in-memory LRU in front of an optional unbounded ResultStore
// directory. Reads probe memory first and promote directory hits into
// the LRU; writes go through to both, so every complete result
// survives a restart even after the LRU evicts it. With no persistent
// tier it degenerates to the plain LRU the daemon always had.
type tieredStore struct {
	lru  *resultCache
	disk *ResultStore // nil = memory only
}

// Get returns the cached result for key and the tier that held it.
func (s *tieredStore) Get(key string) (*allarm.Result, tier) {
	if res, ok := s.lru.Get(key); ok {
		return res, tierMem
	}
	if s.disk != nil {
		if res, ok := s.disk.Get(key); ok {
			s.lru.Add(key, res)
			return res, tierDisk
		}
	}
	return nil, tierNone
}

// Add stores a complete result in both tiers. The disk write's error is
// returned for logging but the memory tier is always updated: a failing
// disk never blocks serving.
func (s *tieredStore) Add(key string, res *allarm.Result) error {
	s.lru.Add(key, res)
	if s.disk == nil {
		return nil
	}
	return s.disk.Put(key, res)
}

// flight is one in-progress simulation other requests for the same key
// wait on instead of re-running it.
type flight struct {
	done chan struct{} // closed when res/err are final
	res  *allarm.Result
	err  error
}

// flightGroup coalesces concurrent executions per job key (a minimal
// singleflight; no external deps). The leader of a key runs the
// simulation; followers block on the flight and share its outcome.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// join returns the flight for key and whether the caller leads it (the
// leader must eventually call finish).
func (g *flightGroup) join(key string) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	if fl, ok := g.m[key]; ok {
		return fl, false
	}
	fl := &flight{done: make(chan struct{})}
	g.m[key] = fl
	return fl, true
}

// finish publishes the leader's outcome and releases the key so a later
// identical job (on a cache miss, e.g. after LRU eviction or an error)
// starts a fresh flight.
func (g *flightGroup) finish(key string, fl *flight, res *allarm.Result, err error) {
	fl.res, fl.err = res, err
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(fl.done)
}
