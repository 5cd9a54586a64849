package service

import (
	"container/list"
	"sync"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/perm"
)

// lruCache maps recently queried permutations to their synthesis
// results. Circuits are immutable once synthesized (callers receive the
// cached slice and must not mutate it — the package API never does), so
// a hit costs one mutex acquisition and two pointer moves. Deterministic
// errors (beyond-horizon, invalid function) are cached alongside
// successes: re-asking an impossible query is as common as re-asking a
// possible one. A full cache evicts its least recently used entry.
type lruCache struct {
	mu  sync.Mutex
	cap int
	m   map[perm.Perm]*list.Element
	l   *list.List // front = most recently used
}

type lruEntry struct {
	key  perm.Perm
	c    circuit.Circuit
	info core.Info
	err  error
}

func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{
		cap: capacity,
		m:   make(map[perm.Perm]*list.Element, capacity),
		l:   list.New(),
	}
}

func (c *lruCache) get(key perm.Perm) (circuit.Circuit, core.Info, error, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, core.Info{}, nil, false
	}
	c.l.MoveToFront(el)
	e := el.Value.(*lruEntry)
	return e.c, e.info, e.err, true
}

func (c *lruCache) put(key perm.Perm, circ circuit.Circuit, info core.Info, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.l.MoveToFront(el)
		*el.Value.(*lruEntry) = lruEntry{key: key, c: circ, info: info, err: err}
		return
	}
	if c.l.Len() >= c.cap {
		delete(c.m, c.l.Remove(c.l.Back()).(*lruEntry).key)
	}
	c.m[key] = c.l.PushFront(&lruEntry{key: key, c: circ, info: info, err: err})
}

// len reports the number of cached entries.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.l.Len()
}
