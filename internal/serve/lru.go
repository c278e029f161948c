package serve

import "sync"

// runeCache is a thread-safe cache mapping query strings to their []rune
// decodings. The serving hot path converts every incoming query string to
// runes before handing it to a metric or searcher; repeated queries (the
// common case behind a load balancer) hit the cache and skip the UTF-8
// decode and allocation entirely.
//
// Entries live in a ring of slots that grows on demand up to the capacity,
// indexed by key, so an entry costs its decoding, one slot and one index
// entry: no list element, no boxed entry, and no map sized up front for a
// capacity a workload may never reach. Eviction is second-chance (CLOCK),
// the usual approximation of LRU: a hit marks its slot, and the hand
// passes over marked slots once, clearing the mark, before it evicts an
// unmarked one.
//
// Cached slices are shared between callers and must be treated as
// immutable — every consumer in internal/search and internal/metric reads
// them without mutation.
type runeCache struct {
	mu       sync.Mutex
	capacity int
	index    map[string]int32 // key → slot
	slots    []cacheSlot
	hand     int // next slot the eviction scan considers

	hits, misses, evictions uint64
}

type cacheSlot struct {
	key   string
	runes []rune
	used  bool // hit since the hand last passed
}

// CacheStats is a snapshot of the cache counters, reported by /healthz.
type CacheStats struct {
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// newRuneCache builds a cache holding at most capacity entries.
// capacity <= 0 disables caching: Get always decodes.
func newRuneCache(capacity int) *runeCache {
	return &runeCache{capacity: capacity}
}

// Get returns the rune decoding of s, from cache when possible.
func (c *runeCache) Get(s string) []rune {
	if c.capacity <= 0 {
		return []rune(s)
	}
	c.mu.Lock()
	if i, ok := c.index[s]; ok {
		c.slots[i].used = true
		c.hits++
		rs := c.slots[i].runes
		c.mu.Unlock()
		return rs
	}
	c.misses++
	c.mu.Unlock()

	// Decode outside the lock: conversion cost dominates for long strings,
	// and racing inserts of the same key are harmless (first one wins).
	rs := []rune(s)

	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[s]; ok {
		// Lost the race to another goroutine; reuse its entry. The slice is
		// read under the lock: a concurrent eviction may reuse the slot.
		c.slots[i].used = true
		return c.slots[i].runes
	}
	c.insert(s, rs)
	return rs
}

// insert stores a new entry, growing the ring while it is below capacity
// and otherwise evicting the first unmarked slot from the hand on.
// c.mu must be held.
func (c *runeCache) insert(s string, rs []rune) {
	if c.index == nil {
		c.index = make(map[string]int32)
	}
	if len(c.slots) < c.capacity {
		if len(c.slots) == cap(c.slots) {
			grown := make([]cacheSlot, len(c.slots), min(max(2*len(c.slots), 16), c.capacity))
			copy(grown, c.slots)
			c.slots = grown
		}
		c.index[s] = int32(len(c.slots))
		c.slots = append(c.slots, cacheSlot{key: s, runes: rs})
		return
	}
	for c.slots[c.hand].used {
		c.slots[c.hand].used = false
		c.hand = (c.hand + 1) % len(c.slots)
	}
	delete(c.index, c.slots[c.hand].key)
	c.slots[c.hand] = cacheSlot{key: s, runes: rs}
	c.index[s] = int32(c.hand)
	c.hand = (c.hand + 1) % len(c.slots)
	c.evictions++
}

// Stats returns a consistent snapshot of the counters.
func (c *runeCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size:      len(c.slots),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
