package server

import (
	"container/list"
	"sync"

	"repro/internal/prix"
)

// cached is one materialized query result. Matches is shared between the
// cache and every reader, so it must be treated as immutable. buf, set only
// with the cache off, is the pooled memory matches were packed into.
type cached struct {
	matches []prix.Match
	stats   prix.QueryStats
	buf     *prix.MatchBuf
}

// Cache is a sharded LRU for query results, keyed by the canonical query
// string plus execution options. Sharding keeps lock hold times short under
// concurrent readers; each shard has its own LRU list.
type Cache struct {
	shards []cacheShard
}

type cacheShard struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     list.List // front = most recently used
}

type cacheItem struct {
	key string
	val *cached
}

// NewCache builds a cache holding up to capacity entries across shards
// power-of-two-rounded shards. A capacity < 1 returns nil (caching off).
func NewCache(capacity, shards int) *Cache {
	if capacity < 1 {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	// Round shards to a power of two so the hash can mask instead of mod.
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := capacity / n
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{shards: make([]cacheShard, n)}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].entries = make(map[string]*list.Element)
	}
	return c
}

// shard picks the shard for a key (FNV-1a).
func (c *Cache) shard(key string) *cacheShard {
	var h uint32 = 2166136261
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h&uint32(len(c.shards)-1)]
}

// Get returns the cached result for key, marking it most recently used.
func (c *Cache) Get(key string) (*cached, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*cacheItem).val, true
}

// Put stores a result, evicting the least recently used entry on overflow.
func (c *Cache) Put(key string, val *cached) {
	if c == nil {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*cacheItem).val = val
		s.lru.MoveToFront(el)
		return
	}
	for len(s.entries) >= s.cap {
		back := s.lru.Back()
		if back == nil {
			break
		}
		delete(s.entries, back.Value.(*cacheItem).key)
		s.lru.Remove(back)
	}
	s.entries[key] = s.lru.PushFront(&cacheItem{key: key, val: val})
}

// Flush drops every entry (Executor.InvalidateCache).
func (c *Cache) Flush() {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = make(map[string]*list.Element)
		s.lru.Init()
		s.mu.Unlock()
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}
