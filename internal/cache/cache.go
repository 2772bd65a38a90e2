// Package cache provides the byte-budgeted LRU cache used by Sharoes
// clients. The cache holds *decrypted* objects — metadata, table views,
// manifests and data blocks — so a hit saves both the WAN round trip and
// the cryptographic work, which is exactly the effect the paper's Postmark
// experiment sweeps by varying cache size as a percentage of the data set.
package cache

import (
	"container/list"
	"strings"
	"sync"
)

// Cache is a thread-safe LRU with a byte budget.
type Cache struct {
	mu     sync.Mutex
	budget int64 // <0: unlimited; 0: disabled
	used   int64
	ll     *list.List
	m      map[string]*list.Element

	hits   int64
	misses int64
}

type entry struct {
	key  string
	val  any
	size int64
}

// New creates a cache. budget < 0 means unlimited; budget == 0 disables
// caching entirely (every Get misses).
func New(budget int64) *Cache {
	return &Cache{budget: budget, ll: list.New(), m: make(map[string]*list.Element)}
}

// Get returns the cached value for key, marking it recently used.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget == 0 {
		c.misses++
		return nil, false
	}
	el, ok := c.m[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Has reports whether key is cached without marking it used or counting
// a hit or miss: a probe for prefetchers, not a read.
func (c *Cache) Has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[key]
	return ok
}

// Enabled reports whether the cache keeps anything (budget != 0).
func (c *Cache) Enabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budget != 0
}

// Put inserts or replaces the value for key, charging size bytes against
// the budget and evicting least-recently-used entries as needed. Values
// larger than the whole budget are not cached.
func (c *Cache) Put(key string, val any, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget == 0 || (c.budget > 0 && size > c.budget) {
		return
	}
	if el, ok := c.m[key]; ok {
		e := el.Value.(*entry)
		c.used += size - e.size
		e.val, e.size = val, size
		c.ll.MoveToFront(el)
	} else {
		c.m[key] = c.ll.PushFront(&entry{key: key, val: val, size: size})
		c.used += size
	}
	for c.budget > 0 && c.used > c.budget {
		c.evictOldest()
	}
}

func (c *Cache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.m, e.key)
	c.used -= e.size
}

// Delete removes key if present.
func (c *Cache) Delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*entry)
		c.ll.Remove(el)
		delete(c.m, key)
		c.used -= e.size
	}
}

// DeletePrefix removes every key with the given prefix — used to
// invalidate all blocks of a file or all views of a directory.
func (c *Cache) DeletePrefix(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.m {
		if strings.HasPrefix(key, prefix) {
			e := el.Value.(*entry)
			c.ll.Remove(el)
			delete(c.m, key)
			c.used -= e.size
		}
	}
}

// Clear empties the cache.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.m = make(map[string]*list.Element)
	c.used = 0
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Used returns the bytes currently charged.
func (c *Cache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Stats returns hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
