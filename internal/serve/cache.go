package serve

import (
	"container/list"
	"sync"
	"time"

	"pbspgemm"
)

// Product is one computed multiplication as the serving layer retains it:
// the result matrix plus the run metadata responses report. Cached Products
// are shared across responses and must be treated as read-only.
type Product struct {
	C         *pbspgemm.CSR
	Algorithm string
	Flops     int64
	CF        float64
	Elapsed   time.Duration
	// Bytes is the resident cost (csrBytes of C) the cache accounts.
	Bytes int64
	// Degraded reports the product ran under the server's degraded memory
	// budget after its full-speed footprint was inadmissible.
	Degraded bool
}

// Cache is the result cache: LRU over Products keyed by the full request
// identity (input hashes, semiring, mask, options — see productKey), bounded
// by a global memory budget. A repeated product is served from here without
// touching the Engine at all. Safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used
	m      map[string]*list.Element

	hits, misses, evictions, rejected int64
}

type cacheEntry struct {
	key string
	p   *Product
}

// NewCache creates a cache evicting LRU entries to stay under budget bytes.
// budget <= 0 disables caching entirely (Get always misses, Add drops).
func NewCache(budget int64) *Cache {
	return &Cache{budget: budget, ll: list.New(), m: make(map[string]*list.Element)}
}

// Get returns the cached product for key, marking it most recently used.
func (c *Cache) Get(key string) (*Product, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).p, true
}

// Add stores p under key, evicting least-recently-used entries until the
// budget holds. A product larger than the whole budget is not stored (it
// would evict everything and then still not fit); Stats counts it rejected.
func (c *Cache) Add(key string, p *Product) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget <= 0 || p.Bytes > c.budget {
		c.rejected++
		return
	}
	if el, ok := c.m[key]; ok {
		// Same key computed twice (e.g. a flight that raced an eviction):
		// keep the existing entry, it is byte-identical by construction.
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, p: p})
	c.bytes += p.Bytes
	for c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.m, e.key)
		c.bytes -= e.p.Bytes
		c.evictions++
	}
}

// Len returns the number of cached products.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats reports the cache counters and occupancy.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries: c.ll.Len(), Bytes: c.bytes, BudgetBytes: c.budget,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Rejected: c.rejected,
	}
}

// CacheStats is the cache's slice of the /metrics snapshot.
type CacheStats struct {
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	// Rejected counts products too large for the budget (never cached).
	Rejected int64 `json:"rejected"`
}
