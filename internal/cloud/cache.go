package cloud

import (
	"container/list"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
)

// LRUCache is a byte-capacity-bounded LRU of data segments fetched from the
// stores during querying (paper §4.1: "we equip a 1GB in-memory LRU cache
// to cache the data segments fetched from S3"; the LSM also serves its
// fast-tier blocks from it, decoded — DESIGN.md §2.1). Concurrent misses on
// the same key are deduplicated: GetOrFetch issues one store fetch and
// shares the result with every waiter (singleflight), so a parallel query
// whose workers touch the same segment pays one Get, not N.
//
// Aliasing contract: cached segments are IMMUTABLE after insert. Put takes
// ownership of the data slice (the inserter must not write to it again),
// and Get/GetOrFetch hand every caller the same slice, which must be
// treated as read-only. This is what lets the sstable reader decode blocks
// straight out of the cache with zero copies: decoders may retain
// sub-slices for as long as they like (the GC keeps even evicted segments
// alive while referenced) but must never write through them. The contract
// is enforceable in tests via SetIntegrityChecks, which checksums segments
// at insert and panics on a hit whose bytes have changed.
type LRUCache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	ll       *list.List
	items    map[string]*list.Element
	flight   map[string]*flightCall

	// Counters are atomic so scrapers and stats snapshots never contend
	// with lookups for the structural mutex.
	hits, misses, shared, evictions atomic.Uint64
}

type cacheEntry struct {
	key  string
	data []byte
	sum  uint32 // CRC of data at insert; checked only with integrity checks on
}

// cacheIntegrity, when set, makes Put record a checksum of every inserted
// segment and every cache hit verify it, turning a violation of the
// immutability contract into a panic at the point of detection. Test hook;
// off in production (hits stay O(1) without hashing).
var cacheIntegrity atomic.Bool

// SetIntegrityChecks toggles cached-segment checksum verification. Tests
// exercising the zero-copy read path enable it to prove nothing writes to
// cache-resident blocks. Segments inserted while the flag was off are not
// verified.
func SetIntegrityChecks(on bool) { cacheIntegrity.Store(on) }

// verify panics if a cached segment no longer matches its insert-time
// checksum. Called on hit paths with c.mu held.
func (c *LRUCache) verify(ent *cacheEntry) {
	if !cacheIntegrity.Load() || ent.sum == 0 {
		return
	}
	if got := crc32.ChecksumIEEE(ent.data); got != ent.sum {
		panic(fmt.Sprintf("cloud: cached segment %q mutated after insert (crc %08x, want %08x): immutability contract violated", ent.key, got, ent.sum))
	}
}

// flightCall is one in-progress fetch that late-arriving misses wait on.
type flightCall struct {
	wg   sync.WaitGroup
	data []byte
	err  error
}

// NewLRUCache creates a cache bounded to capacity bytes. A capacity of 0
// disables caching (all lookups miss), but GetOrFetch still deduplicates
// concurrent fetches of the same key.
func NewLRUCache(capacity int64) *LRUCache {
	return &LRUCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		flight:   make(map[string]*flightCall),
	}
}

// Get returns the cached segment, if present. The slice is shared with
// every other reader and must be treated as read-only.
func (c *LRUCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		ent := e.Value.(*cacheEntry)
		c.verify(ent)
		c.ll.MoveToFront(e)
		c.hits.Add(1)
		return ent.data, true
	}
	c.misses.Add(1)
	return nil, false
}

// Contains reports whether key is cached or being fetched, without counting
// a hit or a miss and without touching recency: a peek for a caller
// deciding whether fetching key too is worth it.
func (c *LRUCache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, cached := c.items[key]
	_, inFlight := c.flight[key]
	return cached || inFlight
}

// GetOrFetch returns the cached segment, calling fetch on a miss and
// inserting the result. Concurrent callers missing on the same key share a
// single fetch: one caller (the leader) runs fetch while the rest block and
// receive its result. Transient store failures are retried by the leader
// with DefaultRetry's bounded backoff before the error is shared; errors
// are returned to every sharing caller but are not cached, so the next
// miss retries from scratch.
func (c *LRUCache) GetOrFetch(key string, fetch func() ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	if e, ok := c.items[key]; ok {
		ent := e.Value.(*cacheEntry)
		c.verify(ent)
		c.ll.MoveToFront(e)
		c.hits.Add(1)
		data := ent.data // read under c.mu: a Put may replace it
		c.mu.Unlock()
		return data, nil
	}
	if fc, ok := c.flight[key]; ok {
		c.shared.Add(1)
		c.mu.Unlock()
		fc.wg.Wait()
		return fc.data, fc.err
	}
	fc := &flightCall{}
	fc.wg.Add(1)
	c.flight[key] = fc
	c.misses.Add(1)
	c.mu.Unlock()

	fc.err = DefaultRetry.Do(func() error {
		var err error
		fc.data, err = fetch()
		return err
	})
	if fc.err == nil {
		c.Put(key, fc.data)
	}
	c.mu.Lock()
	delete(c.flight, key)
	c.mu.Unlock()
	fc.wg.Done()
	return fc.data, fc.err
}

// Put inserts a segment, evicting LRU entries to stay within capacity.
// Segments larger than the whole capacity are not cached; overwriting an
// existing key with such a segment drops the stale cached value.
//
// Put takes ownership of data: the segment is immutable from here on, and
// the caller must not write to the slice again (zero-copy readers alias it).
func (c *LRUCache) Put(key string, data []byte) {
	var sum uint32
	if cacheIntegrity.Load() {
		sum = crc32.ChecksumIEEE(data)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if int64(len(data)) > c.capacity {
		c.removeLocked(key)
		return
	}
	if e, ok := c.items[key]; ok {
		ent := e.Value.(*cacheEntry)
		c.used += int64(len(data)) - int64(len(ent.data))
		ent.data = data
		ent.sum = sum
		c.ll.MoveToFront(e)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, data: data, sum: sum})
		c.used += int64(len(data))
	}
	for c.used > c.capacity {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.used -= int64(len(ent.data))
		delete(c.items, ent.key)
		c.ll.Remove(back)
		c.evictions.Add(1)
	}
}

// Invalidate drops keys whose underlying object was deleted, replaced by
// compaction, or closed by its last reader. Segments already handed out
// stay valid (readers alias them; the GC keeps them alive).
func (c *LRUCache) Invalidate(keys ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, key := range keys {
		c.removeLocked(key)
	}
}

// removeLocked drops a key's entry, adjusting the byte accounting. The
// caller holds c.mu.
func (c *LRUCache) removeLocked(key string) {
	if e, ok := c.items[key]; ok {
		ent := e.Value.(*cacheEntry)
		c.used -= int64(len(ent.data))
		delete(c.items, ent.key)
		c.ll.Remove(e)
	}
}

// Capacity returns the byte bound the cache was created with.
func (c *LRUCache) Capacity() int64 { return c.capacity }

// UsedBytes returns the current cached volume.
func (c *LRUCache) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// HitRate returns hits, misses since creation. A GetOrFetch leader counts
// as a miss; waiters sharing its fetch count in neither (see SharedFetches).
func (c *LRUCache) HitRate() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// SharedFetches returns how many callers were served by waiting on another
// caller's in-flight fetch instead of issuing their own store read.
func (c *LRUCache) SharedFetches() uint64 { return c.shared.Load() }

// Evictions returns how many entries capacity pressure has pushed out.
func (c *LRUCache) Evictions() uint64 { return c.evictions.Load() }
