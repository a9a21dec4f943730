package lsm

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"timeunion/internal/chunkenc"
	"timeunion/internal/cloud"
	"timeunion/internal/encoding"
	"timeunion/internal/sstable"
)

// queryAll reads every chunk of every id over all time, which loads every
// block of every live table through the tree's cache.
func queryAll(t *testing.T, l *LSM, ids []uint64) {
	t.Helper()
	for _, id := range ids {
		if _, err := l.ChunksFor(id, math.MinInt64, math.MaxInt64); err != nil {
			t.Fatal(err)
		}
	}
}

// liveBlockBytes is what a cache holds when it holds every block of the
// committed tree and nothing else: a fresh read-only view with its own
// cache, asked for everything.
func liveBlockBytes(t *testing.T, env *testEnv, ids []uint64) int64 {
	t.Helper()
	cache := cloud.NewLRUCache(64 << 20)
	r, err := Open(Options{Fast: env.fast, Slow: env.slow, ReadOnly: true, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	queryAll(t, r, ids)
	return cache.UsedBytes()
}

// TestCacheHoldsOnlyLiveTables drives a writer and a replica through every
// way a table leaves the tree — L0→L1, L1→L2, patch merge, retention, a
// replica's view refresh — querying everything before and after each, and
// requires both caches to hold exactly the live tables' blocks: a block of
// a retired table left behind would make the cache larger than a fresh
// view's.
func TestCacheHoldsOnlyLiveTables(t *testing.T) {
	opts := smallOpts()
	cache := cloud.NewLRUCache(64 << 20)
	opts.Cache = cache
	env := newEnv(t, opts)
	ids := []uint64{1, 2, 3}

	replicaCache := cloud.NewLRUCache(64 << 20)
	r := openReplica(t, env, func(o *Options) { o.Cache = replicaCache })

	check := func(stage string) {
		t.Helper()
		queryAll(t, env.l, ids)
		want := liveBlockBytes(t, env, ids)
		if got := cache.UsedBytes(); got != want {
			t.Fatalf("%s: writer cache holds %d bytes, the live tables' blocks are %d", stage, got, want)
		}
		queryAll(t, r, ids) // the outgoing view's blocks, about to be retired
		if _, err := r.Refresh(); err != nil {
			t.Fatal(err)
		}
		queryAll(t, r, ids)
		if got := replicaCache.UsedBytes(); got != want {
			t.Fatalf("%s: replica cache holds %d bytes, the live tables' blocks are %d", stage, got, want)
		}
	}

	// Fast tier only: what is cached here is L0 blocks.
	putSeries(t, env.l, 1, samplesAt(0, 50))
	putSeries(t, env.l, 2, samplesAt(0, 50))
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	check("flush")
	if n := env.l.NumPartitions(); cache.UsedBytes() == 0 || n[2] != 0 {
		t.Fatalf("fast-tier blocks are not cached: %d bytes cached, partitions per level %v", cache.UsedBytes(), n)
	}

	end := fillSequential(t, env.l, ids, 40, 1000, 50)
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := env.l.Stats(); st.CompactionsL0L1 == 0 || st.CompactionsL1L2 == 0 {
		t.Fatalf("setup: compactions %+v", st)
	}
	check("L0→L1 and L1→L2")

	for round := 0; env.l.Stats().PatchMerges == 0; round++ {
		if round == 8 {
			t.Fatal("setup: no patch merge")
		}
		putSeries(t, env.l, 1, []chunkenc.Sample{{T: int64(1300 + round*7), V: float64(round)}})
		end = fillSequential(t, env.l, ids, 40, end, 50)
		if err := env.l.Flush(); err != nil {
			t.Fatal(err)
		}
		check("patches and patch merge")
	}

	if env.l.ApplyRetention(end/2) == 0 {
		t.Fatal("setup: retention dropped nothing")
	}
	check("retention")
}

// TestRetainedTableReadableAcrossRetirement: a reader that retained a
// table before compaction retired it keeps reading correct data from it;
// the object and its cached blocks go when the reader lets go.
func TestRetainedTableReadableAcrossRetirement(t *testing.T) {
	opts := smallOpts()
	cache := cloud.NewLRUCache(64 << 20)
	opts.Cache = cache
	env := newEnv(t, opts)
	ids := []uint64{1, 2, 3}

	putSeries(t, env.l, 1, samplesAt(0, 50))
	putSeries(t, env.l, 2, samplesAt(0, 50))
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	env.l.mu.RLock()
	h := env.l.l0[0].tables[0]
	h.retain()
	env.l.mu.RUnlock()

	scan := func() [][2][]byte {
		var out [][2][]byte
		it := h.tbl.Iter(nil, nil)
		defer it.Release()
		for it.Next() {
			out = append(out, [2][]byte{append([]byte(nil), it.Key()...), it.Value()})
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := scan()

	fillSequential(t, env.l, ids, 40, 1000, 50)
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	if !h.obsolete.Load() {
		t.Fatal("setup: the retained table was not retired")
	}
	if _, err := env.fast.Size(h.storeKey); err != nil {
		t.Fatalf("retired table deleted under a reader: %v", err)
	}
	h.tbl.DropCached() // make the reads below go back to the store
	got := scan()
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("retained table scans %d entries, %d before retirement", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i][0], want[i][0]) || !bytes.Equal(got[i][1], want[i][1]) {
			t.Fatalf("entry %d differs after retirement", i)
		}
	}

	h.release()
	if _, err := env.fast.Size(h.storeKey); !cloud.IsNotFound(err) {
		t.Fatalf("retired table still stored after its last reader left: %v", err)
	}
	queryAll(t, env.l, ids)
	if got, want := cache.UsedBytes(), liveBlockBytes(t, env, ids); got != want {
		t.Fatalf("cache holds %d bytes after the last release, the live tables' blocks are %d", got, want)
	}
}

// rangeCountStore counts GetRange calls per key.
type rangeCountStore struct {
	*cloud.MemStore
	mu     sync.Mutex
	ranges map[string]int
}

func (s *rangeCountStore) GetRange(key string, off, length int64) ([]byte, error) {
	s.mu.Lock()
	s.ranges[key]++
	s.mu.Unlock()
	return s.MemStore.GetRange(key, off, length)
}

// TestQuerySkipsTablesOutsideIDRange: in a partition of two tables, a
// query for an id only one of them can hold costs the other table no block
// load and no cache lookup — including the case the iterator cannot prune
// by itself, an id below the other table's first key.
func TestQuerySkipsTablesOutsideIDRange(t *testing.T) {
	mem := &rangeCountStore{MemStore: cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{}), ranges: map[string]int{}}
	slow := cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{})
	low := craftTable(t, mem, 0, 0, 1000, 1, 2, []chunkenc.Sample{{T: 100, V: 1}})
	high := craftTable(t, mem, 0, 0, 1000, 2, 7, []chunkenc.Sample{{T: 200, V: 2}})
	commitTables(t, mem, manifestFastPrefix, low, high)

	opts := smallOpts()
	opts.Fast, opts.Slow = mem, slow
	opts.MaxL0Partitions = 8
	cache := cloud.NewLRUCache(1 << 20)
	opts.Cache = cache
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if n := l.NumPartitions(); n[0] != 1 {
		t.Fatalf("setup: partitions %v", n)
	}

	lookups := func() uint64 { h, m := cache.HitRate(); return h + m }
	for _, tc := range []struct {
		id                uint64
		chunks            int
		lowGets, highGets int
	}{
		{id: 2, chunks: 1, lowGets: 1, highGets: 0},
		{id: 7, chunks: 1, lowGets: 0, highGets: 1},
		{id: 1, chunks: 0}, // below both tables
		{id: 5, chunks: 0}, // between them
		{id: 9, chunks: 0}, // above both
	} {
		mem.mu.Lock()
		mem.ranges = map[string]int{}
		mem.mu.Unlock()
		cache.Invalidate(low+"#0", high+"#0")
		before := lookups()
		chunks, err := l.ChunksFor(tc.id, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) != tc.chunks {
			t.Fatalf("id %d: %d chunks, want %d", tc.id, len(chunks), tc.chunks)
		}
		if mem.ranges[low] != tc.lowGets || mem.ranges[high] != tc.highGets {
			t.Fatalf("id %d: block loads low=%d high=%d, want %d and %d", tc.id, mem.ranges[low], mem.ranges[high], tc.lowGets, tc.highGets)
		}
		if got, want := lookups()-before, uint64(tc.lowGets+tc.highGets); got != want {
			t.Fatalf("id %d: %d cache lookups, want %d", tc.id, got, want)
		}
	}
}

// TestCompactionBypassesCache: flushes and both compaction levels read
// their inputs with one Get per table and neither look anything up in the
// cache nor add to it.
func TestCompactionBypassesCache(t *testing.T) {
	opts := smallOpts()
	cache := cloud.NewLRUCache(64 << 20)
	opts.Cache = cache
	env := newEnv(t, opts)
	ids := []uint64{1, 2, 3}
	end := fillSequential(t, env.l, ids, 40, 0, 50)
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	// Fill the cache from a window at rest in L2, which the ordered
	// compactions below never read or replace.
	for _, id := range ids {
		if got := querySeries(t, env.l, id, 0, 3999); len(got) != 80 {
			t.Fatalf("series %d: %d samples in the oldest L2 window", id, len(got))
		}
	}
	hits, misses := cache.HitRate()
	used := cache.UsedBytes()
	if used == 0 {
		t.Fatal("setup: nothing cached")
	}
	before, fastBefore := env.l.Stats(), env.fast.Stats()

	fillSequential(t, env.l, ids, 40, end, 50)
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	after, fastAfter := env.l.Stats(), env.fast.Stats()
	if after.CompactionsL0L1 == before.CompactionsL0L1 || after.CompactionsL1L2 == before.CompactionsL1L2 {
		t.Fatalf("setup: no compaction ran: %+v", after)
	}
	if h, m := cache.HitRate(); h != hits || m != misses || cache.UsedBytes() != used {
		t.Fatalf("compaction touched the cache: hits %d→%d misses %d→%d used %d→%d", hits, h, misses, m, used, cache.UsedBytes())
	}
	// A fast-tier table is an input of at most two compactions (L0→L1,
	// then L1→L2), each one Get; block-by-block it was a Get per 512 B.
	gets, puts := fastAfter.Gets-fastBefore.Gets, fastAfter.Puts-fastBefore.Puts
	if gets == 0 || gets > 2*puts {
		t.Fatalf("compaction inputs cost %d fast-tier gets for %d puts", gets, puts)
	}
}

// TestSharedCacheStress runs queries, table builders and the tree's own
// flushes and compactions at once over one cache, with the cache verifying
// on every hit that no cached block has been written to. Run under -race
// it covers the pooled codec state, the decoded blocks' immutability and
// the drop of retired tables' blocks under concurrent readers.
func TestSharedCacheStress(t *testing.T) {
	cloud.SetIntegrityChecks(true)
	defer cloud.SetIntegrityChecks(false)
	opts := smallOpts()
	opts.Cache = cloud.NewLRUCache(256 << 10) // small enough to evict as well
	env := newEnv(t, opts)
	ids := []uint64{1, 2, 3, 4}
	const step, perChunk = 50, 10

	var written atomic.Int64 // samples of timestamp below this are in the tree
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			for !stop.Load() {
				hi := written.Load()
				if hi == 0 {
					continue
				}
				id := ids[rnd.Intn(len(ids))]
				lo := rnd.Int63n(hi)
				chunks, err := env.l.ChunksFor(id, lo, hi-1)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := SeriesSamples(chunks, lo, hi-1)
				if err != nil {
					t.Error(err)
					return
				}
				if want := int((hi-1)/step - (lo+step-1)/step + 1); len(got) != want {
					t.Errorf("series %d [%d,%d]: %d samples, want %d", id, lo, hi-1, len(got), want)
					return
				}
				for _, s := range got {
					if s.V != float64(id)+float64(s.T/(step*perChunk)%40) { // fillSequential: id + chunk index within its call
						t.Errorf("series %d: wrong value %v at t=%d", id, s.V, s.T)
						return
					}
				}
			}
		}(g)
	}
	// Builders outside the tree share only the codec pools.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; !stop.Load(); round++ {
				w := sstable.NewWriter(512)
				for i := 0; i < 200; i++ {
					k := encoding.MakeKey(uint64(g+1), int64(i))
					if err := w.Add(k[:], bytes.Repeat([]byte{byte(round), byte(i)}, 40)); err != nil {
						t.Error(err)
						return
					}
				}
				data, err := w.Finish()
				if err != nil {
					t.Error(err)
					return
				}
				store := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
				tbl, err := sstable.OpenTableFromBytes(store, "t", nil, data)
				if err != nil || tbl.NumEntries() != 200 {
					t.Errorf("built table does not reopen: %v", err)
					return
				}
			}
		}(g)
	}

	var end int64
	for round := 0; round < 6; round++ {
		end = fillSequential(t, env.l, ids, 40, end, step)
		if err := env.l.Flush(); err != nil {
			t.Fatal(err)
		}
		written.Store(end)
	}
	stop.Store(true)
	wg.Wait()
	if st := env.l.Stats(); st.CompactionsL0L1 == 0 || st.CompactionsL1L2 == 0 {
		t.Fatalf("no compaction ran under the stress: %+v", st)
	}
	if h, _ := opts.Cache.HitRate(); h == 0 {
		t.Fatal("no cache hit under the stress")
	}
}
