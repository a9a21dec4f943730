package lsm

import (
	"math/rand"
	"reflect"
	"testing"

	"timeunion/internal/chunkenc"
	"timeunion/internal/cloud"
	"timeunion/internal/encoding"
	"timeunion/internal/sstable"
	"timeunion/internal/tuple"
)

// raSeries is one series of a read-ahead fixture table: id and chunk count.
type raSeries struct {
	id     uint64
	chunks int
}

// raFixture is a tree over one crafted L2 table on a MemStore slow tier,
// with its own block cache.
type raFixture struct {
	l     *LSM
	slow  *cloud.MemStore
	cache *cloud.LRUCache
}

// raTableName is the fixture table's object key.
var raTableName = tableName(2, &partition{minT: 0, maxT: 4000}, 1)

// raTable builds the fixture table: the series in id order, each chunk 16
// samples 1 apart starting every 100, into one DEFLATE (L2) table of
// 512-byte blocks for partition [0, 4000). The bytes depend on the layout
// only; values are random so blocks stay near their size after DEFLATE.
func raTable(t *testing.T, layout []raSeries) []byte {
	t.Helper()
	rnd := rand.New(rand.NewSource(7))
	w := sstable.NewWriter(512)
	for _, s := range layout {
		for c := 0; c < s.chunks; c++ {
			samples := make([]chunkenc.Sample, 16)
			for i := range samples {
				samples[i] = chunkenc.Sample{T: int64(c*100 + i), V: rnd.Float64()}
			}
			enc, err := chunkenc.EncodeXORSamples(samples)
			if err != nil {
				t.Fatal(err)
			}
			k := encoding.MakeKey(s.id, samples[0].T)
			v := tuple.Encode(s.id<<8|uint64(c), tuple.KindSeries, samples[0].T, samples[15].T, enc)
			if err := w.Add(k[:], v); err != nil {
				t.Fatal(err)
			}
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// openRAFixture puts the layout's table on a MemStore slow tier, opens a
// tree over it with a cache of cacheBytes, and zeroes the slow tier's
// counters.
func openRAFixture(t *testing.T, cacheBytes int64, layout []raSeries) *raFixture {
	t.Helper()
	data := raTable(t, layout)
	slow := cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{})
	if err := slow.Put(raTableName, data); err != nil {
		t.Fatal(err)
	}
	commitTables(t, slow, manifestSlowPrefix, raTableName)
	opts := smallOpts()
	opts.Fast = cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
	opts.Slow = slow
	opts.Cache = cloud.NewLRUCache(cacheBytes)
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	if n := l.NumPartitions(); n[2] != 1 {
		t.Fatalf("setup: partitions per level %v", n)
	}
	slow.ResetStats()
	return &raFixture{l: l, slow: slow, cache: opts.Cache}
}

// query reads ids the way a query's series set does, each id with the
// query's later ids as the read-ahead hint, or (hint false) each id alone.
// It returns every id's chunk values.
func (f *raFixture) query(t *testing.T, ids []uint64, hint bool) [][][]byte {
	t.Helper()
	out := make([][][]byte, len(ids))
	for k := range ids {
		ask := ids[k:]
		if !hint {
			ask = ids[k : k+1]
		}
		chunks, err := f.l.ChunksForInto(nil, ask, 0, 3999)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			out[k] = append(out[k], c.Value)
		}
	}
	return out
}

// blockReads is what a query costs the slow tier block by block: each id's
// range of the layout's table scanned through a cache with no read-ahead,
// so each GET is one block and the bytes are the sum of the blocks the
// query needs. It returns each id's chunk values too.
func blockReads(t *testing.T, layout []raSeries, ids []uint64) (gets, bytes uint64, values [][][]byte) {
	t.Helper()
	slow := cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{})
	if err := slow.Put(raTableName, raTable(t, layout)); err != nil {
		t.Fatal(err)
	}
	tbl, err := sstable.OpenTable(slow, raTableName, cloud.NewLRUCache(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	slow.ResetStats()
	values = make([][][]byte, len(ids))
	for k, id := range ids {
		start, end := encoding.MakeKey(id, 0), encoding.MakeKey(id, 4000)
		it := tbl.Iter(start[:], end[:])
		for it.Next() {
			values[k] = append(values[k], it.Value())
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		it.Release()
	}
	st := slow.Stats()
	return st.Gets, st.BytesRead, values
}

func seqLayout(n, chunks int) []raSeries {
	out := make([]raSeries, n)
	for i := range out {
		out[i] = raSeries{id: uint64(i + 1), chunks: chunks}
	}
	return out
}

// TestReadAheadOneGetPerTable: a query over adjacent series whose chunks
// span many blocks of one table reads them with one GetRange, the same
// bytes the block-by-block reads fetch, and returns the same chunks.
func TestReadAheadOneGetPerTable(t *testing.T) {
	layout := seqLayout(10, 6)
	ids := []uint64{3, 4, 5, 6, 7}
	blockGets, blockBytes, want := blockReads(t, layout, ids)
	if blockGets < 5 {
		t.Fatalf("setup: the query needs %d blocks", blockGets)
	}
	f := openRAFixture(t, 64<<20, layout)
	got := f.query(t, ids, true)
	if st := f.slow.Stats(); st.Gets != 1 || st.BytesRead != blockBytes {
		t.Fatalf("query cost %d GETs / %d bytes, want 1 / %d (block by block: %d GETs)", st.Gets, st.BytesRead, blockBytes, blockGets)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("read-ahead query returned different chunks")
	}
	// Read again: everything is cached, and nothing reaches the store.
	f.query(t, ids, true)
	if st := f.slow.Stats(); st.Gets != 1 {
		t.Fatalf("cached query reached the store: %d GETs", st.Gets)
	}
}

// TestReadAheadSkipsGap: a series between the query's ids that fills whole
// blocks and that the query does not select is a gap. Its inner blocks are
// never read: the query costs one GET per run of needed blocks and exactly
// the bytes of the blocks it needs.
func TestReadAheadSkipsGap(t *testing.T) {
	layout := seqLayout(7, 4)
	layout[3].chunks = 30 // id 4: several whole blocks
	ids := []uint64{1, 2, 3, 5, 6, 7}
	_, blockBytes, want := blockReads(t, layout, ids)
	_, allBytes, _ := blockReads(t, layout, []uint64{1, 2, 3, 4, 5, 6, 7})
	if allBytes-blockBytes < 1024 {
		t.Fatalf("setup: the gap is %d bytes", allBytes-blockBytes)
	}
	f := openRAFixture(t, 64<<20, layout)
	got := f.query(t, ids, true)
	if st := f.slow.Stats(); st.Gets != 2 || st.BytesRead != blockBytes {
		t.Fatalf("query cost %d GETs / %d bytes, want 2 / %d", st.Gets, st.BytesRead, blockBytes)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("read-ahead query returned different chunks")
	}
}

// TestReadAheadStopsAtCachedBlock: a block already in the cache ends the
// run before it and is not read again; the blocks after it are the next
// run.
func TestReadAheadStopsAtCachedBlock(t *testing.T) {
	layout := seqLayout(8, 6)
	ids := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	_, blockBytes, want := blockReads(t, layout, ids)
	f := openRAFixture(t, 64<<20, layout)
	f.query(t, []uint64{4}, false) // caches id 4's blocks, mid-table
	primeGets, primeBytes := f.slow.Stats().Gets, f.slow.Stats().BytesRead
	got := f.query(t, ids, true)
	st := f.slow.Stats()
	if st.Gets-primeGets != 2 || st.BytesRead != blockBytes {
		t.Fatalf("query after caching id 4 cost %d GETs, %d+%d bytes in all; want 2 GETs, %d bytes in all",
			st.Gets-primeGets, primeBytes, st.BytesRead-primeBytes, blockBytes)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("read-ahead query returned different chunks")
	}
}

// TestReadAheadSmallCache: with a cache smaller than the blocks the query
// needs, runs stay short enough that none evicts its own blocks: no block
// is fetched twice, and there are fewer GETs than blocks.
func TestReadAheadSmallCache(t *testing.T) {
	layout := seqLayout(20, 6)
	ids := make([]uint64, len(layout))
	for i, s := range layout {
		ids[i] = s.id
	}
	blockGets, blockBytes, want := blockReads(t, layout, ids)
	const cacheBytes = 6 << 10 // a run spans at most 1.5 KB: two blocks
	if blockBytes < 2*cacheBytes {
		t.Fatalf("setup: the query needs %d bytes of blocks, the cache holds %d", blockBytes, cacheBytes)
	}
	f := openRAFixture(t, cacheBytes, layout)
	got := f.query(t, ids, true)
	st := f.slow.Stats()
	if st.BytesRead != blockBytes || st.Gets >= blockGets {
		t.Fatalf("query cost %d GETs / %d bytes, want fewer than %d / exactly %d", st.Gets, st.BytesRead, blockGets, blockBytes)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("read-ahead query returned different chunks")
	}
	if ev := f.cache.Evictions(); ev == 0 {
		t.Fatal("setup: the cache never evicted")
	}
}
