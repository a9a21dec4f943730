package sstable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"timeunion/internal/cloud"
)

// wholeRun is a ReadAhead whose caller reads every block to the end.
type wholeRun struct{ asked int }

func (r *wholeRun) RunEnd(i, limit int) int {
	r.asked++
	return limit
}

// rawTableOnStore is tableOnStore with compression off: the L0/L1 layout.
func rawTableOnStore(t *testing.T, key string, kvs [][2][]byte, cache *cloud.LRUCache) (*Table, *cloud.MemStore, []byte) {
	t.Helper()
	w := NewWriter(256)
	w.DisableCompression()
	for _, kv := range kvs {
		if err := w.Add(kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	store := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
	if err := store.Put(key, data); err != nil {
		t.Fatal(err)
	}
	tbl, err := OpenTable(store, key, cache)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, store, data
}

// scanAhead scans the whole table with ra as its read-ahead and returns the
// scan's error.
func scanAhead(tbl *Table, ra ReadAhead) error {
	it := tbl.Iter(nil, nil)
	defer it.Release()
	it.SetReadAhead(ra)
	for it.Next() {
	}
	return it.Err()
}

// TestReadAheadSpanBlocksOwnMemory: a scan of a raw table whose caller
// reads every block costs one GetRange, and each block it caches is its own
// exact-size slice: none pins a neighbour's bytes or the span it was cut
// from.
func TestReadAheadSpanBlocksOwnMemory(t *testing.T) {
	kvs := seqKVs(600)
	cache := cloud.NewLRUCache(1 << 20)
	tbl, store, _ := rawTableOnStore(t, "t/1.sst", kvs, cache)
	if len(tbl.indexOffs) < 8 {
		t.Fatalf("setup: %d blocks", len(tbl.indexOffs))
	}
	store.ResetStats()
	ra := &wholeRun{}
	if err := scanAhead(tbl, ra); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Gets != 1 || ra.asked != 1 {
		t.Fatalf("scan cost %d gets and asked the read-ahead %d times, want 1 and 1", st.Gets, ra.asked)
	}
	type extent struct{ lo, hi uintptr }
	var seen []extent
	for i, key := range tbl.cacheKeys {
		blk, ok := cache.Get(key)
		if !ok {
			t.Fatalf("block %d not cached", i)
		}
		if cap(blk) != len(blk) {
			t.Fatalf("block %d: cap %d, len %d: it pins bytes beyond itself", i, cap(blk), len(blk))
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(blk)))
		e := extent{lo, lo + uintptr(cap(blk))}
		for j, o := range seen {
			if e.lo < o.hi && o.lo < e.hi {
				t.Fatalf("blocks %d and %d share a backing array", j, i)
			}
		}
		seen = append(seen, e)
	}
	if got := scanAll(t, tbl.Iter(nil, nil)); len(got) != len(kvs) {
		t.Fatalf("cached scan returned %d of %d entries", len(got), len(kvs))
	}
}

// TestReadAheadCorruptBlockNotCached: a block after the missing one that
// fails its checksum is not cached with the rest of the run, and the scan
// that reaches it fails naming the table and the block.
func TestReadAheadCorruptBlockNotCached(t *testing.T) {
	for _, raw := range []bool{false, true} {
		t.Run(fmt.Sprintf("raw=%v", raw), func(t *testing.T) {
			cache := cloud.NewLRUCache(1 << 20)
			var (
				tbl   *Table
				store *cloud.MemStore
				data  []byte
			)
			if raw {
				tbl, store, data = rawTableOnStore(t, "t/1.sst", seqKVs(600), cache)
			} else {
				tbl, store, data = tableOnStore(t, "t/1.sst", 256, seqKVs(600), cache)
			}
			const bad = 3
			damaged := append([]byte(nil), data...)
			damaged[tbl.indexOffs[bad]+2] ^= 0x10
			if err := store.Put("t/1.sst", damaged); err != nil {
				t.Fatal(err)
			}
			err := scanAhead(tbl, &wholeRun{})
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "t/1.sst") || !strings.Contains(err.Error(), fmt.Sprintf("block %d:", bad)) {
				t.Fatalf("scan over a damaged block: err = %v", err)
			}
			for i, key := range tbl.cacheKeys {
				if got, want := cache.Contains(key), i != bad; got != want {
					t.Fatalf("block %d cached = %v, want %v", i, got, want)
				}
			}
		})
	}
}

// TestReadAheadFailedSpanRetried: a span read that fails transiently is
// retried inside DefaultRetry's bound, and a span read that never succeeds
// leaves nothing cached.
func TestReadAheadFailedSpanRetried(t *testing.T) {
	cache := cloud.NewLRUCache(1 << 20)
	tbl, mem, _ := tableOnStore(t, "t/1.sst", 256, seqKVs(600), cache)
	fs := cloud.NewFaultStore(mem, cloud.FaultConfig{Seed: 7, TransientProb: 1})
	tbl.store = fs
	mem.ResetStats()
	if err := scanAhead(tbl, &wholeRun{}); !cloud.IsTransient(err) {
		t.Fatalf("scan under an always-failing store: err = %v", err)
	}
	if n := fs.Injected().Transient; n != uint64(cloud.DefaultRetry.Attempts) {
		t.Fatalf("span read tried %d times, want %d", n, cloud.DefaultRetry.Attempts)
	}
	if used := cache.UsedBytes(); used != 0 {
		t.Fatalf("failed span read cached %d bytes", used)
	}

	// Seed 6 fails the first read and passes the second.
	fs = cloud.NewFaultStore(mem, cloud.FaultConfig{Seed: 6, TransientProb: 0.5})
	tbl.store = fs
	if err := scanAhead(tbl, &wholeRun{}); err != nil {
		t.Fatal(err)
	}
	if n := fs.Injected().Transient; n != 1 {
		t.Fatalf("setup: %d faults injected, want 1", n)
	}
	if gets := mem.Stats().Gets; gets != 1 {
		t.Fatalf("retried scan reached the store %d times, want 1", gets)
	}
	for i, key := range tbl.cacheKeys {
		if !cache.Contains(key) {
			t.Fatalf("block %d not cached after the retried read", i)
		}
	}
}

// TestReadAheadNeedsCache: with no cache, or one of zero capacity, a scan
// reads block by block and never asks for a run.
func TestReadAheadNeedsCache(t *testing.T) {
	for _, cache := range []*cloud.LRUCache{nil, cloud.NewLRUCache(0)} {
		tbl, store, _ := tableOnStore(t, "t/1.sst", 256, seqKVs(600), cache)
		store.ResetStats()
		if err := scanAhead(tbl, &wholeRun{}); err != nil {
			t.Fatal(err)
		}
		if gets := store.Stats().Gets; gets != uint64(len(tbl.indexOffs)) {
			t.Fatalf("cache %v: %d gets for %d blocks", cache, gets, len(tbl.indexOffs))
		}
	}
}

// TestOpenTableThreeGets: opening a table from the store reads the
// footer, the index and bloom filter together, and block 0: three GETs.
func TestOpenTableThreeGets(t *testing.T) {
	_, store, _ := tableOnStore(t, "t/1.sst", 256, seqKVs(600), nil)
	store.ResetStats()
	tbl, err := OpenTable(store, "t/1.sst", nil)
	if err != nil {
		t.Fatal(err)
	}
	if gets := store.Stats().Gets; gets != 3 {
		t.Fatalf("OpenTable issued %d GETs, want 3", gets)
	}
	for _, kv := range seqKVs(600) {
		if _, ok, err := tbl.Get(kv[0]); !ok || err != nil {
			t.Fatalf("Get after open: %v %v", ok, err)
		}
	}
}

// TestOpenTableRejectsBadOffsets: footer offsets past the object, an index
// and bloom filter that are not adjacent, and index entries that do not
// tile the data section are all ErrCorrupt at open.
func TestOpenTableRejectsBadOffsets(t *testing.T) {
	_, _, data := tableOnStore(t, "t/1.sst", 256, seqKVs(600), nil)
	foot := len(data) - footerLen
	field := func(i int) uint64 { return binary.BigEndian.Uint64(data[foot+8*i:]) }
	indexOff, indexLen, bloomLen := field(0), field(1), field(3)
	for _, tc := range []struct {
		name string
		edit func(d []byte)
	}{
		{"index past the end", func(d []byte) { binary.BigEndian.PutUint64(d[foot+8:], uint64(len(d))) }},
		{"bloom past the end", func(d []byte) { binary.BigEndian.PutUint64(d[foot+24:], bloomLen+footerLen+1) }},
		{"offset overflow", func(d []byte) { binary.BigEndian.PutUint64(d[foot:], math.MaxUint64-4) }},
		{"bloom not after index", func(d []byte) { binary.BigEndian.PutUint64(d[foot+8:], indexLen-1) }},
		{"index entries out of range", func(d []byte) {
			// The index's first entry: count, key, then offset 0. A
			// nonzero first offset leaves a hole before block 0.
			p := indexOff + 1
			klen := uint64(d[p])
			d[p+1+klen] = 7
		}},
	} {
		d := append([]byte(nil), data...)
		tc.edit(d)
		if _, err := OpenTableFromBytes(nil, "t/1.sst", nil, d); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v", tc.name, err)
		}
		store := cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{})
		if err := store.Put("t/1.sst", d); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenTable(store, "t/1.sst", nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s via the store: err = %v", tc.name, err)
		}
	}
}
