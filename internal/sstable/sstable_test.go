package sstable

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"timeunion/internal/cloud"
	"timeunion/internal/encoding"
)

func buildTable(t *testing.T, blockSize int, kvs [][2][]byte) (*Table, cloud.Store) {
	t.Helper()
	tbl, store, _ := tableOnStore(t, "t/1.sst", blockSize, kvs, nil)
	return tbl, store
}

func seqKVs(n int) [][2][]byte {
	kvs := make([][2][]byte, 0, n)
	for i := 0; i < n; i++ {
		k := encoding.MakeKey(uint64(i/10), int64(i%10)*1000)
		v := []byte(fmt.Sprintf("value-%d", i))
		kvs = append(kvs, [2][]byte{append([]byte(nil), k[:]...), v})
	}
	return kvs
}

func TestWriterRejectsOutOfOrder(t *testing.T) {
	w := NewWriter(0)
	if err := w.Add([]byte("b"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Add([]byte("a"), []byte("2")); err == nil {
		t.Fatal("out-of-order key accepted")
	}
	if err := w.Add([]byte("b"), []byte("2")); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestFinishEmpty(t *testing.T) {
	if _, err := NewWriter(0).Finish(); err == nil {
		t.Fatal("empty table finished")
	}
}

func TestTableGet(t *testing.T) {
	kvs := seqKVs(500)
	tbl, _ := buildTable(t, 256, kvs) // small blocks: many index entries
	for i, kv := range kvs {
		v, ok, err := tbl.Get(kv[0])
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !bytes.Equal(v, kv[1]) {
			t.Fatalf("Get(%d) = %q, %v", i, v, ok)
		}
	}
	// Missing keys.
	miss := encoding.MakeKey(999, 0)
	if _, ok, err := tbl.Get(miss[:]); ok || err != nil {
		t.Fatalf("Get(missing) = %v, %v", ok, err)
	}
	if tbl.NumEntries() != 500 {
		t.Fatalf("NumEntries = %d", tbl.NumEntries())
	}
	if !bytes.Equal(tbl.FirstKey(), kvs[0][0]) || !bytes.Equal(tbl.LastKey(), kvs[len(kvs)-1][0]) {
		t.Fatal("first/last key wrong")
	}
}

func TestTableFullScan(t *testing.T) {
	kvs := seqKVs(300)
	tbl, _ := buildTable(t, 128, kvs)
	it := tbl.Iter(nil, nil)
	i := 0
	for it.Next() {
		if !bytes.Equal(it.Key(), kvs[i][0]) || !bytes.Equal(it.Value(), kvs[i][1]) {
			t.Fatalf("entry %d mismatch", i)
		}
		i++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if i != 300 {
		t.Fatalf("scanned %d entries", i)
	}
}

func TestTableRangeScan(t *testing.T) {
	kvs := seqKVs(200)
	tbl, _ := buildTable(t, 128, kvs)
	// Scan all chunks of series ID 5 (keys 50..59).
	start := encoding.MakeKey(5, -1<<62)
	end := encoding.MakeKey(6, -1<<62)
	it := tbl.Iter(start[:], end[:])
	var n int
	for it.Next() {
		k, err := encoding.ParseKey(it.Key())
		if err != nil {
			t.Fatal(err)
		}
		if k.ID() != 5 {
			t.Fatalf("scanned wrong series %d", k.ID())
		}
		n++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if n != 10 {
		t.Fatalf("range scan found %d entries, want 10", n)
	}
}

func TestTableRangeScanEmptyRange(t *testing.T) {
	kvs := seqKVs(50)
	tbl, _ := buildTable(t, 128, kvs)
	start := encoding.MakeKey(100, 0)
	it := tbl.Iter(start[:], nil)
	if it.Next() {
		t.Fatal("scan past end returned entries")
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
}

func TestTableRandomAgainstModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	model := map[string]string{}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%08d", rnd.Intn(100000))
		model[k] = fmt.Sprintf("v%d", i)
	}
	var keys []string
	for k := range model {
		keys = append(keys, k)
	}
	sortStrings(keys)
	var kvs [][2][]byte
	for _, k := range keys {
		kvs = append(kvs, [2][]byte{[]byte(k), []byte(model[k])})
	}
	tbl, _ := buildTable(t, 512, kvs)
	for _, k := range keys {
		v, ok, err := tbl.Get([]byte(k))
		if err != nil || !ok || string(v) != model[k] {
			t.Fatalf("Get(%s) = %q,%v,%v", k, v, ok, err)
		}
	}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("nokey-%08d", rnd.Intn(100000))
		if _, ok, _ := tbl.Get([]byte(k)); ok {
			t.Fatalf("phantom key %s", k)
		}
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestBlockCacheReducesGets(t *testing.T) {
	kvs := seqKVs(500)
	w := NewWriter(256)
	for _, kv := range kvs {
		if err := w.Add(kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	store := cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{})
	if err := store.Put("t.sst", data); err != nil {
		t.Fatal(err)
	}
	cache := cloud.NewLRUCache(1 << 20)
	tbl, err := OpenTable(store, "t.sst", cache)
	if err != nil {
		t.Fatal(err)
	}
	store.ResetStats()
	key := kvs[123][0]
	if _, ok, err := tbl.Get(key); !ok || err != nil {
		t.Fatalf("first get: %v %v", ok, err)
	}
	coldGets := store.Stats().Gets
	if coldGets == 0 {
		t.Fatal("cold read did not touch the store")
	}
	store.ResetStats()
	for i := 0; i < 10; i++ {
		if _, ok, err := tbl.Get(key); !ok || err != nil {
			t.Fatalf("cached get: %v %v", ok, err)
		}
	}
	if got := store.Stats().Gets; got != 0 {
		t.Fatalf("cached reads still hit the store %d times", got)
	}
}

func TestCorruptBlockDetected(t *testing.T) {
	kvs := seqKVs(100)
	w := NewWriter(256)
	for _, kv := range kvs {
		if err := w.Add(kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xff // flip a bit inside the first data block
	store := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
	if err := store.Put("t.sst", data); err != nil {
		t.Fatal(err)
	}
	tbl, err := OpenTable(store, "t.sst", nil)
	if err != nil {
		// The corruption may already surface at open (first-key read).
		return
	}
	if _, _, err := tbl.Get(kvs[0][0]); err == nil {
		t.Fatal("corrupt block read succeeded")
	}
}

func TestCorruptFooterDetected(t *testing.T) {
	store := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
	if err := store.Put("bad.sst", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTable(store, "bad.sst", nil); err == nil {
		t.Fatal("garbage table opened")
	}
	if err := store.Put("tiny.sst", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTable(store, "tiny.sst", nil); err == nil {
		t.Fatal("tiny table opened")
	}
	if _, err := OpenTable(store, "missing.sst", nil); !cloud.IsNotFound(err) {
		t.Fatalf("missing table err = %v", err)
	}
}

func TestPrefixCompressionEffective(t *testing.T) {
	// 1000 chunks of the same series: 16-byte keys sharing 8-13 byte
	// prefixes. The table must be much smaller than raw keys+values.
	var kvs [][2][]byte
	val := make([]byte, 20)
	for i := 0; i < 1000; i++ {
		k := encoding.MakeKey(42, int64(i)*30_000)
		kvs = append(kvs, [2][]byte{append([]byte(nil), k[:]...), val})
	}
	w := NewWriter(4096)
	for _, kv := range kvs {
		if err := w.Add(kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rawKeys := 1000 * 16
	// Each entry should spend only ~3-6 bytes on key data thanks to the
	// shared big-endian ID prefix.
	if len(data) > rawKeys+1000*20+4096 {
		t.Fatalf("table %d bytes: prefix compression ineffective", len(data))
	}
}

func TestBloomFilter(t *testing.T) {
	var hashes []uint64
	for i := 0; i < 1000; i++ {
		hashes = append(hashes, bloomHash([]byte(fmt.Sprintf("key%d", i))))
	}
	f := buildBloom(hashes, 10)
	for i := 0; i < 1000; i++ {
		if !bloomMayContain(f, []byte(fmt.Sprintf("key%d", i))) {
			t.Fatalf("false negative for key%d", i)
		}
	}
	fp := 0
	for i := 0; i < 10000; i++ {
		if bloomMayContain(f, []byte(fmt.Sprintf("other%d", i))) {
			fp++
		}
	}
	if fp > 500 { // 10 bits/key should be ~1% FP; allow 5%
		t.Fatalf("false positive rate too high: %d/10000", fp)
	}
}

func TestMetaBytesPositive(t *testing.T) {
	tbl, _ := buildTable(t, 128, seqKVs(100))
	if tbl.MetaBytes() <= 0 {
		t.Fatal("MetaBytes not accounted")
	}
	if tbl.Size() <= 0 || tbl.StoreKey() == "" {
		t.Fatal("size/key not set")
	}
}
