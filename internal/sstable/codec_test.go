package sstable

import (
	"bytes"
	"compress/flate"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"timeunion/internal/cloud"
)

// decodeBlockReference is the codec as it was before the DEFLATE state was
// pooled: a fresh flate reader and io.ReadAll per block. The pooled decoder
// must agree with it byte for byte and error class for error class.
func decodeBlockReference(raw []byte) ([]byte, error) {
	if len(raw) < 5 {
		return nil, ErrCorrupt
	}
	payload := raw[1 : len(raw)-4]
	want := uint32(raw[len(raw)-4])<<24 | uint32(raw[len(raw)-3])<<16 |
		uint32(raw[len(raw)-2])<<8 | uint32(raw[len(raw)-1])
	if crc32.Checksum(payload, crcTable) != want {
		return nil, ErrCorrupt
	}
	switch raw[0] {
	case blockRaw:
		return payload, nil
	case blockFlate:
		out, err := io.ReadAll(flate.NewReader(bytes.NewReader(payload)))
		if err != nil {
			return nil, ErrCorrupt
		}
		return out, nil
	}
	return nil, ErrCorrupt
}

// storedBlock frames payload the way Writer.putStored does.
func storedBlock(marker byte, payload []byte) []byte {
	crc := crc32.Checksum(payload, crcTable)
	raw := append([]byte{marker}, payload...)
	return append(raw, byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc))
}

func deflated(t testing.TB, p []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkDecodeAgainstReference decodes raw with one pooled-style inflater —
// dirtied by whatever it decoded before — and with the reference, and
// requires identical bytes or an ErrCorrupt from both. It then poisons the
// inflater's scratch: a returned block that aliased it would change.
func checkDecodeAgainstReference(t testing.TB, z *inflater, raw []byte) {
	t.Helper()
	want, wantErr := decodeBlockReference(raw)
	got, err := z.decode(raw)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("pooled err = %v, reference err = %v", err, wantErr)
	}
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("pooled decode failed outside ErrCorrupt: %v", err)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("pooled decode differs from reference: %d vs %d bytes", len(got), len(want))
	}
	if raw[0] == blockFlate && cap(got) != len(got) {
		t.Fatalf("inflated block has %d bytes of capacity slack", cap(got)-len(got))
	}
	for i := range z.buf {
		z.buf[i] = 0xA5
	}
	if !bytes.Equal(got, want) {
		t.Fatal("returned block aliases the pooled scratch")
	}
}

// blockCorpus returns valid stored blocks of both markers, including one
// that inflates past the inflater's initial scratch.
func blockCorpus(t testing.TB) [][]byte {
	text := bytes.Repeat([]byte("timeunion-block-"), 300)  // 4800 B, compressible
	big := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7}, 6000) // 42 KB: forces the scratch to grow
	return [][]byte{
		storedBlock(blockRaw, []byte("raw payload")),
		storedBlock(blockRaw, nil),
		storedBlock(blockFlate, deflated(t, text)),
		storedBlock(blockFlate, deflated(t, big)),
		storedBlock(blockFlate, deflated(t, nil)),
	}
}

func FuzzDecodeBlock(f *testing.F) {
	for _, raw := range blockCorpus(f) {
		f.Add(raw, uint16(0), byte(0), false)
		f.Add(raw, uint16(3), byte(0x40), false)          // bit flip
		f.Add(raw, uint16(len(raw)/2), byte(0), true)     // truncation
		f.Add(raw, uint16(0), byte(0x07), false)          // wrong marker
		f.Add(raw, uint16(len(raw)-1), byte(0x01), false) // CRC flip
	}
	z := inflaterPool.Get().(*inflater) // shared across inputs: state must not leak between blocks
	f.Fuzz(func(t *testing.T, raw []byte, pos uint16, flip byte, truncate bool) {
		raw = append([]byte(nil), raw...)
		if len(raw) > 0 {
			i := int(pos) % len(raw)
			if truncate {
				raw = raw[:i]
			} else {
				raw[i] ^= flip
			}
		}
		// Corruption that keeps the CRC valid: re-frame the damaged payload,
		// so the inflater itself — not the checksum — meets the damage.
		if len(raw) >= 5 {
			checkDecodeAgainstReference(t, z, storedBlock(raw[0], raw[1:len(raw)-4]))
		}
		checkDecodeAgainstReference(t, z, raw)
	})
}

// TestDecodeBlockAfterCorruptBlock pins that a pooled inflater left in an
// error state by a corrupt stream decodes the next block correctly.
func TestDecodeBlockAfterCorruptBlock(t *testing.T) {
	z := inflaterPool.Get().(*inflater)
	good := blockCorpus(t)
	for _, raw := range good {
		bad := storedBlock(blockFlate, []byte{0xff, 0xff, 0xff, 0xff, 0x00})
		if _, err := z.decode(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("garbage stream decoded: %v", err)
		}
		checkDecodeAgainstReference(t, z, raw)
	}
}

// tableOnStore builds kvs into a table stored under key on a fresh MemStore.
func tableOnStore(t *testing.T, key string, blockSize int, kvs [][2][]byte, cache *cloud.LRUCache) (*Table, *cloud.MemStore, []byte) {
	t.Helper()
	w := NewWriter(blockSize)
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

func scanAll(t *testing.T, it *TableIterator) [][2][]byte {
	t.Helper()
	defer it.Release()
	var out [][2][]byte
	for it.Next() {
		out = append(out, [2][]byte{append([]byte(nil), it.Key()...), it.Value()})
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestIterWholeOneGetNoCache: the whole-table scan returns exactly what the
// block-by-block scan returns, for one store Get, and leaves the cache's
// counters and contents alone.
func TestIterWholeOneGetNoCache(t *testing.T) {
	kvs := seqKVs(2000)
	cache := cloud.NewLRUCache(1 << 20)
	tbl, store, _ := tableOnStore(t, "t/1.sst", 256, kvs, cache)
	want := scanAll(t, tbl.Iter(nil, nil))
	if len(want) != len(kvs) {
		t.Fatalf("block scan returned %d of %d entries", len(want), len(kvs))
	}
	hits, misses := cache.HitRate()
	used := cache.UsedBytes()
	store.ResetStats()

	got := scanAll(t, tbl.IterWhole())
	if len(got) != len(want) {
		t.Fatalf("whole scan returned %d entries, block scan %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i][0], want[i][0]) || !bytes.Equal(got[i][1], want[i][1]) {
			t.Fatalf("entry %d differs", i)
		}
	}
	if st := store.Stats(); st.Gets != 1 || int64(st.BytesRead) != tbl.Size() {
		t.Fatalf("whole scan cost %d gets / %d bytes, want 1 / %d", st.Gets, st.BytesRead, tbl.Size())
	}
	if h, m := cache.HitRate(); h != hits || m != misses || cache.UsedBytes() != used {
		t.Fatalf("whole scan touched the cache: hits %d→%d misses %d→%d used %d→%d", hits, h, misses, m, used, cache.UsedBytes())
	}
}

// scriptedGetStore fails Get with a scripted error sequence before delegating.
type scriptedGetStore struct {
	cloud.Store
	errs []error
	gets int
}

func (s *scriptedGetStore) Get(key string) ([]byte, error) {
	s.gets++
	if len(s.errs) > 0 {
		err := s.errs[0]
		s.errs = s.errs[1:]
		return nil, err
	}
	return s.Store.Get(key)
}

// wholeErr drains a whole-table scan and returns its error.
func wholeErr(tbl *Table) error {
	it := tbl.IterWhole()
	defer it.Release()
	for it.Next() {
	}
	return it.Err()
}

// TestIterWholeFaults: the whole-object Get classifies store trouble the
// way the per-block GetRange did — transient failures are retried inside
// DefaultRetry's bound, a NotFound surfaces as a NotFound at once, and a
// torn (short) or damaged object is ErrCorrupt, never a wrong answer.
func TestIterWholeFaults(t *testing.T) {
	kvs := seqKVs(600)
	transient := &cloud.TransientError{Op: "get", Key: "t/1.sst"}

	t.Run("transient retried", func(t *testing.T) {
		tbl, store, _ := tableOnStore(t, "t/1.sst", 256, kvs, nil)
		fs := &scriptedGetStore{Store: store, errs: []error{transient, transient}}
		tbl.store = fs
		if n := len(scanAll(t, tbl.IterWhole())); n != len(kvs) || fs.gets != 3 {
			t.Fatalf("%d entries after %d gets", n, fs.gets)
		}
	})
	t.Run("transient exhausted", func(t *testing.T) {
		tbl, store, _ := tableOnStore(t, "t/1.sst", 256, kvs, nil)
		fs := &scriptedGetStore{Store: store}
		for i := 0; i < cloud.DefaultRetry.Attempts; i++ {
			fs.errs = append(fs.errs, transient)
		}
		tbl.store = fs
		if err := wholeErr(tbl); !cloud.IsTransient(err) || fs.gets != cloud.DefaultRetry.Attempts {
			t.Fatalf("err = %v after %d gets", err, fs.gets)
		}
	})
	t.Run("not found surfaces", func(t *testing.T) {
		tbl, store, _ := tableOnStore(t, "t/1.sst", 256, kvs, nil)
		fs := &scriptedGetStore{Store: store, errs: []error{&cloud.ErrNotFound{Key: "t/1.sst"}}}
		tbl.store = fs
		if err := wholeErr(tbl); !cloud.IsNotFound(err) || fs.gets != 1 {
			t.Fatalf("err = %v after %d gets", err, fs.gets)
		}
	})
	t.Run("torn object", func(t *testing.T) {
		tbl, store, data := tableOnStore(t, "t/1.sst", 256, kvs, nil)
		if err := store.Put("t/1.sst", data[:len(data)/2]); err != nil {
			t.Fatal(err)
		}
		if err := wholeErr(tbl); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("torn table: err = %v", err)
		}
	})
	t.Run("damaged block", func(t *testing.T) {
		tbl, store, data := tableOnStore(t, "t/1.sst", 256, kvs, nil)
		bad := append([]byte(nil), data...)
		bad[tbl.indexOffs[3]+2] ^= 0x10
		if err := store.Put("t/1.sst", bad); err != nil {
			t.Fatal(err)
		}
		if err := wholeErr(tbl); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("damaged block: err = %v", err)
		}
		// The per-block path sees the same damage the same way.
		bit := tbl.Iter(nil, nil)
		for bit.Next() {
		}
		if err := bit.Err(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("damaged block via GetRange: err = %v", err)
		}
		bit.Release()
	})
}

// TestDropCached: a table's blocks leave the cache on DropCached and other
// tables' blocks stay; already-returned values remain readable.
func TestDropCached(t *testing.T) {
	cache := cloud.NewLRUCache(1 << 20)
	a, _, _ := tableOnStore(t, "t/1.sst", 256, seqKVs(500), cache)
	b, _, _ := tableOnStore(t, "t/2.sst", 256, seqKVs(500), cache)
	if cache.UsedBytes() != 0 {
		t.Fatalf("opening tables cached %d bytes", cache.UsedBytes())
	}
	scanAll(t, b.Iter(nil, nil))
	onlyB := cache.UsedBytes()
	vals := scanAll(t, a.Iter(nil, nil))
	if cache.UsedBytes() <= onlyB {
		t.Fatal("scan did not fill the cache")
	}
	a.DropCached()
	if got := cache.UsedBytes(); got != onlyB {
		t.Fatalf("after DropCached: %d bytes cached, want %d", got, onlyB)
	}
	for i, kv := range seqKVs(500) {
		if !bytes.Equal(vals[i][1], kv[1]) {
			t.Fatalf("value %d changed after its block left the cache", i)
		}
	}
}
