package sstable

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"timeunion/internal/cloud"
	"timeunion/internal/encoding"
)

// ErrCorrupt marks a structurally invalid table or block: truncated data,
// checksum mismatch, or an unparseable footer/index. Callers use it to
// tell damage (the object itself is bad — e.g. a torn write that was never
// acknowledged) from store trouble (a retryable fetch failure).
var ErrCorrupt = errors.New("sstable: corrupt")

// decodeBlock verifies and decompresses one stored block: marker byte +
// payload + 4-byte CRC over the payload. The result is the caller's to
// keep — a raw block aliases raw, an inflated one is a fresh exact-size
// slice — and never aliases pooled state.
func decodeBlock(raw []byte) ([]byte, error) {
	z := inflaterPool.Get().(*inflater)
	out, err := z.decode(raw)
	inflaterPool.Put(z)
	return out, err
}

// inflater is pooled DEFLATE decompressor state: the flate reader (~40 KB
// of window and Huffman tables that flate.NewReader allocates per call)
// and a scratch buffer blocks inflate into before one exact-size copy is
// handed out. The copy is what lets a decoded block live in the shared
// cache as an immutable segment with no capacity slack, while the scratch
// goes back to the pool.
type inflater struct {
	src bytes.Reader
	fr  io.Reader // a flate reader; implements flate.Resetter
	buf []byte
}

var inflaterPool = sync.Pool{New: func() any {
	z := &inflater{buf: make([]byte, 2*DefaultBlockSize)}
	z.fr = flate.NewReader(&z.src)
	return z
}}

func (z *inflater) decode(raw []byte) ([]byte, error) {
	if len(raw) < 5 {
		return nil, fmt.Errorf("%w: truncated block", ErrCorrupt)
	}
	marker := raw[0]
	payload := raw[1 : len(raw)-4]
	want := uint32(raw[len(raw)-4])<<24 | uint32(raw[len(raw)-3])<<16 |
		uint32(raw[len(raw)-2])<<8 | uint32(raw[len(raw)-1])
	if crc32.Checksum(payload, crcTable) != want {
		return nil, fmt.Errorf("%w: block checksum mismatch", ErrCorrupt)
	}
	switch marker {
	case blockRaw:
		return payload, nil
	case blockFlate:
		n, err := z.inflate(payload)
		if err != nil {
			return nil, fmt.Errorf("%w: block decompress: %w", ErrCorrupt, err)
		}
		return append(make([]byte, 0, n), z.buf[:n]...), nil
	default:
		return nil, fmt.Errorf("%w: unknown block marker %d", ErrCorrupt, marker)
	}
}

// inflate decompresses payload into z.buf, growing it as needed, and
// returns the decompressed length.
func (z *inflater) inflate(payload []byte) (int, error) {
	z.src.Reset(payload)
	defer z.src.Reset(nil) // do not pin the stored block from the pool
	if err := z.fr.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return 0, err
	}
	n := 0
	for {
		if n == len(z.buf) {
			z.buf = append(z.buf, make([]byte, len(z.buf))...)
		}
		m, err := z.fr.Read(z.buf[n:])
		n += m
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return 0, err
		}
	}
}

// Table is an open SSTable backed by a cloud store object. The footer,
// index block, and bloom filter are read once at open time and pinned; data
// blocks are fetched on demand through an optional shared LRU cache of
// decoded blocks. A scan that misses pays one store read for the run of
// adjacent missing blocks its caller will read next (see ReadAhead), and
// one inflate per block — the cost model of Equations 4 and 6 on the slow
// tier, counted per run rather than per block; an IOP on the fast one.
type Table struct {
	store    cloud.Store
	storeKey string
	cache    *cloud.LRUCache

	size       int64
	numEntries uint64
	indexKeys  [][]byte
	indexOffs  []uint64
	indexLens  []uint64
	cacheKeys  []string // per-block cache keys, precomputed at open
	bloom      []byte
	firstKey   []byte
	lastKey    []byte
}

// OpenTable opens the SSTable stored at storeKey. cache may be nil.
func OpenTable(store cloud.Store, storeKey string, cache *cloud.LRUCache) (*Table, error) {
	size, err := store.Size(storeKey)
	if err != nil {
		return nil, err
	}
	return openTable(store, storeKey, cache, size, nil)
}

// OpenTableFromBytes opens a table whose full contents the caller already
// holds (just-written compaction output), parsing metadata from memory so
// that creating a table costs zero store reads — the property that keeps
// ordered L1→L2 compaction write-only on the slow tier (Equation 9). Later
// block reads still go through the store.
func OpenTableFromBytes(store cloud.Store, storeKey string, cache *cloud.LRUCache, data []byte) (*Table, error) {
	return openTable(store, storeKey, cache, int64(len(data)), data)
}

// openTable parses table metadata. When data is non-nil it is the full
// table contents and no store reads are issued.
func openTable(store cloud.Store, storeKey string, cache *cloud.LRUCache, size int64, data []byte) (*Table, error) {
	readRange := func(off, length int64) ([]byte, error) {
		if data != nil {
			if off < 0 || off+length > int64(len(data)) {
				return nil, fmt.Errorf("%w: %s: range out of bounds", ErrCorrupt, storeKey)
			}
			return data[off : off+length], nil
		}
		// Transient store failures are retried with bounded backoff so a
		// blip while opening a table does not fail the whole recovery or
		// query that asked for it.
		var out []byte
		err := cloud.DefaultRetry.Do(func() error {
			var err error
			out, err = store.GetRange(storeKey, off, length)
			return err
		})
		return out, err
	}
	if size < footerLen {
		return nil, fmt.Errorf("%w: %s: too small (%d bytes)", ErrCorrupt, storeKey, size)
	}
	foot, err := readRange(size-footerLen, footerLen)
	if err != nil {
		return nil, err
	}
	d := encoding.NewDecbuf(foot)
	indexOff := d.BE64()
	indexLen := d.BE64()
	bloomOff := d.BE64()
	bloomLen := d.BE64()
	numEntries := d.BE64()
	magic := d.BE64()
	if d.Err() != nil || magic != tableMagic {
		return nil, fmt.Errorf("%w: %s: bad footer", ErrCorrupt, storeKey)
	}
	// The writer lays out data | index | bloom | footer, so the index and
	// the bloom filter come back in one read.
	metaEnd := bloomOff + bloomLen
	if indexOff+indexLen < indexOff || metaEnd < bloomOff || bloomOff != indexOff+indexLen || metaEnd > uint64(size) {
		return nil, fmt.Errorf("%w: %s: footer offsets out of range", ErrCorrupt, storeKey)
	}

	t := &Table{
		store:      store,
		storeKey:   storeKey,
		cache:      cache,
		size:       size,
		numEntries: numEntries,
	}
	meta, err := readRange(int64(indexOff), int64(metaEnd-indexOff))
	if err != nil {
		return nil, err
	}
	if uint64(len(meta)) != metaEnd-indexOff {
		return nil, fmt.Errorf("%w: %s: short metadata read", ErrCorrupt, storeKey)
	}
	ib := meta[:indexLen]
	id := encoding.NewDecbuf(ib)
	n := id.Uvarint()
	var end uint64 // blocks are contiguous from offset 0, so a run is one range
	for i := uint64(0); i < n && id.Err() == nil; i++ {
		k := append([]byte(nil), id.UvarintBytes()...)
		off, length := id.Uvarint(), id.Uvarint()
		if off != end || length > indexOff-off {
			return nil, fmt.Errorf("%w: %s: index block %d out of range", ErrCorrupt, storeKey, i)
		}
		end += length
		t.indexKeys = append(t.indexKeys, k)
		t.indexOffs = append(t.indexOffs, off)
		t.indexLens = append(t.indexLens, length)
	}
	if id.Err() != nil {
		return nil, fmt.Errorf("%w: %s: corrupt index block: %w", ErrCorrupt, storeKey, id.Err())
	}
	if cache != nil {
		// Precompute block cache keys so the per-read loadBlock path does no
		// string formatting (a Sprintf per lookup shows up at query rates).
		t.cacheKeys = make([]string, len(t.indexOffs))
		for i := range t.indexOffs {
			t.cacheKeys[i] = fmt.Sprintf("%s#%d", storeKey, t.indexOffs[i])
		}
	}
	// A copy, so the pinned filter holds neither the index bytes nor, in the
	// from-bytes path, caller memory that may be reused.
	t.bloom = append([]byte(nil), meta[indexLen:]...)
	// First key: first entry of the first block, read past the cache — an
	// open is not a query, and must not evict what queries are using.
	if len(t.indexOffs) > 0 {
		raw, err := readRange(int64(t.indexOffs[0]), int64(t.indexLens[0]))
		if err != nil {
			return nil, err
		}
		blk, err := decodeBlock(raw)
		if err != nil {
			return nil, fmt.Errorf("sstable: %s: block 0: %w", storeKey, err)
		}
		bd := encoding.NewDecbuf(blk)
		_ = bd.Uvarint() // shared (0 for first entry)
		unshared := bd.Uvarint()
		_ = bd.Uvarint() // value len
		t.firstKey = append([]byte(nil), bd.Bytes(int(unshared))...)
		if bd.Err() != nil {
			return nil, fmt.Errorf("%w: %s: corrupt first block: %w", ErrCorrupt, storeKey, bd.Err())
		}
		t.lastKey = t.indexKeys[len(t.indexKeys)-1]
	}
	return t, nil
}

// StoreKey returns the object key the table lives under.
func (t *Table) StoreKey() string { return t.storeKey }

// Size returns the table's stored size in bytes.
func (t *Table) Size() int64 { return t.size }

// NumEntries returns the number of key-value pairs.
func (t *Table) NumEntries() uint64 { return t.numEntries }

// FirstKey returns the smallest key in the table.
func (t *Table) FirstKey() []byte { return t.firstKey }

// LastKey returns the largest key in the table.
func (t *Table) LastKey() []byte { return t.lastKey }

// MetaBytes returns the pinned in-memory footprint (index + bloom), used in
// memory accounting.
func (t *Table) MetaBytes() int64 {
	n := int64(len(t.bloom))
	for _, k := range t.indexKeys {
		n += int64(len(k)) + 16
	}
	return n
}

// ReadAhead tells a scan which blocks its caller reads after the current
// one. A TableIterator asks it only when block i misses the cache, and
// only then does the answer cost anything: RunEnd returns the last block,
// at most limit, of the gap-free run from block i that the caller's next
// reads of this table load.
type ReadAhead interface {
	RunEnd(i, limit int) int
}

// loadBlock fetches and verifies data block i. With a cache attached the
// fetch goes through the cache's singleflight path, so concurrent query
// workers missing on the same block issue one store read and one inflate;
// with ra set, the same read also fetches the blocks ra says come next (see
// fetchRun). Without a cache nothing is read ahead.
func (t *Table) loadBlock(i int, ra ReadAhead) ([]byte, error) {
	if t.cache == nil {
		// No cache means no singleflight leader to retry for us; apply the
		// bounded retry here so transient blips do not fail the read.
		var out []byte
		err := cloud.DefaultRetry.Do(func() error {
			raw, err := t.store.GetRange(t.storeKey, int64(t.indexOffs[i]), int64(t.indexLens[i]))
			if err == nil {
				out, err = t.decode(raw, i)
			}
			return err
		})
		return out, err
	}
	return t.cache.GetOrFetch(t.cacheKeys[i], func() ([]byte, error) { return t.fetchRun(i, ra) })
}

// fetchRun is the cache-miss fetch of block i. It reads block i and the
// blocks after it that ra names with one GetRange, Puts the blocks after i
// and returns block i for GetOrFetch to insert. The run ends before the
// first block already cached or being fetched, and spans at most a quarter
// of the cache's capacity, so its blocks cannot push each other out. They
// are Put farthest first: the LRU then ages them out in the reverse of the
// order the caller reads them. A block after i that fails to decode is not
// cached; its own load reports it.
func (t *Table) fetchRun(i int, ra ReadAhead) ([]byte, error) {
	last := i
	if ra != nil {
		limit := t.maxRunEnd(i)
		last = t.trimRun(i, min(ra.RunEnd(i, limit), limit))
	}
	off := t.indexOffs[i]
	span, err := t.store.GetRange(t.storeKey, int64(off), int64(t.indexOffs[last]+t.indexLens[last]-off))
	if err != nil {
		return nil, err
	}
	if last == i {
		return t.decode(span, i)
	}
	for j := last; j > i; j-- {
		if blk, err := t.decodeFromSpan(span, off, j); err == nil {
			t.cache.Put(t.cacheKeys[j], blk)
		}
	}
	return t.decodeFromSpan(span, off, i)
}

// maxRunEnd is the last block a run from block i may reach: its stored
// bytes stay within a quarter of the cache's capacity.
func (t *Table) maxRunEnd(i int) int {
	budget := t.cache.Capacity()/4 - int64(t.indexLens[i])
	j := i
	for j+1 < len(t.indexLens) && budget >= int64(t.indexLens[j+1]) {
		j++
		budget -= int64(t.indexLens[j])
	}
	return j
}

// trimRun cuts the run (i, last] before its first block that is cached or
// in flight: that block costs the caller no GET of its own.
func (t *Table) trimRun(i, last int) int {
	for j := i + 1; j <= last; j++ {
		if t.cache.Contains(t.cacheKeys[j]) {
			return j - 1
		}
	}
	return max(last, i)
}

// decodeFromSpan decodes block j out of a multi-block span that starts at
// file offset off. A raw block is copied out to an exact-size slice, so the
// cached block does not pin its neighbours' bytes beyond the cache's
// accounting; an inflated block is a fresh slice already.
func (t *Table) decodeFromSpan(span []byte, off uint64, j int) ([]byte, error) {
	lo, hi := t.indexOffs[j]-off, t.indexOffs[j]+t.indexLens[j]-off
	if hi > uint64(len(span)) {
		return nil, fmt.Errorf("%w: %s: block %d: short read", ErrCorrupt, t.storeKey, j)
	}
	raw := span[lo:hi]
	blk, err := t.decode(raw, j)
	if err != nil || raw[0] != blockRaw {
		return blk, err
	}
	return append(make([]byte, 0, len(blk)), blk...), nil
}

// decode is decodeBlock with the table and block named in the error.
func (t *Table) decode(raw []byte, i int) ([]byte, error) {
	blk, err := decodeBlock(raw)
	if err != nil {
		return nil, fmt.Errorf("sstable: %s: block %d: %w", t.storeKey, i, err)
	}
	return blk, nil
}

// DropCached removes the table's decoded blocks from the cache. The owner
// of the last reference to an open table calls it when the table leaves the
// tree, so blocks of tables that compaction replaced or retention dropped do
// not sit in the cache until capacity pressure finds them.
func (t *Table) DropCached() {
	if t.cache != nil {
		t.cache.Invalidate(t.cacheKeys...)
	}
}

// BlockFor returns the index of the first block whose last key >= key, or
// the number of blocks if key is past the end: the block an Iter starting
// at key loads first, and the last block one ending at key loads.
func (t *Table) BlockFor(key []byte) int {
	lo, hi := 0, len(t.indexKeys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(t.indexKeys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the value stored under key. The returned slice aliases the
// decoded block (cache-resident when a cache is attached) and must be
// treated as read-only; cached blocks are immutable after insert (see
// cloud.LRUCache), so the alias stays valid for as long as it is
// referenced — the GC keeps even evicted blocks alive.
func (t *Table) Get(key []byte) ([]byte, bool, error) {
	if !bloomMayContain(t.bloom, key) {
		return nil, false, nil
	}
	bi := t.BlockFor(key)
	if bi >= len(t.indexKeys) {
		return nil, false, nil
	}
	blk, err := t.loadBlock(bi, nil)
	if err != nil {
		return nil, false, err
	}
	var it blockIter
	it.reset(blk)
	for it.next() {
		if c := bytes.Compare(it.key, key); c == 0 {
			return it.value, true, nil
		} else if c > 0 {
			return nil, false, nil
		}
	}
	return nil, false, it.err
}

var tableIterPool = sync.Pool{New: func() any { return new(TableIterator) }}

// Iter returns an iterator over keys in [start, end). A nil start begins at
// the first key; a nil end runs to the last. The iterator comes from a pool:
// call Release when done to recycle it (optional — an un-Released iterator
// is simply garbage collected).
func (t *Table) Iter(start, end []byte) *TableIterator {
	it := tableIterPool.Get().(*TableIterator)
	keyScratch := it.blk.key[:0]
	*it = TableIterator{t: t, end: end}
	it.blk.key = keyScratch
	if start != nil {
		it.nextBlock = t.BlockFor(start)
		it.skipTo = start
	}
	return it
}

// IterWhole fetches the whole table with a single store Get and returns an
// iterator over every entry, decoding blocks out of the fetched bytes. It is
// the read a compaction wants: each block exactly once, in order, for one
// request instead of one per block, and without touching the block cache (a
// one-pass scan would only push out blocks that queries are using). Values
// alias the decoded blocks, which belong to the caller. An object whose
// size differs from the size the table was opened with is a torn or
// replaced table and reads as ErrCorrupt. Like any iterator's, the scan's
// errors — the fetch's included — are reported by Err.
func (t *Table) IterWhole() *TableIterator {
	it := t.Iter(nil, nil)
	it.err = cloud.DefaultRetry.Do(func() error {
		var err error
		it.whole, err = t.store.Get(t.storeKey)
		return err
	})
	if it.err == nil && int64(len(it.whole)) != t.size {
		it.err = fmt.Errorf("%w: %s: object is %d bytes, table was %d", ErrCorrupt, t.storeKey, len(it.whole), t.size)
	}
	return it
}

// TableIterator iterates key-value pairs in order, loading blocks lazily.
// The block cursor is embedded by value and its key scratch is reused
// across blocks and across pooled scans, so a steady-state scan allocates
// nothing of its own.
type TableIterator struct {
	t         *Table
	whole     []byte // the table's bytes when set (IterWhole): blocks come from here
	ra        ReadAhead
	end       []byte
	nextBlock int
	blk       blockIter
	inBlk     bool
	skipTo    []byte
	err       error
	done      bool
}

// SetReadAhead makes the scan's cache misses fetch the blocks ra names
// along with the missing one. The iterator holds ra until Release.
func (it *TableIterator) SetReadAhead(ra ReadAhead) { it.ra = ra }

// loadBlock returns decoded block i: from the fetched table bytes of an
// IterWhole scan, through the table's cache and store otherwise.
func (it *TableIterator) loadBlock(i int) ([]byte, error) {
	if it.whole == nil {
		return it.t.loadBlock(i, it.ra)
	}
	off, n := it.t.indexOffs[i], it.t.indexLens[i]
	if off+n < off || off+n > uint64(len(it.whole)) {
		return nil, fmt.Errorf("%w: %s: block %d out of bounds", ErrCorrupt, it.t.storeKey, i)
	}
	return it.t.decode(it.whole[off:off+n], i)
}

// Next advances to the next entry.
func (it *TableIterator) Next() bool {
	if it.err != nil || it.done {
		return false
	}
	for {
		if !it.inBlk {
			if it.nextBlock >= len(it.t.indexKeys) {
				it.done = true
				return false
			}
			data, err := it.loadBlock(it.nextBlock)
			if err != nil {
				it.err = err
				return false
			}
			it.nextBlock++
			it.blk.reset(data)
			it.inBlk = true
		}
		for it.blk.next() {
			if it.skipTo != nil {
				if bytes.Compare(it.blk.key, it.skipTo) < 0 {
					continue
				}
				it.skipTo = nil
			}
			if it.end != nil && bytes.Compare(it.blk.key, it.end) >= 0 {
				it.done = true
				return false
			}
			return true
		}
		if it.blk.err != nil {
			it.err = it.blk.err
			return false
		}
		it.inBlk = false
	}
}

// Key returns the current key; valid until the next call to Next. The slice
// is the iterator's reused scratch — copy it (e.g. into a fixed-size
// encoding.Key) to retain it.
func (it *TableIterator) Key() []byte { return it.blk.key }

// Value returns the current value. The slice aliases the decoded block and
// must be treated as read-only; like Table.Get results it stays valid for
// as long as it is referenced (cached blocks are immutable after insert).
func (it *TableIterator) Value() []byte { return it.blk.value }

// Err returns the first error encountered.
func (it *TableIterator) Err() error { return it.err }

// Release returns the iterator to the pool. Neither the iterator nor the
// last Key slice may be used afterwards (Value slices stay valid — they
// alias the immutable block, not iterator state).
func (it *TableIterator) Release() {
	keyScratch := it.blk.key[:0]
	*it = TableIterator{}
	it.blk.key = keyScratch
	tableIterPool.Put(it)
}

// blockIter walks entries inside one data block.
type blockIter struct {
	d     encoding.Decbuf
	key   []byte
	value []byte
	err   error
}

// reset points the cursor at a new block, keeping the key scratch.
func (b *blockIter) reset(data []byte) {
	b.d = encoding.NewDecbuf(data)
	b.key = b.key[:0]
	b.value = nil
	b.err = nil
}

func (b *blockIter) next() bool {
	if b.err != nil || b.d.Len() == 0 {
		return false
	}
	shared := b.d.Uvarint()
	unshared := b.d.Uvarint()
	vlen := b.d.Uvarint()
	if b.d.Err() != nil {
		b.err = fmt.Errorf("sstable: corrupt block entry: %w", b.d.Err())
		return false
	}
	if shared > uint64(len(b.key)) {
		b.err = fmt.Errorf("sstable: corrupt block entry: shared prefix %d > key %d", shared, len(b.key))
		return false
	}
	b.key = append(b.key[:shared], b.d.Bytes(int(unshared))...)
	b.value = b.d.Bytes(int(vlen))
	if b.d.Err() != nil {
		b.err = fmt.Errorf("sstable: corrupt block entry: %w", b.d.Err())
		return false
	}
	return true
}
