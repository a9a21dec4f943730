// Package sstable implements the sorted-string-table file format shared by
// the time-partitioned LSM-tree and the classic LevelDB-style baseline
// (paper §2.3, §3.3): a sequence of ~4 KB data blocks with key prefix
// compression, an index block mapping each data block's last key to its
// offset, a bloom filter over all keys, and a fixed footer.
//
// The 16-byte TimeUnion key format (big-endian ID ‖ start timestamp) makes
// prefix compression collapse the shared ID bytes of consecutive chunks of
// one timeseries, which is the effect Figure 10 calls out.
//
// Each stored block carries a marker byte naming its codec, raw or
// DEFLATE, so one reader serves tables written either way. The writer
// chooses: the LSM writes its short-lived fast-tier tables (L0, L1) raw
// and DEFLATEs only L2, the data at rest on the slow tier; the goleveldb
// baseline DEFLATEs every table.
package sstable

import (
	"bytes"
	"compress/flate"
	"fmt"
	"hash/crc32"
	"sync"

	"timeunion/internal/encoding"
)

// DefaultBlockSize is the data block size target (paper Table 1: "data
// block size in SSTables, 4KB by default").
const DefaultBlockSize = 4096

// footerLen is the fixed footer size: index off/len (8+8), bloom off/len
// (8+8), numEntries (8), magic (8).
const footerLen = 48

// tableMagic identifies an SSTable.
const tableMagic = 0x545553535431 // "TUSST1"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Block compression markers: each stored block is prefixed by one byte.
const (
	blockRaw   = byte(0)
	blockFlate = byte(1)
)

// Writer builds an SSTable in memory. Keys must be added in strictly
// increasing order. By default data blocks are DEFLATE-compressed when
// that shrinks them (LevelDB compresses blocks with Snappy — paper Table 3
// credits this for TimeUnion's smaller data footprint; DEFLATE is the
// stdlib stand-in); DisableCompression writes them raw.
type Writer struct {
	blockSize  int
	noCompress bool

	buf          encoding.Buf // finished blocks
	block        encoding.Buf // current data block
	lastKey      []byte       // last key added overall
	firstKey     []byte
	blockEntries int

	// index entries: last key of each finished block + offset + length
	indexKeys [][]byte
	indexOffs []uint64
	indexLens []uint64

	keyHashes  []uint64 // for the bloom filter
	numEntries uint64
}

// NewWriter returns a writer with the given block size (0 = default).
func NewWriter(blockSize int) *Writer {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &Writer{blockSize: blockSize}
}

// DisableCompression writes every data block raw. The LSM calls it for
// its L0 and L1 tables: they are rewritten by the next compaction, and
// their Gorilla/XOR payloads are already near entropy, so DEFLATE would
// spend the background core's CPU, at flush and again at the compaction
// that reads them back, for 1–3 % of the bytes stored (DESIGN.md §2.1).
func (w *Writer) DisableCompression() { w.noCompress = true }

// NumEntries returns the number of key-value pairs added.
func (w *Writer) NumEntries() uint64 { return w.numEntries }

// EstimatedSize returns the bytes buffered so far.
func (w *Writer) EstimatedSize() int { return w.buf.Len() + w.block.Len() }

// FirstKey returns the smallest key added (nil before the first Add).
func (w *Writer) FirstKey() []byte { return w.firstKey }

// LastKey returns the largest key added (nil before the first Add).
func (w *Writer) LastKey() []byte { return w.lastKey }

// Add appends a key-value pair. Keys must arrive in strictly increasing
// order.
func (w *Writer) Add(key, value []byte) error {
	if w.lastKey != nil && bytes.Compare(key, w.lastKey) <= 0 {
		return fmt.Errorf("sstable: keys out of order: %x after %x", key, w.lastKey)
	}
	if w.firstKey == nil {
		w.firstKey = append([]byte(nil), key...)
	}
	// Prefix-compress against the previous key in the block.
	shared := 0
	if w.blockEntries > 0 {
		n := len(key)
		if len(w.lastKey) < n {
			n = len(w.lastKey)
		}
		for shared < n && key[shared] == w.lastKey[shared] {
			shared++
		}
	}
	w.block.PutUvarint(uint64(shared))
	w.block.PutUvarint(uint64(len(key) - shared))
	w.block.PutUvarint(uint64(len(value)))
	w.block.PutBytes(key[shared:])
	w.block.PutBytes(value)
	w.blockEntries++
	w.numEntries++
	w.lastKey = append(w.lastKey[:0], key...)
	w.keyHashes = append(w.keyHashes, bloomHash(key))
	if w.block.Len() >= w.blockSize {
		w.finishBlock()
	}
	return nil
}

func (w *Writer) finishBlock() {
	if w.blockEntries == 0 {
		return
	}
	off := uint64(w.buf.Len())
	// Stored form: marker byte + (possibly compressed) payload + CRC
	// trailer over the stored bytes.
	stored := w.block.Get()
	if w.noCompress {
		w.putStored(blockRaw, stored)
	} else {
		d := deflaterPool.Get().(*deflater)
		if comp := d.deflate(stored); comp != nil && len(comp) < len(stored) {
			w.putStored(blockFlate, comp) // copies comp out of the pooled buffer
		} else {
			w.putStored(blockRaw, stored)
		}
		deflaterPool.Put(d)
	}
	w.indexKeys = append(w.indexKeys, append([]byte(nil), w.lastKey...))
	w.indexOffs = append(w.indexOffs, off)
	w.indexLens = append(w.indexLens, uint64(w.buf.Len())-off)
	w.block.Reset()
	w.blockEntries = 0
}

// putStored appends one stored block to the table.
func (w *Writer) putStored(marker byte, stored []byte) {
	w.buf.PutByte(marker)
	w.buf.PutBytes(stored)
	w.buf.PutBE32(crc32.Checksum(stored, crcTable))
}

// deflater is pooled DEFLATE compressor state. A flate.Writer carries
// ~650 KB of hash tables and windows that flate.NewWriter allocates and
// zeroes; built per 4 KB block that was most of a table build's CPU.
// Reset returns the compressor to its just-constructed state, so pooled and
// fresh writers emit identical bytes (TestFormatPinned).
type deflater struct {
	fw  *flate.Writer
	buf bytes.Buffer
}

var deflaterPool = sync.Pool{New: func() any {
	d := new(deflater)
	// The only error NewWriter returns is an out-of-range level.
	d.fw, _ = flate.NewWriter(&d.buf, flate.DefaultCompression)
	return d
}}

// deflate compresses p at the default level, returning nil on error. The
// result aliases the deflater's buffer: valid until its next deflate, and
// not past the deflater's return to the pool.
func (d *deflater) deflate(p []byte) []byte {
	d.buf.Reset()
	d.fw.Reset(&d.buf)
	if _, err := d.fw.Write(p); err != nil {
		return nil
	}
	if err := d.fw.Close(); err != nil {
		return nil
	}
	return d.buf.Bytes()
}

// Finish completes the table and returns its bytes. The writer must not be
// reused afterwards.
func (w *Writer) Finish() ([]byte, error) {
	if w.numEntries == 0 {
		return nil, fmt.Errorf("sstable: finishing empty table")
	}
	w.finishBlock()

	// Index block.
	indexOff := uint64(w.buf.Len())
	var ib encoding.Buf
	ib.PutUvarint(uint64(len(w.indexKeys)))
	for i, k := range w.indexKeys {
		ib.PutUvarintBytes(k)
		ib.PutUvarint(w.indexOffs[i])
		ib.PutUvarint(w.indexLens[i])
	}
	w.buf.PutBytes(ib.Get())
	indexLen := uint64(w.buf.Len()) - indexOff

	// Bloom filter block.
	bloomOff := uint64(w.buf.Len())
	filter := buildBloom(w.keyHashes, 10)
	w.buf.PutBytes(filter)
	bloomLen := uint64(w.buf.Len()) - bloomOff

	// Footer.
	w.buf.PutBE64(indexOff)
	w.buf.PutBE64(indexLen)
	w.buf.PutBE64(bloomOff)
	w.buf.PutBE64(bloomLen)
	w.buf.PutBE64(w.numEntries)
	w.buf.PutBE64(tableMagic)
	return w.buf.Get(), nil
}

// --- bloom filter ---

func bloomHash(key []byte) uint64 {
	// FNV-1a 64.
	var h uint64 = 0xcbf29ce484222325
	for _, c := range key {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// buildBloom creates a bloom filter with bitsPerKey bits per key:
// [uvarint nBits][uvarint k][bitset]. Double hashing from the single
// 64-bit key hash.
func buildBloom(hashes []uint64, bitsPerKey int) []byte {
	nBits := len(hashes) * bitsPerKey
	if nBits < 64 {
		nBits = 64
	}
	k := 7 // ~0.7 * bitsPerKey rounded for 10 bits/key
	bits := make([]byte, (nBits+7)/8)
	for _, h := range hashes {
		delta := h>>33 | h<<31
		for i := 0; i < k; i++ {
			pos := h % uint64(nBits)
			bits[pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
	var b encoding.Buf
	b.PutUvarint(uint64(nBits))
	b.PutUvarint(uint64(k))
	b.PutBytes(bits)
	return b.Get()
}

// bloomMayContain tests a serialized filter.
func bloomMayContain(filter []byte, key []byte) bool {
	d := encoding.NewDecbuf(filter)
	nBits := d.Uvarint()
	k := d.Uvarint()
	bits := d.B
	if d.Err() != nil || nBits == 0 {
		return true // corrupt filter: fail open
	}
	h := bloomHash(key)
	delta := h>>33 | h<<31
	for i := uint64(0); i < k; i++ {
		pos := h % nBits
		if int(pos/8) >= len(bits) {
			return true
		}
		if bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}
