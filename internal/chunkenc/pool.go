package chunkenc

import (
	"math"
	"sync"
	"sync/atomic"
)

// This file holds the pooled read-path objects (DESIGN.md §4.10). The
// ownership contract, in one paragraph: Get* hands the caller exclusive
// ownership of a pooled object; calling Release returns it (and any pooled
// resources it owns, recursively) and ends the caller's right to touch it
// or anything previously returned by its At. Pooled iterators handed to a
// QueryIterator as sources transfer ownership to it — the owner must not
// Release them individually. Nothing here is safe for concurrent use of a
// single object; the pools themselves are safe for concurrent Get/Put.

// Releasable is implemented by pooled iterators that must be returned to
// their pool when the owner is done. See ReleaseIterator.
type Releasable interface {
	// Release returns the object and its pooled resources. The object must
	// not be used afterwards.
	Release()
}

// ReleaseIterator releases it if it is pooled and is a no-op otherwise, so
// owners can release heterogeneous source lists without type juggling.
func ReleaseIterator(it SampleIterator) {
	if r, ok := it.(Releasable); ok {
		r.Release()
	}
}

// --- SampleBuffer: pooled decoded-column scratch ---

// SampleBuffer holds one chunk's decoded samples as parallel columns. The
// batch decoders (decode.go) fill it; pooled iterators walk it with plain
// index arithmetic instead of per-sample decoder state.
type SampleBuffer struct {
	T []int64
	V []float64
}

var sampleBufPool = sync.Pool{New: func() any {
	return &SampleBuffer{T: make([]int64, 0, 64), V: make([]float64, 0, 64)}
}}

// GetSampleBuffer returns an empty pooled buffer. Return it with
// PutSampleBuffer when the decoded samples are no longer referenced.
func GetSampleBuffer() *SampleBuffer {
	b := sampleBufPool.Get().(*SampleBuffer)
	b.T, b.V = b.T[:0], b.V[:0]
	return b
}

// PutSampleBuffer returns b to the pool. The caller must not retain b.T or
// b.V afterwards: the next GetSampleBuffer may hand them to another query.
func PutSampleBuffer(b *SampleBuffer) {
	if b == nil {
		return
	}
	if poolPoison.Load() {
		for i := range b.T {
			b.T[i] = PoisonT
		}
		for i := range b.V {
			b.V[i] = PoisonV()
		}
	}
	sampleBufPool.Put(b)
}

// poolPoison makes PutSampleBuffer overwrite returned columns with sentinel
// values, so a use-after-Release read surfaces as an impossible sample
// instead of silently correct-looking data. Test hook; off in production.
var poolPoison atomic.Bool

// SetPoolPoison toggles poisoning of released sample buffers. Tests that
// assert no cross-query bleed-through enable it for the duration of the run.
func SetPoolPoison(on bool) { poolPoison.Store(on) }

// PoisonT is the timestamp sentinel written by poisoning; no workload
// produces it (reserved far below any real epoch).
const PoisonT int64 = math.MinInt64 + 0x5EED

// poisonVBits is a quiet NaN with a recognizable payload.
const poisonVBits uint64 = 0x7ff8_dead_beef_f00d

// PoisonV returns the value sentinel written by poisoning. Compare with
// IsPoisonV (NaN != NaN, so == never matches).
func PoisonV() float64 { return math.Float64frombits(poisonVBits) }

// IsPoisonV reports whether v is the poison sentinel bit pattern.
func IsPoisonV(v float64) bool { return math.Float64bits(v) == poisonVBits }

// --- ChunkIterator: pooled per-chunk batch-decoding iterator ---

// ChunkIterator is the pooled per-chunk iterator of the hot read path. It
// keeps the chunk's encoded payload and decodes the whole chunk in one
// batch pass into a pooled SampleBuffer the first time a sample inside
// [minT, maxT] is demanded; Next/Seek then walk the decoded columns, and
// Seek is a binary search instead of a linear forward decode. A Seek past
// maxT exhausts the iterator without ever decoding, so chunks whose time
// bounds miss the query window are never decoded (DESIGN.md §4.8).
//
// The payload slices are only read during the single decode call, so a
// ChunkIterator may alias cache-resident or memory-mapped bytes as long as
// they stay immutable and alive until Release (see sstable zero-copy reads).
type ChunkIterator struct {
	payload         []byte // series mode; nil selects group-slot mode
	timeCol, valCol []byte // group-slot mode
	minT, maxT      int64
	onDecode        func(bytes int)
	buf             *SampleBuffer
	i               int
	decoded         bool
	done            bool
	err             error
}

var chunkIterPool = sync.Pool{New: func() any { return new(ChunkIterator) }}

func getChunkIterator(minT, maxT int64, onDecode func(int)) *ChunkIterator {
	it := chunkIterPool.Get().(*ChunkIterator)
	*it = ChunkIterator{minT: minT, maxT: maxT, onDecode: onDecode, i: -1}
	return it
}

// GetSeriesChunkIterator returns a pooled iterator over an EncXOR payload
// with envelope time bounds [minT, maxT]. onDecode (optional) observes the
// payload size at the moment the chunk is actually decoded. The caller owns
// the iterator and must Release it (directly or via an owning merge).
func GetSeriesChunkIterator(payload []byte, minT, maxT int64, onDecode func(int)) *ChunkIterator {
	it := getChunkIterator(minT, maxT, onDecode)
	it.payload = payload
	return it
}

// GetGroupSlotChunkIterator returns a pooled iterator over one group
// member's samples given the tuple's encoded time column and the member's
// value column. Same ownership rules as GetSeriesChunkIterator.
func GetGroupSlotChunkIterator(timeCol, valCol []byte, minT, maxT int64, onDecode func(int)) *ChunkIterator {
	it := getChunkIterator(minT, maxT, onDecode)
	it.timeCol, it.valCol = timeCol, valCol
	return it
}

// decode batch-decodes the chunk into a pooled buffer. Helper (not a
// Next/Seek body) so its pool Get stays outside the allochot scope.
func (it *ChunkIterator) decode() bool {
	it.decoded = true
	it.buf = GetSampleBuffer()
	var err error
	if it.payload != nil {
		if it.onDecode != nil {
			it.onDecode(len(it.payload))
		}
		it.buf.T, it.buf.V, err = AppendXORSamples(it.buf.T, it.buf.V, it.payload)
	} else {
		if it.onDecode != nil {
			it.onDecode(len(it.timeCol) + len(it.valCol))
		}
		it.buf.T, it.buf.V, err = AppendGroupSlotSamples(it.buf.T, it.buf.V, it.timeCol, it.valCol)
	}
	if err != nil {
		it.err = err
		it.done = true
		return false
	}
	return true
}

// Next implements SampleIterator.
func (it *ChunkIterator) Next() bool {
	if it.done || it.err != nil {
		return false
	}
	if !it.decoded && !it.decode() {
		return false
	}
	it.i++
	if it.i >= len(it.buf.T) {
		it.done = true
		return false
	}
	return true
}

// Seek implements SampleIterator by binary search over the decoded
// timestamp column. A chunk entirely before t is never decoded.
func (it *ChunkIterator) Seek(t int64) bool {
	if it.done || it.err != nil {
		return false
	}
	if !it.decoded {
		if it.maxT < t {
			it.done = true // the whole chunk lies before t: never decode it
			return false
		}
		if !it.decode() {
			return false
		}
	}
	if it.i >= 0 && it.i < len(it.buf.T) && it.buf.T[it.i] >= t {
		return true // never move backwards
	}
	lo, hi := it.i+1, len(it.buf.T)
	if lo < 0 {
		lo = 0
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if it.buf.T[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	it.i = lo
	if it.i >= len(it.buf.T) {
		it.done = true
		return false
	}
	return true
}

// At implements SampleIterator.
func (it *ChunkIterator) At() (int64, float64) { return it.buf.T[it.i], it.buf.V[it.i] }

// Err implements SampleIterator.
func (it *ChunkIterator) Err() error { return it.err }

// Release implements Releasable: the decoded buffer and the iterator return
// to their pools, and the payload references are dropped (ending any alias
// of cache or mmap bytes).
func (it *ChunkIterator) Release() {
	if it.buf != nil {
		PutSampleBuffer(it.buf)
	}
	*it = ChunkIterator{}
	chunkIterPool.Put(it)
}

// --- BufferIterator: pooled iterator over an owned SampleBuffer ---

// BufferIterator walks a SampleBuffer it owns, clipped to [mint, maxt].
// The head uses it to serve queries out of samples decoded under the series
// lock: the buffer is private to the iterator, so no lock is held while the
// query drains it. Release returns buffer and iterator to their pools.
type BufferIterator struct {
	buf        *SampleBuffer
	i          int
	mint, maxt int64
	done       bool
}

var bufferIterPool = sync.Pool{New: func() any { return new(BufferIterator) }}

// GetBufferIterator returns a pooled iterator over buf clipped to
// [mint, maxt], taking ownership of buf (it is released with the iterator).
func GetBufferIterator(buf *SampleBuffer, mint, maxt int64) *BufferIterator {
	it := bufferIterPool.Get().(*BufferIterator)
	*it = BufferIterator{buf: buf, i: -1, mint: mint, maxt: maxt}
	return it
}

func (it *BufferIterator) seekIdx(t int64) {
	lo, hi := it.i+1, len(it.buf.T)
	if lo < 0 {
		lo = 0
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if it.buf.T[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	it.i = lo
}

// Next implements SampleIterator.
func (it *BufferIterator) Next() bool {
	if it.done {
		return false
	}
	if it.i < 0 {
		it.seekIdx(it.mint)
	} else {
		it.i++
	}
	if it.i >= len(it.buf.T) || it.buf.T[it.i] > it.maxt {
		it.done = true
		return false
	}
	return true
}

// Seek implements SampleIterator.
func (it *BufferIterator) Seek(t int64) bool {
	if it.done {
		return false
	}
	if t < it.mint {
		t = it.mint
	}
	if it.i < 0 || it.buf.T[it.i] < t {
		it.seekIdx(t)
	}
	if it.i >= len(it.buf.T) || it.buf.T[it.i] > it.maxt {
		it.done = true
		return false
	}
	return true
}

// At implements SampleIterator.
func (it *BufferIterator) At() (int64, float64) { return it.buf.T[it.i], it.buf.V[it.i] }

// Err implements SampleIterator.
func (it *BufferIterator) Err() error { return nil }

// Release implements Releasable.
func (it *BufferIterator) Release() {
	PutSampleBuffer(it.buf)
	*it = BufferIterator{}
	bufferIterPool.Put(it)
}

// --- QueryIterator: pooled merge + range clip + peek ---

// QueryIterator is the pooled per-series query stream: a deduplicating
// k-way merge over ranked sources, clipped to [mint, maxt], with a built-in
// one-sample peek so emptiness probes don't need a wrapper allocation: one
// pooled object per series where a merge, a range clip and a peek wrapper
// would cost three allocations.
//
// The QueryIterator owns its sources: Release cascades to every pooled
// source (ChunkIterator, BufferIterator, ...), so callers hand sources over
// and release only the QueryIterator.
type QueryIterator struct {
	m          MergeIterator
	mint, maxt int64
	started    bool
	done       bool
	bt         int64
	bv         float64
	buffered   bool // bt/bv hold a probed sample not yet emitted
	pos        bool // bt/bv hold the emitted current sample
}

var queryIterPool = sync.Pool{New: func() any { return new(QueryIterator) }}

// GetQueryIterator returns a pooled merged stream over sources clipped to
// [mint, maxt], taking ownership of every source iterator. The sources
// slice itself is not retained. Release when the query is done with it.
func GetQueryIterator(sources []RankedIterator, mint, maxt int64) *QueryIterator {
	q := queryIterPool.Get().(*QueryIterator)
	q.m.reset(sources)
	q.mint, q.maxt = mint, maxt
	q.started, q.done = false, false
	q.buffered, q.pos = false, false
	q.bt, q.bv = 0, 0
	return q
}

// PeekNonEmpty reports whether the stream has at least one sample, decoding
// at most up to the first one. The probed sample (if any) is buffered and
// replayed by the next Next, so the stream is observationally untouched.
func (q *QueryIterator) PeekNonEmpty() bool {
	if q.buffered || q.pos {
		return true
	}
	if !q.Next() {
		return false
	}
	q.buffered, q.pos = true, false
	return true
}

// Next implements SampleIterator.
func (q *QueryIterator) Next() bool {
	if q.done {
		return false
	}
	if q.buffered {
		q.buffered, q.pos = false, true
		return true
	}
	var ok bool
	if !q.started {
		q.started = true
		ok = q.m.Seek(q.mint)
	} else {
		ok = q.m.Next()
	}
	if !ok {
		q.done = true
		return false
	}
	t, v := q.m.At()
	if t > q.maxt {
		q.done = true
		return false
	}
	q.bt, q.bv = t, v
	q.pos = true
	return true
}

// Seek implements SampleIterator.
func (q *QueryIterator) Seek(t int64) bool {
	if q.done {
		return false
	}
	if t < q.mint {
		t = q.mint
	}
	if (q.buffered || q.pos) && q.bt >= t {
		q.buffered, q.pos = false, true
		return true
	}
	q.started = true
	q.buffered = false
	if !q.m.Seek(t) {
		q.done = true
		return false
	}
	tt, vv := q.m.At()
	if tt > q.maxt {
		q.done = true
		return false
	}
	q.bt, q.bv = tt, vv
	q.pos = true
	return true
}

// At implements SampleIterator.
func (q *QueryIterator) At() (int64, float64) { return q.bt, q.bv }

// Err implements SampleIterator.
func (q *QueryIterator) Err() error { return q.m.Err() }

// Release implements Releasable: every owned source is released, then the
// QueryIterator returns to its pool.
func (q *QueryIterator) Release() {
	q.m.releaseSources()
	queryIterPool.Put(q)
}
