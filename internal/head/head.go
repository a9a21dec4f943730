// Package head implements TimeUnion's in-memory layer (paper §3.1-3.2):
// the memory objects of individual timeseries and timeseries groups, the
// small (32-sample) in-flight compressed chunks stored in memory-mapped
// file arrays, the single global inverted index, and the per-series
// sequence IDs that drive the logging scheme.
//
// The head does not own the LSM-tree: finished chunks are handed to a
// ChunkSink (wired to lsm.Put by the database layer), which keeps the two
// halves independently testable.
//
// # Concurrency
//
// The head is safe for concurrent use and designed so fast-path appends
// from many goroutines do not serialize on one lock:
//
//   - The series/group maps are sharded into numStripes lock stripes by id
//     hash; an AppendFast only takes its stripe's read lock to resolve the
//     id, then the series' own append mutex.
//   - Every MemSeries and MemGroup carries its own mutex guarding its
//     sequence number, open chunk, and latest timestamp, so appends to
//     different objects proceed in parallel.
//   - Name→id resolution and id allocation (series/group creation — the
//     slow path) go through a single catalog lock; the inverted index has
//     its own internal mutex and is only touched on that slow path and
//     during purges.
//
// Lock ordering is catalog → stripe → object; the WAL, the mmap slot
// arrays, and the chunk sink are internally synchronized.
package head

import (
	"fmt"
	"sync"
	"sync/atomic"

	"timeunion/internal/chunkenc"
	"timeunion/internal/encoding"
	"timeunion/internal/index"
	"timeunion/internal/labels"
	"timeunion/internal/obs"
	"timeunion/internal/tuple"
	"timeunion/internal/wal"
	"timeunion/internal/xmmap"
)

// ChunkSink receives a finished chunk for persistence.
type ChunkSink func(key encoding.Key, value []byte) error

// Options configures the head.
type Options struct {
	// ChunkSamples is the number of samples batched per in-memory chunk
	// before flushing to the LSM (paper: 32; adjustable for the
	// compression-vs-memory trade-off, §3.2).
	ChunkSamples int
	// Dir holds the mmap region files for the index trie and chunk
	// arrays; empty means heap-backed.
	Dir string
	// SlotSize is the fixed chunk slot size in the mmap arrays.
	SlotSize int
	// SlotsPerRegion is the slots per mmap region file.
	SlotsPerRegion int
	// WAL, if non-nil, receives definition/sample/flush-mark records.
	WAL *wal.WAL
	// Sink receives finished chunks. Required.
	Sink ChunkSink
	// Metrics, when non-nil, receives the head's instruments
	// (timeunion_head_*).
	Metrics *obs.Registry
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.ChunkSamples <= 0 {
		opts.ChunkSamples = chunkenc.DefaultChunkSamples
	}
	if opts.SlotSize <= 0 {
		opts.SlotSize = 1024
	}
	if opts.SlotsPerRegion <= 0 {
		opts.SlotsPerRegion = 4096
	}
	return opts
}

// MemSeries is the memory object of one individual timeseries: its tags,
// per-series sequence ID, and the current in-flight chunk.
type MemSeries struct {
	ID     uint64
	Labels labels.Labels

	// mu guards everything below; appends to different series only
	// contend on their stripe's read lock.
	mu    sync.Mutex
	seq   uint64
	lastT int64
	haveT bool

	chunk   *chunkenc.XORChunk
	slotRef xmmap.Ref
}

// numStripes is the number of lock stripes sharding the series/group maps
// (power of two so the stripe index is a shift).
const (
	numStripes  = 32
	stripeShift = 5 // log2(numStripes)
)

// stripe is one shard of the series/group maps with its own lock.
type stripe struct {
	mu     sync.RWMutex
	series map[uint64]*MemSeries
	groups map[uint64]*MemGroup
}

// catalog is the slow-path name→id state: tag-key lookup tables and the id
// allocators. Fast-path appends never touch it.
type catalog struct {
	mu         sync.RWMutex
	byKey      map[string]uint64
	groupByKey map[string]uint64
	nextSeries uint64
	nextGroup  uint64
}

// Head is the in-memory layer. Safe for concurrent use.
type Head struct {
	opts Options

	idx *index.Index
	cat catalog
	// strs interns the tag strings of every series, group and member
	// definition, however it arrives (append, WAL replay, catalog refresh).
	strs labels.Interner

	stripes [numStripes]stripe

	chunkSlots     *xmmap.SlotArray // individual series chunks (Figure 9 left)
	groupTimeSlots *xmmap.SlotArray // group shared timestamp chunks
	groupValSlots  *xmmap.SlotArray // group member value chunks

	// recoverDropped counts WAL records skipped during recovery because
	// their series/group definition did not survive the crash (the write
	// was never acknowledged, so dropping it is correct).
	recoverDropped atomic.Uint64

	// Instruments (nil without a registry; nil is a no-op).
	mSeriesFlushed *obs.Counter
	mGroupFlushed  *obs.Counter
	mEarlyFlushed  *obs.Counter
	mOOORewrites   *obs.Counter
}

// RecoveryDropped returns how many unacknowledged orphan WAL records the
// last Recover skipped.
func (h *Head) RecoveryDropped() uint64 { return h.recoverDropped.Load() }

// stripeFor hashes an id onto its stripe. Fibonacci hashing spreads both
// sequential series ids and flag-bearing group ids.
func (h *Head) stripeFor(id uint64) *stripe {
	return &h.stripes[(id*0x9E3779B97F4A7C15)>>(64-stripeShift)]
}

// New creates an empty head.
func New(opts Options) (*Head, error) {
	o := opts.withDefaults()
	if o.Sink == nil {
		return nil, fmt.Errorf("head: Sink is required")
	}
	idx, err := index.New(index.Options{Dir: subdir(o.Dir, "index"), SlotsPerRegion: o.SlotsPerRegion})
	if err != nil {
		return nil, err
	}
	h := &Head{opts: o, idx: idx}
	h.cat.byKey = make(map[string]uint64)
	h.cat.groupByKey = make(map[string]uint64)
	for i := range h.stripes {
		h.stripes[i].series = make(map[uint64]*MemSeries)
		h.stripes[i].groups = make(map[uint64]*MemGroup)
	}
	arrays := []struct {
		name string
		dst  **xmmap.SlotArray
	}{
		{"chunks", &h.chunkSlots},
		{"group-times", &h.groupTimeSlots},
		{"group-values", &h.groupValSlots},
	}
	for _, a := range arrays {
		sa, err := xmmap.OpenSlotArray(subdir(o.Dir, a.name), a.name, o.SlotSize, o.SlotsPerRegion)
		if err != nil {
			h.Close()
			return nil, err
		}
		// Slots persisted by a previous process are orphans: open chunks
		// are rebuilt from the WAL, which allocates fresh slots.
		sa.Reset()
		*a.dst = sa
	}
	if reg := o.Metrics; reg != nil {
		h.mSeriesFlushed = reg.Counter("timeunion_head_chunks_flushed_total", `kind="series"`, "Full chunks handed to the sink.")
		h.mGroupFlushed = reg.Counter("timeunion_head_chunks_flushed_total", `kind="group"`, "Full chunks handed to the sink.")
		h.mEarlyFlushed = reg.Counter("timeunion_head_early_flushes_total", "", "Out-of-order samples early-flushed past the open chunk straight into the tree.")
		h.mOOORewrites = reg.Counter("timeunion_head_ooo_rewrites_total", "", "Open-chunk rewrites absorbing an out-of-order sample.")
		reg.GaugeFunc("timeunion_head_series", "", "Live individual series.",
			func() float64 { return float64(h.NumSeries()) })
		reg.GaugeFunc("timeunion_head_groups", "", "Live groups.",
			func() float64 { return float64(h.NumGroups()) })
		reg.GaugeFunc("timeunion_head_memory_bytes", "", "Accounted in-memory footprint of the head.",
			func() float64 { return float64(h.Footprint().Total()) })
		reg.CounterFunc("timeunion_head_recovery_dropped_total", "", "Orphan WAL records skipped by the last recovery.",
			func() float64 { return float64(h.RecoveryDropped()) })
	}
	return h, nil
}

func subdir(dir, name string) string {
	if dir == "" {
		return ""
	}
	return dir + "/" + name
}

// Close releases the index and chunk arrays.
func (h *Head) Close() error {
	var firstErr error
	if h.idx != nil {
		if err := h.idx.Close(); err != nil {
			firstErr = err
		}
	}
	for _, sa := range []*xmmap.SlotArray{h.chunkSlots, h.groupTimeSlots, h.groupValSlots} {
		if sa != nil {
			if err := sa.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Index exposes the global inverted index for query planning.
func (h *Head) Index() *index.Index { return h.idx }

// allocChunkBuf allocates a slot and returns a zero-length byte slice whose
// capacity is the slot, so the Gorilla bit writer appends straight into the
// memory-mapped area. If the slot array fails, a heap buffer keeps the
// write path alive (accounting degrades, correctness does not).
func allocChunkBuf(sa *xmmap.SlotArray) (xmmap.Ref, []byte) {
	ref, buf, err := sa.Alloc()
	if err != nil {
		return xmmap.NilRef, make([]byte, 0, sa.SlotSize())
	}
	return ref, buf[:0]
}

func freeChunkBuf(sa *xmmap.SlotArray, ref xmmap.Ref) {
	if ref != xmmap.NilRef {
		// A double free cannot happen (refs are single-owner); an error
		// here means accounting drift at worst.
		_ = sa.Free(ref)
	}
}

// Append inserts one sample for the timeseries identified by its full tag
// set (the slow-path API of §3.4), creating the series on first sight. It
// returns the series ID for subsequent fast-path appends.
func (h *Head) Append(ls labels.Labels, t int64, v float64) (uint64, error) {
	s, err := h.getOrCreateSeries(ls)
	if err != nil {
		return 0, err
	}
	return s.ID, h.commit(h.appendSeries(s, t, v))
}

// AppendFast inserts one sample by series ID (the fast-path API of §3.4,
// saving the tag comparison cost): a batch of one, validated and logged as
// AppendBatch does.
func (h *Head) AppendFast(id uint64, t int64, v float64) error {
	s, err := h.resolveSeries(id)
	if err != nil {
		return err
	}
	return h.commit(h.appendSeries(s, t, v))
}

// commit commits the staged WAL entries, the caller's among them, even
// after a failed apply so the log holds what the head applied. It returns
// err, or the commit's error if err is nil.
func (h *Head) commit(err error) error {
	if w := h.opts.WAL; w != nil {
		if cerr := w.Commit(); err == nil {
			err = cerr
		}
	}
	return err
}

// lookupSeries resolves a series id through its stripe.
func (h *Head) lookupSeries(id uint64) (*MemSeries, bool) {
	st := h.stripeFor(id)
	st.mu.RLock()
	s, ok := st.series[id]
	st.mu.RUnlock()
	return s, ok
}

// getOrCreateSeries finds or registers a series by tags. Lookup of known
// series only takes the catalog read lock; creation takes the write lock.
func (h *Head) getOrCreateSeries(ls labels.Labels) (*MemSeries, error) {
	key := ls.Key()
	h.cat.mu.RLock()
	id, ok := h.cat.byKey[key]
	h.cat.mu.RUnlock()
	if ok {
		if s, ok := h.lookupSeries(id); ok {
			return s, nil
		}
		// Purged between the catalog read and the stripe read; fall
		// through to the consistent slow path.
	}
	h.cat.mu.Lock()
	defer h.cat.mu.Unlock()
	if id, ok := h.cat.byKey[key]; ok {
		// Catalog and stripes mutate together under the catalog write
		// lock, so this lookup cannot miss.
		s, _ := h.lookupSeries(id)
		return s, nil
	}
	h.cat.nextSeries++
	id = h.cat.nextSeries
	if h.opts.WAL != nil {
		if err := h.opts.WAL.LogSeries(id, ls); err != nil {
			return nil, err
		}
	}
	return h.installSeriesLocked(id, ls)
}

// appendSeries is the individual-series write path (§3.1 physical view):
// under s.mu, so per series WAL order equals sequence order, it stages the
// sample in the pending WAL record, which the caller commits, and ingests
// it.
func (h *Head) appendSeries(s *MemSeries, t int64, v float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	if w := h.opts.WAL; w != nil {
		if err := w.StageSample(s.ID, s.seq, t, v); err != nil {
			return err
		}
	}
	return h.ingestLocked(s, t, v)
}

// ingestLocked applies a sample without logging (also used by recovery).
// The caller holds s.mu; the slot arrays and sink are internally
// synchronized.
func (h *Head) ingestLocked(s *MemSeries, t int64, v float64) error {
	switch {
	case s.chunk == nil || s.chunk.NumSamples() == 0:
		if s.chunk == nil {
			ref, buf := allocChunkBuf(h.chunkSlots)
			s.slotRef = ref
			s.chunk = chunkenc.NewXORChunkInto(buf)
		}
		if err := s.chunk.Append(t, v); err != nil {
			return err
		}
	case t > s.chunk.MaxTime():
		if err := s.chunk.Append(t, v); err != nil {
			return err
		}
	case t >= s.chunk.MinTime():
		// Out-of-order within the open chunk (§3.1 case 4): locate the
		// slot and replace or insert by rewriting the small chunk.
		samples, err := chunkenc.DecodeXORSamples(s.chunk.Bytes())
		if err != nil {
			return err
		}
		merged := chunkenc.MergeSamples(samples, []chunkenc.Sample{{T: t, V: v}})
		h.mOOORewrites.Inc()
		h.resetSeriesChunkLocked(s)
		ref, buf := allocChunkBuf(h.chunkSlots)
		s.slotRef = ref
		s.chunk = chunkenc.NewXORChunkInto(buf)
		for _, sm := range merged {
			if err := s.chunk.Append(sm.T, sm.V); err != nil {
				return err
			}
		}
	default:
		// Older than the open chunk: early-flush a single-sample chunk
		// straight into the time-partitioned tree, which routes it to the
		// matching (possibly stale) time partition.
		enc, err := chunkenc.EncodeXORSamples([]chunkenc.Sample{{T: t, V: v}})
		if err != nil {
			return err
		}
		h.mEarlyFlushed.Inc()
		return h.opts.Sink(encoding.MakeKey(s.ID, t), tuple.Encode(s.seq, tuple.KindSeries, t, t, enc))
	}
	if !s.haveT || t > s.lastT {
		s.lastT = t
		s.haveT = true
	}
	if s.chunk.NumSamples() >= h.opts.ChunkSamples {
		return h.flushSeriesChunkLocked(s)
	}
	return nil
}

// flushSeriesChunkLocked serializes the full chunk, hands it to the sink,
// and cleans the mmap slot (§3.2: "when the current chunk is full, it will
// be serialized ... and the corresponding area of the mmap file will be
// cleaned"). The caller holds s.mu.
func (h *Head) flushSeriesChunkLocked(s *MemSeries) error {
	payload := append([]byte(nil), s.chunk.Bytes()...)
	key := encoding.MakeKey(s.ID, s.chunk.MinTime())
	if err := h.opts.Sink(key, tuple.Encode(s.seq, tuple.KindSeries, s.chunk.MinTime(), s.chunk.MaxTime(), payload)); err != nil {
		return err
	}
	h.mSeriesFlushed.Inc()
	h.resetSeriesChunkLocked(s)
	return nil
}

func (h *Head) resetSeriesChunkLocked(s *MemSeries) {
	freeChunkBuf(h.chunkSlots, s.slotRef)
	s.slotRef = xmmap.NilRef
	s.chunk = nil
}

// FlushOpenChunks force-flushes every non-empty open chunk (shutdown path;
// during normal operation chunks flush when full).
func (h *Head) FlushOpenChunks() error {
	for i := range h.stripes {
		st := &h.stripes[i]
		st.mu.RLock()
		series := make([]*MemSeries, 0, len(st.series))
		for _, s := range st.series {
			series = append(series, s)
		}
		groups := make([]*MemGroup, 0, len(st.groups))
		for _, g := range st.groups {
			groups = append(groups, g)
		}
		st.mu.RUnlock()
		for _, s := range series {
			s.mu.Lock()
			var err error
			if s.chunk != nil && s.chunk.NumSamples() > 0 {
				err = h.flushSeriesChunkLocked(s)
			}
			s.mu.Unlock()
			if err != nil {
				return err
			}
		}
		for _, g := range groups {
			g.mu.Lock()
			var err error
			if g.cur != nil && g.cur.numTimes > 0 {
				err = h.flushGroupChunkLocked(g)
			}
			g.mu.Unlock()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// OnFlush is the LSM flush hook: it writes one flush's WAL flush marks,
// each the highest sequence embedded in a series' or group's flushed
// chunks (paper §3.3 "Logging").
func (h *Head) OnFlush(marks []wal.FlushMark) {
	if h.opts.WAL == nil {
		return
	}
	// Best effort: failed marks only delay purging.
	_ = h.opts.WAL.LogFlushMarks(marks)
}

// SeriesLabels returns the tags of a series (immutable after creation).
func (h *Head) SeriesLabels(id uint64) (labels.Labels, bool) {
	s, ok := h.lookupSeries(id)
	if !ok {
		return nil, false
	}
	return s.Labels, true
}

// NumSeries returns the number of live individual series.
func (h *Head) NumSeries() int {
	n := 0
	for i := range h.stripes {
		st := &h.stripes[i]
		st.mu.RLock()
		n += len(st.series)
		st.mu.RUnlock()
	}
	return n
}

// NumGroups returns the number of live groups.
func (h *Head) NumGroups() int {
	n := 0
	for i := range h.stripes {
		st := &h.stripes[i]
		st.mu.RLock()
		n += len(st.groups)
		st.mu.RUnlock()
	}
	return n
}

// HeadSamples returns the open-chunk samples of a series overlapping
// [mint, maxt]. The LSM holds everything else.
func (h *Head) HeadSamples(id uint64, mint, maxt int64) ([]chunkenc.Sample, error) {
	s, ok := h.lookupSeries(id)
	if !ok {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.chunk == nil || s.chunk.NumSamples() == 0 {
		return nil, nil
	}
	all, err := chunkenc.DecodeXORSamples(s.chunk.Bytes())
	if err != nil {
		return nil, err
	}
	var out []chunkenc.Sample
	for _, sm := range all {
		if sm.T >= mint && sm.T <= maxt {
			out = append(out, sm)
		}
	}
	return out, nil
}

// HeadIterator streams the open chunk's samples in [mint, maxt] for the
// streaming read path. The chunk is batch-decoded under the series lock
// into a pooled sample buffer owned by the returned iterator — the
// compressed bytes (which may live in a memory-mapped slot) never escape
// the lock, and draining the iterator touches no shared state. Returns nil
// when the series is missing or its open chunk has no samples in range, so
// callers can skip the merge source entirely. Release the iterator
// (chunkenc.ReleaseIterator) to recycle the buffer.
func (h *Head) HeadIterator(id uint64, mint, maxt int64) chunkenc.SampleIterator {
	s, ok := h.lookupSeries(id)
	if !ok {
		return nil
	}
	s.mu.Lock()
	if s.chunk == nil || s.chunk.NumSamples() == 0 {
		s.mu.Unlock()
		return nil
	}
	if s.chunk.MaxTime() < mint || s.chunk.MinTime() > maxt {
		s.mu.Unlock()
		return nil
	}
	buf := chunkenc.GetSampleBuffer()
	var err error
	buf.T, buf.V, err = chunkenc.AppendXORSamples(buf.T, buf.V, s.chunk.Bytes())
	s.mu.Unlock()
	if err != nil {
		chunkenc.PutSampleBuffer(buf)
		return chunkenc.ErrIterator(err)
	}
	return chunkenc.GetBufferIterator(buf, mint, maxt)
}

// HeadSeq returns the series' current sequence ID (used by tests and the
// database layer's flush bookkeeping).
func (h *Head) HeadSeq(id uint64) uint64 {
	if s, ok := h.lookupSeries(id); ok {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.seq
	}
	if g, ok := h.lookupGroup(id); ok {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.seq
	}
	return 0
}

// PurgeBefore removes memory objects whose newest sample is older than the
// retention watermark (§3.3 "Data retention": "we record the timestamp of
// the latest data sample for each timeseries in its memory object, and we
// will purge those objects that are older than the retention timestamp").
func (h *Head) PurgeBefore(watermark int64) int {
	// Catalog → stripe → object, the global lock order: holding the
	// catalog write lock keeps byKey and the stripes mutating together.
	h.cat.mu.Lock()
	defer h.cat.mu.Unlock()
	purged := 0
	for i := range h.stripes {
		st := &h.stripes[i]
		st.mu.Lock()
		for id, s := range st.series {
			s.mu.Lock()
			if s.haveT && s.lastT < watermark {
				h.idx.Remove(id, s.Labels)
				h.resetSeriesChunkLocked(s)
				delete(st.series, id)
				delete(h.cat.byKey, s.Labels.Key())
				purged++
			}
			s.mu.Unlock()
		}
		for gid, g := range st.groups {
			g.mu.Lock()
			if g.haveT && g.lastT < watermark {
				h.removeGroupLocked(st, gid, g)
				purged++
			}
			g.mu.Unlock()
		}
		st.mu.Unlock()
	}
	if purged > 0 {
		h.strs.Forget()
	}
	return purged
}

// MemoryFootprint is the accounted in-memory size of the head, the
// quantity the Figure 3/16 and Table 3 experiments compare across engines.
type MemoryFootprint struct {
	IndexBytes     int64 // trie (mmap) + postings
	TagBytes       int64 // tag strings of all memory objects
	ChunkSlotBytes int64 // touched bytes of the mmap chunk arrays
	ObjectBytes    int64 // fixed per-object overhead estimate
}

// Total sums all components.
func (m MemoryFootprint) Total() int64 {
	return m.IndexBytes + m.TagBytes + m.ChunkSlotBytes + m.ObjectBytes
}

// Footprint returns the current accounting.
func (h *Head) Footprint() MemoryFootprint {
	var f MemoryFootprint
	st := h.idx.Stats()
	f.IndexBytes = st.SizeBytes()
	for i := range h.stripes {
		sp := &h.stripes[i]
		sp.mu.RLock()
		for _, s := range sp.series {
			f.TagBytes += int64(s.Labels.SizeBytes())
			f.ObjectBytes += 96
		}
		for _, g := range sp.groups {
			g.mu.Lock()
			f.TagBytes += int64(g.GroupTags.SizeBytes())
			for _, m := range g.members {
				f.TagBytes += int64(m.unique.SizeBytes())
				f.ObjectBytes += 48
			}
			g.mu.Unlock()
			f.ObjectBytes += 128
		}
		sp.mu.RUnlock()
	}
	f.ChunkSlotBytes = h.chunkSlots.UsedBytes() + h.groupTimeSlots.UsedBytes() + h.groupValSlots.UsedBytes()
	return f
}
