// Package lsm implements TimeUnion's elastic time-partitioned LSM-tree
// (paper §3.3). The tree keeps exactly three levels on two storage tiers:
//
//   - Level 0 and level 1 hold recent data on the fast block store. SSTables
//     are partitioned by time windows (30 minutes initially); an L0→L1
//     compaction merges the oldest L0 partition with overlapping L1
//     partitions and gathers each series' chunks contiguously.
//   - Level 2 is the only level on the slow object store. An L1→L2
//     compaction sort-merges the oldest level-1 partitions into one larger
//     partition (2 hours initially) and uploads it; because timeseries data
//     is almost entirely time-ordered, level 2 never participates in
//     ordinary compactions, which eliminates the read-merge-rewrite traffic
//     a traditional multi-level LSM pays on the slow tier (Equations 8-10).
//
// Out-of-order data lands in the time partition it belongs to: stale L0
// partitions merge with overlapping L1 partitions on the fast tier, and
// stale L1→L2 compactions append *patches* to the overlapped level-2
// SSTables, routed by each SSTable's ID range, with a split-merge once a
// table accumulates more than a threshold of patches (Figure 11).
//
// The fast-store footprint adapts to a budget by halving/doubling the
// partition lengths (Algorithm 1), with partition splitting and aligning
// during compaction (Figure 12).
package lsm

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"timeunion/internal/cloud"
	"timeunion/internal/encoding"
	"timeunion/internal/memtable"
	"timeunion/internal/obs"
	"timeunion/internal/sstable"
	"timeunion/internal/tuple"
	"timeunion/internal/wal"
)

// maxImmQueue bounds the immutable memtable queue: Put blocks while it is
// full, so a flush that falls behind applies back-pressure instead of
// growing memory without bound.
const maxImmQueue = 4

// Options configures the tree. Times are in the same unit as sample
// timestamps (milliseconds in the TSBS workloads).
type Options struct {
	// Fast is the block-store tier holding levels 0 and 1.
	Fast cloud.Store
	// Slow is the object-store tier holding level 2. It may equal Fast
	// (the EBS-only configuration of Figure 17).
	Slow cloud.Store
	// Cache is the shared cache of decoded table blocks, both tiers; may be
	// nil. Compaction reads bypass it (DESIGN.md §2.1).
	Cache *cloud.LRUCache

	// MemTableSize rotates the active memtable when its payload exceeds
	// this size (LevelDB uses 64 MB; scaled runs use less).
	MemTableSize int64

	// L0PartitionLength is the initial L0/L1 time partition length R1.
	L0PartitionLength int64
	// L2PartitionLength is the initial L2 time partition length R2.
	L2PartitionLength int64
	// PartitionLengthLowerBound is Algorithm 1's LB.
	PartitionLengthLowerBound int64
	// MaxL0Partitions triggers L0→L1 compaction when exceeded (paper: 2).
	MaxL0Partitions int
	// PatchThreshold triggers an L2 split-merge when one SSTable
	// accumulates more than this many patches (paper: 3).
	PatchThreshold int
	// TargetTableSize splits compaction output tables (soft bound).
	TargetTableSize int
	// BlockSize is the SSTable data block size (default 4 KB).
	BlockSize int

	// FastLimit is the fast-store usage budget ST. A budget > 0 runs
	// Algorithm 1 after every flush and compaction; 0 means unlimited, and
	// the partition lengths stay fixed.
	FastLimit int64

	// CompactionWorkers sizes the executor pool running compaction jobs
	// (default 2). Jobs over disjoint time intervals run concurrently,
	// each committing its own manifest edit.
	CompactionWorkers int

	// ReadOnly opens the tree as a shared-storage read replica: no flush
	// or compaction workers, no writer-side recovery (quarantine, GC,
	// fresh manifest commit), and every mutating operation returns
	// ErrReadOnly. The view is loaded from the newest committed manifest
	// pair and advanced by Refresh, which the caller drives: the database
	// layer polls, so it can reload the series catalog in the same beat
	// (DESIGN.md §4.13).
	ReadOnly bool

	// OnFlush, if set, is called once per flush to level 0, after its
	// manifest commit, with one mark per flushed series or group: the
	// highest sequence embedded in its flushed chunks. It is the hook the
	// WAL uses to write flush marks.
	OnFlush func(marks []wal.FlushMark)

	// Metrics, when non-nil, receives the tree's instruments
	// (timeunion_lsm_*).
	Metrics *obs.Registry

	// Journal, when non-nil, receives one obs.Event per background
	// operation: flush publish, both compaction levels, retention, patch
	// merge, executor job lifecycle, manifest commit, recovery and
	// quarantine (DESIGN.md §4.12). Nil disables journaling at zero cost.
	Journal *obs.Journal
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.MemTableSize <= 0 {
		opts.MemTableSize = 4 << 20
	}
	if opts.L0PartitionLength <= 0 {
		opts.L0PartitionLength = 30 * 60 * 1000 // 30 minutes
	}
	if opts.L2PartitionLength <= 0 {
		opts.L2PartitionLength = 4 * opts.L0PartitionLength
	}
	if opts.PartitionLengthLowerBound <= 0 {
		opts.PartitionLengthLowerBound = opts.L0PartitionLength / 16
		if opts.PartitionLengthLowerBound <= 0 {
			opts.PartitionLengthLowerBound = 1
		}
	}
	if opts.MaxL0Partitions <= 0 {
		opts.MaxL0Partitions = 2
	}
	if opts.PatchThreshold <= 0 {
		opts.PatchThreshold = 3
	}
	if opts.TargetTableSize <= 0 {
		opts.TargetTableSize = 2 << 20
	}
	if opts.CompactionWorkers <= 0 {
		opts.CompactionWorkers = 2
	}
	return opts
}

// tableHandle is a reference-counted open SSTable. The tree holds one
// reference; queries retain/release around reads so compaction can delete
// replaced objects without pulling them out from under a reader.
type tableHandle struct {
	tbl      *sstable.Table
	store    cloud.Store
	storeKey string
	seq      uint64      // creation sequence: larger = newer data on conflicts
	book     *objectBook // the owning tree's, told when the object is deleted
	// firstID and lastID bound the series ids the table holds, read from
	// its key bounds once: queries skip tables that cannot hold their id
	// and patch routing picks base tables without re-parsing keys.
	firstID, lastID uint64

	refs     atomic.Int32
	obsolete atomic.Bool
}

func newTableHandle(tbl *sstable.Table, store cloud.Store, storeKey string, seq uint64, book *objectBook) *tableHandle {
	h := &tableHandle{tbl: tbl, store: store, storeKey: storeKey, seq: seq, book: book, lastID: math.MaxUint64}
	// Bounds that do not parse exclude nothing.
	if k, err := encoding.ParseKey(tbl.FirstKey()); err == nil {
		h.firstID = k.ID()
	}
	if k, err := encoding.ParseKey(tbl.LastKey()); err == nil {
		h.lastID = k.ID()
	}
	h.refs.Store(1)
	return h
}

func (h *tableHandle) retain() { h.refs.Add(1) }

// release drops one reference. The last one out drops the table's decoded
// blocks from the shared cache — whoever retired the table (compaction,
// retention, a replica's view refresh) and whether or not the object is
// deleted — so the cache holds blocks of live tables only.
func (h *tableHandle) release() {
	if h.refs.Add(-1) != 0 {
		return
	}
	h.tbl.DropCached()
	if h.obsolete.Load() {
		// Best effort: a failed delete leaks an object but never breaks
		// correctness (it is no longer referenced by the tree). The delete
		// is journaled by the operation that retired the table (compaction
		// commit / retention), not by the refcount release that happens to
		// run last — which can be any query goroutine.
		//lint:ignore journalcover deferred deletion of a retired table is accounted to the compaction/retention event that retired it
		if h.store.Delete(h.storeKey) == nil {
			h.book.forget(h.storeKey)
		}
	}
}

// markObsolete removes the tree's reference and deletes the object once the
// last reader finishes.
func (h *tableHandle) markObsolete() {
	h.obsolete.Store(true)
	h.release()
}

// partition is one time partition: a half-open window [minT, maxT) and the
// SSTables whose samples it bounds.
type partition struct {
	minT, maxT int64
	tables     []*tableHandle
	// patches[i] are the patch tables appended to tables[i] (L2 only),
	// oldest first.
	patches [][]*tableHandle
}

func (p *partition) length() int64 { return p.maxT - p.minT }

func (p *partition) overlaps(minT, maxT int64) bool {
	return p.minT < maxT && minT < p.maxT
}

func (p *partition) sizeBytes() int64 {
	var n int64
	for _, t := range p.tables {
		n += t.tbl.Size()
	}
	for _, ps := range p.patches {
		for _, t := range ps {
			n += t.tbl.Size()
		}
	}
	return n
}

// Stats counts the tree's background activity.
type Stats struct {
	Flushes           uint64
	CompactionsL0L1   uint64
	CompactionsL1L2   uint64
	PatchesCreated    uint64
	PatchMerges       uint64
	PartitionsDropped uint64
	ResizeShrinks     uint64
	ResizeGrows       uint64
	// TablesQuarantined counts structurally corrupt tables (torn writes)
	// deleted during recovery; their data was never acknowledged as flushed
	// and is replayed from the WAL.
	TablesQuarantined uint64
	// ManifestCommits counts durable manifest swaps (flush, compaction,
	// retention, and the fresh pair recovery writes).
	ManifestCommits uint64
	// OrphansCollected counts objects deleted by recovery GC because no
	// manifest referenced them (stranded outputs, undeleted inputs, stale
	// manifest versions).
	OrphansCollected uint64
	// ManifestVersionFast/Slow are the current committed manifest versions.
	ManifestVersionFast uint64
	ManifestVersionSlow uint64
	// MaxParallelCompactions is the high-water mark of compaction jobs
	// observed running concurrently on the executor pool.
	MaxParallelCompactions uint64
}

// LSM is the time-partitioned tree. All public methods are safe for
// concurrent use.
type LSM struct {
	opts Options

	mu  sync.RWMutex
	mem *memtable.MemTable
	imm []*memtable.MemTable // oldest first
	l0  []*partition         // sorted by minT
	l1  []*partition
	l2  []*partition
	r1  int64 // current L0/L1 partition length
	r2  int64 // current L2 partition length

	fileSeq atomic.Uint64

	flushCond *sync.Cond // signals the flush worker
	idleCond  *sync.Cond // signals WaitIdle
	working   bool
	closed    bool
	bgErr     error

	// Manifest state. manifestMu serializes commits and is acquired BEFORE
	// l.mu (commitManifests takes l.mu.RLock for its snapshot); callers
	// never hold l.mu when committing.
	manifestMu   sync.Mutex
	pendingTombs []string // fast-table tombstones awaiting a fast commit
	mfFastVer    atomic.Uint64
	mfSlowVer    atomic.Uint64
	book         *objectBook // table objects outside the view (AuditObjects)

	// Replica state (ReadOnly mode only). refreshMu serializes view swaps
	// and is acquired before l.mu, mirroring manifestMu on the writer side.
	refreshMu sync.Mutex

	// Executor state, all under l.mu.
	jobs       []*compactionJob
	jobCond    *sync.Cond
	busyParts  map[*partition]bool
	liveJobs   map[*compactionJob]bool
	compActive int
	workerWg   sync.WaitGroup

	stats struct {
		flushes, c01, c12, patches, patchMerges, dropped atomic.Uint64
		shrinks, grows, quarantined                      atomic.Uint64
		manifestCommits, orphans, parallelPeak           atomic.Uint64
	}

	// Instruments (nil without a registry; nil is a no-op).
	mFlush   *obs.Histogram
	mCompact *obs.Histogram
}

// Open creates an LSM, rebuilding tree metadata from the store contents
// (table placement is encoded in object key names, and per-table ID ranges
// come from the tables' own key bounds).
func Open(opts Options) (*LSM, error) {
	o := opts.withDefaults()
	if o.Fast == nil || o.Slow == nil {
		return nil, fmt.Errorf("lsm: both Fast and Slow stores are required")
	}
	l := &LSM{
		opts: o,
		mem:  memtable.New(),
		r1:   o.L0PartitionLength,
		r2:   o.L2PartitionLength,
		book: &objectBook{outputs: map[string]bool{}, retired: map[string]bool{}},
	}
	l.flushCond = sync.NewCond(&l.mu)
	l.idleCond = sync.NewCond(&l.mu)
	l.jobCond = sync.NewCond(&l.mu)
	l.busyParts = map[*partition]bool{}
	l.liveJobs = map[*compactionJob]bool{}
	if o.ReadOnly {
		// A replica loads its initial view through the same refresh path
		// it will keep polling: no writer-side recovery, no workers. An
		// empty store (writer not started yet) is a valid empty view.
		l.registerMetrics(o.Metrics)
		if _, err := l.Refresh(); err != nil {
			return nil, err
		}
		return l, nil
	}
	if err := l.recoverLevels(); err != nil {
		return nil, err
	}
	l.registerMetrics(o.Metrics)
	l.workerWg.Add(1)
	go l.flushLoop()
	for i := 0; i < o.CompactionWorkers; i++ {
		l.workerWg.Add(1)
		go l.compactionWorker(i)
	}
	// A recovered tree may already satisfy compaction triggers.
	l.mu.Lock()
	l.scheduleLocked()
	l.mu.Unlock()
	return l, nil
}

// registerMetrics exposes the tree's counters and sizes on reg and installs
// the flush/compaction duration histograms.
func (l *LSM) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	l.mFlush = reg.Histogram("timeunion_lsm_flush_seconds", "", "Duration of one memtable flush to level 0.")
	l.mCompact = reg.Histogram("timeunion_lsm_compaction_seconds", "", "Duration of one compaction (L0-L1 or L1-L2).")
	reg.CounterFunc("timeunion_lsm_flushes_total", "", "Memtables flushed to level 0.",
		func() float64 { return float64(l.stats.flushes.Load()) })
	reg.CounterFunc("timeunion_lsm_compactions_total", `path="l0l1"`, "Compactions by path.",
		func() float64 { return float64(l.stats.c01.Load()) })
	reg.CounterFunc("timeunion_lsm_compactions_total", `path="l1l2"`, "Compactions by path.",
		func() float64 { return float64(l.stats.c12.Load()) })
	reg.CounterFunc("timeunion_lsm_patches_created_total", "", "Patch tables appended to L2.",
		func() float64 { return float64(l.stats.patches.Load()) })
	reg.CounterFunc("timeunion_lsm_patch_merges_total", "", "L2 split-merges triggered by the patch threshold.",
		func() float64 { return float64(l.stats.patchMerges.Load()) })
	reg.CounterFunc("timeunion_lsm_partitions_dropped_total", "", "Partitions dropped by retention.",
		func() float64 { return float64(l.stats.dropped.Load()) })
	reg.CounterFunc("timeunion_lsm_resizes_total", `direction="shrink"`, "Dynamic partition-length resizes.",
		func() float64 { return float64(l.stats.shrinks.Load()) })
	reg.CounterFunc("timeunion_lsm_resizes_total", `direction="grow"`, "Dynamic partition-length resizes.",
		func() float64 { return float64(l.stats.grows.Load()) })
	reg.CounterFunc("timeunion_lsm_tables_quarantined_total", "", "Corrupt tables quarantined during recovery.",
		func() float64 { return float64(l.stats.quarantined.Load()) })
	reg.GaugeFunc("timeunion_lsm_mem_bytes", "", "Payload buffered in active plus immutable memtables.",
		func() float64 { return float64(l.MemBytes()) })
	for lvl := 0; lvl < 3; lvl++ {
		lvl := lvl
		reg.GaugeFunc("timeunion_lsm_level_bytes", fmt.Sprintf(`level="%d"`, lvl),
			"Table bytes per level (including patches).",
			func() float64 { return float64(l.LevelSizes()[lvl]) })
	}
	reg.GaugeFunc("timeunion_lsm_partition_length_ms", `level="l0l1"`, "Current time partition length.",
		func() float64 { r1, _ := l.PartitionLengths(); return float64(r1) })
	reg.GaugeFunc("timeunion_lsm_partition_length_ms", `level="l2"`, "Current time partition length.",
		func() float64 { _, r2 := l.PartitionLengths(); return float64(r2) })
	reg.CounterFunc("timeunion_lsm_manifest_commits_total", "", "Durable manifest swaps committed.",
		func() float64 { return float64(l.stats.manifestCommits.Load()) })
	reg.CounterFunc("timeunion_lsm_manifest_orphans_collected_total", "", "Unreferenced objects deleted by recovery GC.",
		func() float64 { return float64(l.stats.orphans.Load()) })
	reg.GaugeFunc("timeunion_lsm_manifest_version", `tier="fast"`, "Current committed manifest version.",
		func() float64 { return float64(l.mfFastVer.Load()) })
	reg.GaugeFunc("timeunion_lsm_manifest_version", `tier="slow"`, "Current committed manifest version.",
		func() float64 { return float64(l.mfSlowVer.Load()) })
	reg.GaugeFunc("timeunion_lsm_compaction_queue_depth", "", "Compaction jobs queued for the executor pool.",
		func() float64 { l.mu.RLock(); defer l.mu.RUnlock(); return float64(len(l.jobs)) })
	reg.GaugeFunc("timeunion_lsm_compactions_active", "", "Compaction jobs currently running.",
		func() float64 { l.mu.RLock(); defer l.mu.RUnlock(); return float64(l.compActive) })
	reg.GaugeFunc("timeunion_lsm_compaction_parallel_peak", "", "High-water mark of concurrently running compaction jobs.",
		func() float64 { return float64(l.stats.parallelPeak.Load()) })
}

// Put inserts a serialized chunk. If the active memtable already holds
// chunks of the same series whose sample ranges overlap the incoming chunk
// (out-of-order rewrites), the incoming chunk absorbs them: they are merged
// in embedded-sequence order, so per-sample newest-wins semantics survive
// chunk-granularity storage. Chunks already resident in the memtable always
// carry smaller sequences than an incoming chunk of the same series
// (sequences follow insertion order), which makes this absorption safe.
func (l *LSM) Put(key encoding.Key, value []byte) error {
	if l.opts.ReadOnly {
		return ErrReadOnly
	}
	l.mu.Lock()
	for len(l.imm) >= maxImmQueue && l.bgErr == nil && !l.closed {
		// Back-pressure: wait for the worker to drain the queue.
		l.idleCond.Wait()
	}
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("lsm: closed")
	}
	if err := l.bgErr; err != nil {
		l.mu.Unlock()
		return fmt.Errorf("lsm: background worker failed: %w", err)
	}
	key, value, err := l.absorbOverlapsLocked(key, value)
	if err != nil {
		l.mu.Unlock()
		return err
	}
	l.mem.Put(key[:], value)
	if l.mem.SizeBytes() >= l.opts.MemTableSize {
		l.rotateLocked()
	}
	l.mu.Unlock()
	return nil
}

// absorbOverlapsLocked merges the incoming chunk with every active-memtable
// chunk of the same series it overlaps (looping until the expanded range
// overlaps nothing), removing the absorbed entries.
func (l *LSM) absorbOverlapsLocked(key encoding.Key, value []byte) (encoding.Key, []byte, error) {
	id := key.ID()
	lo, hi, err := tuple.TimeRange(value)
	if err != nil {
		return key, nil, fmt.Errorf("lsm: put %v: %w", key, err)
	}
	for {
		var victims []tuple.KV
		start := encoding.MakeKey(id, math.MinInt64)
		it := l.mem.Iter(start[:], nil)
		for it.Next() {
			k, err := encoding.ParseKey(it.Key())
			if err != nil {
				return key, nil, err
			}
			if k.ID() != id || k.StartT() > hi {
				break
			}
			clo, chi, err := tuple.TimeRange(it.Value())
			if err != nil {
				return key, nil, err
			}
			_ = clo
			if chi < lo {
				continue
			}
			victims = append(victims, tuple.KV{Key: k, Value: append([]byte(nil), it.Value()...)})
		}
		if len(victims) == 0 {
			return encoding.MakeKey(id, lo), value, nil
		}
		// Resident chunks are older: merge them (oldest first), then the
		// incoming chunk last so its samples win at its own timestamps.
		sort.Slice(victims, func(i, j int) bool {
			return tuple.SeqOf(victims[i].Value) < tuple.SeqOf(victims[j].Value)
		})
		acc := victims[0].Value
		for _, v := range victims[1:] {
			if acc, err = mergeBySeq(acc, v.Value); err != nil {
				return key, nil, err
			}
		}
		if acc, err = mergeBySeq(acc, value); err != nil {
			return key, nil, err
		}
		for _, v := range victims {
			l.mem.Delete(v.Key[:])
		}
		value = acc
		if lo, hi, err = tuple.TimeRange(value); err != nil {
			return key, nil, err
		}
	}
}

// rotateLocked moves the active memtable to the immutable queue.
func (l *LSM) rotateLocked() {
	if l.mem.Len() == 0 {
		return
	}
	l.imm = append(l.imm, l.mem)
	l.mem = memtable.New()
	l.flushCond.Signal()
}

// Flush forces the active memtable into the flush pipeline and waits until
// the tree is fully idle (all flushes and triggered compactions done).
func (l *LSM) Flush() error {
	if l.opts.ReadOnly {
		return ErrReadOnly
	}
	l.mu.Lock()
	l.rotateLocked()
	l.mu.Unlock()
	return l.WaitIdle()
}

// WaitIdle blocks until the flush queue is empty and every scheduled
// compaction job has finished.
func (l *LSM) WaitIdle() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for (len(l.imm) > 0 || l.working || len(l.jobs) > 0 || l.compActive > 0) && l.bgErr == nil && !l.closed {
		l.idleCond.Wait()
	}
	return l.bgErr
}

// Close flushes pending data and stops the workers.
func (l *LSM) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	if l.opts.ReadOnly {
		l.closed = true
		l.mu.Unlock()
		return nil
	}
	l.rotateLocked()
	l.mu.Unlock()
	err := l.WaitIdle()

	l.mu.Lock()
	l.closed = true
	// Abandon queued jobs (non-empty only when bgErr poisoned the tree):
	// their inputs stay live, so nothing is lost.
	for _, job := range l.jobs {
		l.finishJobLocked(job)
	}
	l.jobs = nil
	l.flushCond.Broadcast()
	l.jobCond.Broadcast()
	l.idleCond.Broadcast()
	l.mu.Unlock()
	l.workerWg.Wait()
	return err
}

// flushLoop is the flush worker: it drains the immutable-memtable queue
// and feeds the compaction scheduler after each flush.
func (l *LSM) flushLoop() {
	defer l.workerWg.Done()
	l.mu.Lock()
	for {
		for len(l.imm) == 0 && !l.closed {
			l.flushCond.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
		m := l.imm[0]
		l.working = true
		l.mu.Unlock()

		flushErr := l.flushMemtable(m)

		l.mu.Lock()
		if flushErr == nil {
			l.imm[0] = nil // the backing array must not pin the flushed memtable
			l.imm = l.imm[1:]
		}
		l.working = false
		if flushErr != nil && l.bgErr == nil {
			l.bgErr = flushErr
		}
		l.adjustPartitionLengthsLocked()
		l.scheduleLocked()
		l.idleCond.Broadcast()
		if flushErr != nil {
			// The memtable stays in imm so its chunks remain readable — its
			// samples are acknowledged and may exist nowhere else until the
			// WAL replays them. The tree is poisoned (bgErr), so park until
			// Close rather than hot-looping on the same failing flush.
			for !l.closed {
				l.flushCond.Wait()
			}
			l.mu.Unlock()
			return
		}
	}
}

// nextFileSeq returns a unique, monotonically increasing file sequence.
func (l *LSM) nextFileSeq() uint64 { return l.fileSeq.Add(1) }

// tableName builds the object key for a table.
func tableName(level int, p *partition, seq uint64) string {
	return fmt.Sprintf("l%d/%020d-%020d/%016x.sst", level, uint64(p.minT)+1<<63, uint64(p.maxT)+1<<63, seq)
}

// patchName builds the object key for a patch of base table baseSeq.
func patchName(p *partition, baseSeq, seq uint64) string {
	return fmt.Sprintf("l2/%020d-%020d/%016x-p%016x.sst", uint64(p.minT)+1<<63, uint64(p.maxT)+1<<63, baseSeq, seq)
}

// flushMemtable splits an immutable memtable into time partitions and
// writes one level-0 SSTable per partition (paper §3.3: "during the flush
// of an Immutable MemTable, the key-value pairs are separated into
// different time partitions according to the timestamps contained in the
// keys").
func (l *LSM) flushMemtable(m *memtable.MemTable) (err error) {
	start := time.Now()
	var entries, tablesOut, partsOut int
	var bytesOut int64
	defer func() {
		if l.mFlush != nil {
			l.mFlush.Observe(time.Since(start))
		}
		if j := l.opts.Journal; j != nil {
			j.Emit("lsm.flush", start, err, map[string]any{
				"entries":        entries,
				"tables_out":     tablesOut,
				"partitions_out": partsOut,
				"bytes_out":      bytesOut,
				"manifest_fast":  l.mfFastVer.Load(),
			})
		}
	}()
	l.mu.RLock()
	r1 := l.r1
	l.mu.RUnlock()

	it := m.Iter(nil, nil)
	var all []tuple.KV
	var marks []wal.FlushMark // keys are in id order: one mark per id
	for it.Next() {
		key, err := encoding.ParseKey(it.Key())
		if err != nil {
			return fmt.Errorf("lsm: flush: %w", err)
		}
		val := append([]byte(nil), it.Value()...)
		all = append(all, tuple.KV{Key: key, Value: val})
		seq := tuple.SeqOf(val)
		if n := len(marks); n > 0 && marks[n-1].ID == key.ID() {
			marks[n-1].Seq = max(marks[n-1].Seq, seq)
		} else {
			marks = append(marks, wal.FlushMark{ID: key.ID(), Seq: seq})
		}
	}
	entries = len(all)
	byWindow, order, err := bucketByWindow(all, r1)
	if err != nil {
		return fmt.Errorf("lsm: flush split: %w", err)
	}

	// Stage every window's tables before publishing anything, so a failed
	// flush leaves no tables half-adopted (the staged ones are deleted).
	type staged struct {
		part    *partition
		handles []*tableHandle
	}
	var stagedParts []staged
	for _, ws := range order {
		part := &partition{minT: ws, maxT: ws + r1}
		handles, err := l.writeTables(l.opts.Fast, 0, part, byWindow[ws])
		if err != nil {
			for _, s := range stagedParts {
				for _, h := range s.handles {
					h.markObsolete()
				}
			}
			return err
		}
		stagedParts = append(stagedParts, staged{part, handles})
		partsOut++
		tablesOut += len(handles)
		for _, h := range handles {
			bytesOut += h.tbl.Size()
		}
	}

	l.mu.Lock()
	for _, s := range stagedParts {
		// Reuse an existing L0 partition with the same window, else insert.
		// A busy partition (input of an in-flight compaction job) cannot
		// adopt tables — the job has already snapshotted its handles and
		// will remove the partition — so a fresh same-window partition is
		// inserted alongside it instead.
		var target *partition
		for _, p := range l.l0 {
			if p.minT == s.part.minT && p.maxT == s.part.maxT && !l.busyParts[p] {
				target = p
				break
			}
		}
		if target == nil {
			l.l0 = insertPartition(l.l0, s.part)
			target = s.part
		}
		target.tables = append(target.tables, s.handles...)
	}
	l.mu.Unlock()

	// The fast-manifest swap is the flush's commit point. Flush marks (which
	// make the WAL eligible to purge these samples) fire only after it:
	// otherwise a crash would GC the uncommitted tables AND find the WAL
	// purged — data loss.
	if err := l.commitManifests(true, false, nil); err != nil {
		return err
	}

	if l.opts.OnFlush != nil {
		l.opts.OnFlush(marks)
	}
	l.stats.flushes.Add(1)
	return nil
}

// mergeBySeq merges two values of the same key, treating the one with the
// larger embedded sequence as newer.
func mergeBySeq(a, b []byte) ([]byte, error) {
	if tuple.SeqOf(a) <= tuple.SeqOf(b) {
		return tuple.Merge(a, b)
	}
	return tuple.Merge(b, a)
}

// writeTables writes kvs (sorted, unique keys) as one or more SSTables
// named for partition p at the given level. Output tables split at series
// boundaries when they exceed the target size, so each table covers a
// disjoint ID range (the property L2 patch routing relies on). On error
// every table this call already wrote is deleted — a failed multi-table
// write strands nothing (the crash case is covered by manifest GC).
func (l *LSM) writeTables(store cloud.Store, level int, p *partition, kvs []tuple.KV) (handles []*tableHandle, err error) {
	if len(kvs) == 0 {
		return nil, fmt.Errorf("lsm: writing empty table")
	}
	defer func() {
		if err != nil {
			for _, h := range handles {
				h.markObsolete()
			}
			handles = nil
		}
	}()
	w := l.newTableWriter(level)
	flushW := func() error {
		data, err := w.Finish()
		if err != nil {
			return err
		}
		seq := l.nextFileSeq()
		name := tableName(level, p, seq)
		l.book.declare(name)
		if err := store.Put(name, data); err != nil {
			l.book.forget(name)
			return fmt.Errorf("lsm: write table %s: %w", name, err)
		}
		tbl, err := sstable.OpenTableFromBytes(store, name, l.opts.Cache, data)
		if err != nil {
			return fmt.Errorf("lsm: reopen table %s: %w", name, err)
		}
		handles = append(handles, newTableHandle(tbl, store, name, seq, l.book))
		return nil
	}
	var lastID uint64
	for i, kv := range kvs {
		id := kv.Key.ID()
		if i > 0 && w.EstimatedSize() >= l.opts.TargetTableSize && id != lastID {
			if err := flushW(); err != nil {
				return handles, err
			}
			w = l.newTableWriter(level)
		}
		if err := w.Add(kv.Key[:], kv.Value); err != nil {
			return handles, fmt.Errorf("lsm: add to table: %w", err)
		}
		lastID = id
	}
	return handles, flushW()
}

// newTableWriter returns the builder for one table at level. The block
// codec is a level rule (DESIGN.md §2.1): L0 and L1 tables live briefly on
// the fast tier and are rewritten by the next compaction, and their
// Gorilla/XOR payloads are already near entropy, so they are written raw;
// L2 tables and their patches, the data at rest on the priced slow tier,
// keep DEFLATE.
func (l *LSM) newTableWriter(level int) *sstable.Writer {
	w := sstable.NewWriter(l.opts.BlockSize)
	if level < 2 {
		w.DisableCompression()
	}
	return w
}

// insertPartition inserts p keeping the slice sorted by minT.
func insertPartition(parts []*partition, p *partition) []*partition {
	i := sort.Search(len(parts), func(i int) bool { return parts[i].minT >= p.minT })
	parts = append(parts, nil)
	copy(parts[i+1:], parts[i:])
	parts[i] = p
	return parts
}

// removePartitions removes the given partitions (by identity).
func removePartitions(parts []*partition, dead map[*partition]bool) []*partition {
	out := parts[:0]
	for _, p := range parts {
		if !dead[p] {
			out = append(out, p)
		}
	}
	return out
}

// Stats returns activity counters.
func (l *LSM) Stats() Stats {
	return Stats{
		Flushes:           l.stats.flushes.Load(),
		CompactionsL0L1:   l.stats.c01.Load(),
		CompactionsL1L2:   l.stats.c12.Load(),
		PatchesCreated:    l.stats.patches.Load(),
		PatchMerges:       l.stats.patchMerges.Load(),
		PartitionsDropped: l.stats.dropped.Load(),
		ResizeShrinks:     l.stats.shrinks.Load(),
		ResizeGrows:       l.stats.grows.Load(),
		TablesQuarantined: l.stats.quarantined.Load(),

		ManifestCommits:        l.stats.manifestCommits.Load(),
		OrphansCollected:       l.stats.orphans.Load(),
		ManifestVersionFast:    l.mfFastVer.Load(),
		ManifestVersionSlow:    l.mfSlowVer.Load(),
		MaxParallelCompactions: l.stats.parallelPeak.Load(),
	}
}

// PartitionLengths returns the current (R1, R2).
func (l *LSM) PartitionLengths() (int64, int64) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.r1, l.r2
}

// LevelSizes returns the per-level table byte sizes (including patches).
func (l *LSM) LevelSizes() [3]int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out [3]int64
	for i, lvl := range [][]*partition{l.l0, l.l1, l.l2} {
		for _, p := range lvl {
			out[i] += p.sizeBytes()
		}
	}
	return out
}

// FastUsage returns the bytes levels 0 and 1 occupy on the fast tier.
func (l *LSM) FastUsage() int64 {
	s := l.LevelSizes()
	return s[0] + s[1]
}

// NumPartitions returns per-level partition counts.
func (l *LSM) NumPartitions() [3]int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return [3]int{len(l.l0), len(l.l1), len(l.l2)}
}

// MemBytes returns the payload buffered in the active and immutable
// memtables.
func (l *LSM) MemBytes() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	n := l.mem.SizeBytes()
	for _, m := range l.imm {
		n += m.SizeBytes()
	}
	return n
}
