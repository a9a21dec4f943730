// Package core assembles TimeUnion: the in-memory head (unified data
// model, memory-efficient index and chunks), the elastic time-partitioned
// LSM-tree on hybrid cloud storage, and the sequence-ID write-ahead log.
// It exposes the operations of paper §3.4: slow- and fast-path insertion
// for individual timeseries and groups, and tag-selector queries over the
// full hybrid-storage data set.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"timeunion/internal/chunkenc"
	"timeunion/internal/cloud"
	"timeunion/internal/encoding"
	"timeunion/internal/head"
	"timeunion/internal/labels"
	"timeunion/internal/lsm"
	"timeunion/internal/obs"
	"timeunion/internal/wal"
)

// ChunkStore is the persistence engine under the head. TimeUnion uses the
// time-partitioned LSM-tree; the TU-LDB baseline (§4.1) swaps in a classic
// leveled LSM behind the same interface.
type ChunkStore interface {
	// Put inserts a serialized chunk.
	Put(key encoding.Key, value []byte) error
	// ChunksForInto returns the chunks of ids[0] overlapping [mint, maxt],
	// rank-sorted oldest first, appending into buf (overwritten from
	// index 0) so per-query chunk lists reuse one backing array. ids[1:]
	// is a hint, the ids the query reads next in ascending order: a store
	// may fetch what they will read along with what ids[0] misses (the
	// time-partitioned tree reads each table's run of adjacent missing
	// blocks with one request), and may ignore it (TU-LDB does). The
	// returned Values may alias immutable storage and must be treated as
	// read-only (see lsm.ChunksForInto).
	ChunksForInto(buf []lsm.ChunkRef, ids []uint64, mint, maxt int64) ([]lsm.ChunkRef, error)
	// Flush forces buffered data down and waits for background work.
	Flush() error
	// ApplyRetention drops data entirely older than the watermark.
	ApplyRetention(watermark int64) int
	// Close flushes and shuts down.
	Close() error
}

// Options configures a DB.
type Options struct {
	// Dir is the local directory for the WAL and mmap files: a DB with a
	// Dir always logs. Empty means ephemeral: no WAL, heap-backed arrays.
	Dir string
	// Fast and Slow are the two storage tiers. Slow may equal Fast for
	// the EBS-only configuration (Figure 17).
	Fast cloud.Store
	Slow cloud.Store
	// CacheBytes bounds the cache of decoded SSTable blocks, which serves
	// both tiers under one LRU (default 1 GB, §4.1; DESIGN.md §2.1).
	CacheBytes int64

	// ChunkSamples is the in-memory chunk size (default 32, §3.2).
	ChunkSamples int
	// SlotsPerRegion tunes the mmap arrays (tests use small values).
	SlotsPerRegion int
	// SlotSize is the fixed chunk slot size in the mmap arrays.
	SlotSize int

	// LSM geometry; zero values take the lsm package defaults.
	MemTableSize      int64
	L0PartitionLength int64
	L2PartitionLength int64
	MaxL0Partitions   int
	PatchThreshold    int
	TargetTableSize   int
	BlockSize         int
	// FastLimit is the fast-store budget ST. A budget > 0 runs Algorithm 1
	// (dynamic size control, §3.3): after every flush and compaction the
	// tree halves or doubles its partition lengths to keep levels 0-1
	// near the budget. 0 means unlimited, and the lengths stay fixed.
	FastLimit int64
	// CompactionWorkers bounds the LSM compaction executor pool (0 = the
	// lsm package default of 2). Disjoint-partition compactions run
	// concurrently up to this many.
	CompactionWorkers int

	// WALSegmentSize bounds each WAL sample segment file (0 = the wal
	// package default). Small values force frequent rolls, exercising the
	// roll/purge path (crash-recovery tests).
	WALSegmentSize int

	// ReplicaRefreshInterval is the poll interval of a read replica's
	// background refresh loop (OpenReplica only). 0 means the default of
	// one second; a negative value disables the loop so tests can drive
	// Refresh deterministically.
	ReplicaRefreshInterval time.Duration

	// Store overrides the chunk store (used by the TU-LDB baseline).
	// When nil the time-partitioned LSM-tree is built from the options
	// above.
	Store ChunkStore

	// Metrics is the observability registry every layer registers its
	// instruments on. Nil means the DB creates its own (retrievable via
	// Metrics()); set DisableMetrics to run fully un-instrumented.
	Metrics *obs.Registry
	// DisableMetrics turns off all instrumentation (overhead baselines).
	DisableMetrics bool

	// Journal overrides the operational event journal (DESIGN.md §4.12).
	// Nil means the DB creates its own ring of obs.DefaultJournalCapacity
	// events, retrievable via Journal(); set DisableJournal to run
	// without one.
	Journal *obs.Journal
	// DisableJournal turns off the operational event journal.
	DisableJournal bool
}

// DB is a TimeUnion database instance.
type DB struct {
	opts    Options
	head    *head.Head
	store   ChunkStore
	wal     *wal.WAL
	cache   *cloud.LRUCache
	maxT    maxSeenT // newest appended timestamp, for retention watermarks
	metrics *obs.Registry
	m       *dbMetrics   // nil when DisableMetrics
	journal *obs.Journal // nil when DisableJournal

	// Read-replica state (replica.go). replica marks a DB opened with
	// OpenReplica: mutating entry points return ErrReadOnly and the
	// refresh loop below polls the shared stores.
	replica     bool
	replicaStop chan struct{}
	replicaWg   sync.WaitGroup

	// Catalog publication state (catalog.go), shared by the writer's
	// publish path and the replica's load path.
	catMu  sync.Mutex
	catVer uint64
	catCRC uint32
}

// newDB checks the stores and builds what Open and OpenReplica share:
// the block cache (1 GB when CacheBytes is 0), the metrics registry, the
// journal and the DB-level gauges.
func newDB(opts Options, replica bool) (*DB, error) {
	if opts.Fast == nil || opts.Slow == nil {
		return nil, fmt.Errorf("core: Fast and Slow stores are required")
	}
	if opts.CacheBytes == 0 {
		opts.CacheBytes = 1 << 30
	}
	reg := opts.Metrics
	if opts.DisableMetrics {
		reg = nil
	} else if reg == nil {
		reg = obs.NewRegistry()
	}
	journal := opts.Journal
	if opts.DisableJournal {
		journal = nil
	} else if journal == nil {
		journal = obs.NewJournal(obs.DefaultJournalCapacity)
	}
	db := &DB{opts: opts, cache: cloud.NewLRUCache(opts.CacheBytes), metrics: reg, journal: journal, replica: replica}
	db.m = newDBMetrics(reg)
	db.registerDBGauges(reg)
	if reg != nil {
		journal.RegisterMetrics(reg)
		obs.RegisterProcessMetrics(reg)
	}
	return db, nil
}

// Open creates or recovers a database.
func Open(opts Options) (*DB, error) {
	openStart := time.Now()
	db, err := newDB(opts, false)
	if err != nil {
		return nil, err
	}
	reg, journal := db.metrics, db.journal

	var w *wal.WAL
	if opts.Dir != "" {
		w, err = wal.Open(opts.Dir+"/wal", wal.Options{SegmentSize: opts.WALSegmentSize, Metrics: reg, Journal: journal})
		if err != nil {
			return nil, err
		}
		db.wal = w
	}

	// The flush hook needs the head, which needs the store's Put as its
	// sink; break the cycle with a late-bound pointer.
	var h *head.Head
	if opts.Store != nil {
		db.store = opts.Store
	} else {
		tree, err := lsm.Open(lsm.Options{
			Fast:              opts.Fast,
			Slow:              opts.Slow,
			Cache:             db.cache,
			MemTableSize:      opts.MemTableSize,
			L0PartitionLength: opts.L0PartitionLength,
			L2PartitionLength: opts.L2PartitionLength,
			MaxL0Partitions:   opts.MaxL0Partitions,
			PatchThreshold:    opts.PatchThreshold,
			TargetTableSize:   opts.TargetTableSize,
			BlockSize:         opts.BlockSize,
			FastLimit:         opts.FastLimit,
			CompactionWorkers: opts.CompactionWorkers,
			Metrics:           reg,
			Journal:           journal,
			OnFlush: func(marks []wal.FlushMark) {
				if h != nil {
					h.OnFlush(marks)
				}
			},
		})
		if err != nil {
			if w != nil {
				w.Close()
			}
			return nil, err
		}
		db.store = tree
	}

	headDir := ""
	if opts.Dir != "" {
		headDir = opts.Dir + "/head"
	}
	hh, err := head.New(head.Options{
		ChunkSamples:   opts.ChunkSamples,
		Dir:            headDir,
		SlotSize:       opts.SlotSize,
		SlotsPerRegion: opts.SlotsPerRegion,
		WAL:            w,
		Sink:           db.store.Put,
		Metrics:        reg,
	})
	if err != nil {
		db.store.Close()
		if w != nil {
			w.Close()
		}
		return nil, err
	}
	h = hh
	db.head = hh

	recovered := false
	if w != nil {
		start := time.Now()
		if err := hh.Recover(); err != nil {
			db.Close()
			return nil, fmt.Errorf("core: recovery: %w", err)
		}
		if db.m != nil {
			db.m.recovery.Set(time.Since(start).Milliseconds())
		}
		recovered = true
	}
	// Publish the series catalog so read replicas on the same shared
	// stores can resolve the recovered series by tag (catalog.go). Version
	// numbering resumes past the newest already-published version — a
	// restarted writer must not publish a version replicas would ignore
	// as older than what they already installed.
	if err := db.recoverCatalogVersion(); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.publishCatalog(); err != nil {
		db.Close()
		return nil, err
	}
	if journal != nil {
		fields := map[string]any{
			"series":    hh.NumSeries(),
			"groups":    hh.NumGroups(),
			"recovered": recovered,
		}
		if w != nil {
			fields["wal_corruptions"] = len(w.CorruptionsRepaired())
			fields["recovery_dropped"] = hh.RecoveryDropped()
		}
		journal.Emit("core.open", openStart, nil, fields)
	}
	return db, nil
}

// Journal exposes the operational event journal (nil when disabled).
func (db *DB) Journal() *obs.Journal { return db.journal }

// TreeSnapshot renders the live LSM table inventory for the
// /api/v1/lsmtree endpoint and `tuctl tree`. ok is false when the DB runs
// on a substituted chunk store (no time-partitioned tree to introspect).
func (db *DB) TreeSnapshot() (lsm.TreeSnapshot, bool) {
	if tree, ok := db.store.(*lsm.LSM); ok {
		return tree.Snapshot(), true
	}
	return lsm.TreeSnapshot{}, false
}

// Close flushes open chunks and shuts everything down. On a replica it
// stops the refresh loop and releases the view's table handles (which
// never deletes shared objects — the writer owns them).
func (db *DB) Close() error {
	var firstErr error
	if db.replicaStop != nil {
		close(db.replicaStop)
		db.replicaWg.Wait()
		db.replicaStop = nil
	}
	if db.head != nil && !db.replica {
		if err := db.head.FlushOpenChunks(); err != nil {
			firstErr = err
		}
	}
	if db.store != nil {
		if err := db.store.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Publish the catalog after the store's final flush has committed its
	// manifest: a writer that never called Flush explicitly (memtable-
	// pressure flushes only) must not shut down leaving replicas with
	// tables they can't resolve series in.
	if db.head != nil && !db.replica {
		if err := db.publishCatalog(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if db.wal != nil {
		if err := db.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if db.head != nil {
		if err := db.head.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Append inserts one sample by full tag set and returns the series ID for
// fast-path use (§3.4 Put(Timeseries), first API).
func (db *DB) Append(ls labels.Labels, t int64, v float64) (uint64, error) {
	if db.replica {
		return 0, ErrReadOnly
	}
	db.maxT.observe(t)
	if m := db.m; m != nil {
		if m.appends.Add(uint64(t), 1)&appendSampleMask == 0 {
			start := time.Now()
			id, err := db.head.Append(ls, t, v)
			m.appendLat.Observe(time.Since(start))
			return id, err
		}
	}
	return db.head.Append(ls, t, v)
}

// AppendFast inserts one sample by series ID (§3.4, second API).
func (db *DB) AppendFast(id uint64, t int64, v float64) error {
	if db.replica {
		return ErrReadOnly
	}
	db.maxT.observe(t)
	if m := db.m; m != nil {
		if m.appends.Add(id, 1)&appendSampleMask == 0 {
			start := time.Now()
			err := db.head.AppendFast(id, t, v)
			m.appendLat.Observe(time.Since(start))
			return err
		}
	}
	return db.head.AppendFast(id, t, v)
}

// AppendGroup inserts one shared-timestamp round into a group (§3.4
// Put(Group), first API). uniqueTags[i] are each member's non-shared tags.
func (db *DB) AppendGroup(groupTags labels.Labels, uniqueTags []labels.Labels, t int64, vals []float64) (uint64, []int, error) {
	if db.replica {
		return 0, nil, ErrReadOnly
	}
	db.maxT.observe(t)
	if m := db.m; m != nil {
		if m.appends.Add(uint64(t), uint64(len(vals)))&appendSampleMask == 0 {
			start := time.Now()
			gid, slots, err := db.head.AppendGroup(groupTags, uniqueTags, t, vals)
			m.appendLat.Observe(time.Since(start))
			return gid, slots, err
		}
	}
	return db.head.AppendGroup(groupTags, uniqueTags, t, vals)
}

// AppendGroupFast inserts one round by group ID and slot indexes (§3.4,
// second API).
func (db *DB) AppendGroupFast(gid uint64, slots []int, t int64, vals []float64) error {
	if db.replica {
		return ErrReadOnly
	}
	db.maxT.observe(t)
	if m := db.m; m != nil {
		if m.appends.Add(gid, uint64(len(vals)))&appendSampleMask == 0 {
			start := time.Now()
			err := db.head.AppendGroupFast(gid, slots, t, vals)
			m.appendLat.Observe(time.Since(start))
			return err
		}
	}
	return db.head.AppendGroupFast(gid, slots, t, vals)
}

// Batch is one write request's samples: individual-series samples by ID
// and group rounds by group ID and member slots. See AppendBatch.
type Batch = head.Batch

// ErrInvalidBatch wraps every AppendBatch error that validation found
// before anything was applied: an unknown series or group ID, a slot out
// of range, or a values row whose length does not match its slots.
var ErrInvalidBatch = head.ErrInvalidBatch

// AppendBatch applies a batch of fast-path samples all or nothing: every
// series and group ID, slot and values row is validated before anything is
// applied, and the whole batch is logged as one WAL record that is written
// before AppendBatch returns (DESIGN.md §4.6). A validation error wraps
// ErrInvalidBatch. An error after validation leaves the items applied
// before it in the head and in the log.
func (db *DB) AppendBatch(b *Batch) error {
	if db.replica {
		return ErrReadOnly
	}
	start := time.Now()
	applied, err := db.head.AppendBatch(b)
	if applied {
		db.maxT.observe(b.MaxT())
	}
	if m := db.m; m != nil {
		if applied {
			m.appends.Add(uint64(b.MaxT()), uint64(b.Len()))
		}
		m.appendLat.Observe(time.Since(start))
	}
	return err
}

// Flush pushes all buffered data (open chunks and memtables) down to the
// chunk store and waits for triggered compactions, then republishes the
// series catalog if it changed — the manifest commit inside the store
// flush is what makes the new tables visible to read replicas, and the
// catalog publish afterwards lets them resolve any new series (a replica
// refreshing between the two sees the new catalog no later than its
// next poll).
func (db *DB) Flush() error {
	if db.replica {
		return ErrReadOnly
	}
	if err := db.head.FlushOpenChunks(); err != nil {
		return err
	}
	if err := db.store.Flush(); err != nil {
		return err
	}
	return db.publishCatalog()
}

// Sync fsyncs the write-ahead log. After Sync returns, every previously
// acknowledged append survives a process crash (the durability contract;
// without an explicit Sync the WAL relies on segment-roll and close-time
// syncs, trading a bounded window of recent samples for write latency).
func (db *DB) Sync() error {
	if db.replica {
		return ErrReadOnly
	}
	if db.wal == nil {
		return nil
	}
	return db.wal.Sync()
}

// Series is one query result: a timeseries' full tag set and its samples.
type Series struct {
	Labels  labels.Labels
	Samples []lsm.SamplePair
}

// Query evaluates tag selectors over [mint, maxt] (§3.4 Get): the inverted
// index resolves the selectors to series/group IDs; samples are merged from
// the head's open chunks and the chunk store. It drains GOMAXPROCS series
// sets over the matched ids (QueryWorkers).
func (db *DB) Query(mint, maxt int64, matchers ...*labels.Matcher) ([]Series, error) {
	return db.QueryContext(context.Background(), mint, maxt, matchers...)
}

// QueryContext is Query with cancellation: the first failing series aborts
// the whole query, and a cancelled context stops the sets early.
func (db *DB) QueryContext(ctx context.Context, mint, maxt int64, matchers ...*labels.Matcher) ([]Series, error) {
	return db.QueryWorkers(ctx, 0, mint, maxt, matchers...)
}

// QueryWorkers materializes a query by draining workers series sets
// (0 = runtime.GOMAXPROCS(0)), one goroutine each; one set runs inline.
// The sets claim matched ids from one shared cursor, so adjacent ids, which
// share sstable blocks, are fetched concurrently. Each id's series land
// under its index position before the final label sort, so the result is
// identical for every worker count. The first error cancels the other
// sets and is the one reported.
func (db *DB) QueryWorkers(ctx context.Context, workers int, mint, maxt int64, matchers ...*labels.Matcher) (out []Series, err error) {
	run := new(queryRun)
	if err := db.startQuery(run, ctx, mint, maxt, matchers); err != nil {
		return nil, err
	}
	defer func() { run.finish(err) }()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sets := make([]querySeriesSet, max(1, min(workers, len(run.ids))))
	for i := range sets {
		sets[i].init(run, db.onDecode(&sets[i].decoded))
	}
	perID := make([][]Series, len(run.ids))
	if len(sets) == 1 {
		err = sets[0].drainInto(perID)
	} else {
		// A failing set cancels the others with its error as the cause,
		// so the cause, not the cancellations it triggered, is reported.
		wctx, cancel := context.WithCancelCause(ctx)
		run.ctx = wctx
		var wg sync.WaitGroup
		for i := range sets {
			wg.Add(1)
			go func(s *querySeriesSet) {
				defer wg.Done()
				if err := s.drainInto(perID); err != nil {
					cancel(err)
				}
			}(&sets[i])
		}
		wg.Wait()
		err = context.Cause(wctx)
		cancel(nil)
	}
	if err != nil {
		return nil, err
	}
	for _, res := range perID {
		out = append(out, res...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Labels.Compare(out[j].Labels) < 0 })
	return out, nil
}

// drainPairs materializes an iterator (the streaming→slice adapter that
// Query is built on).
func drainPairs(it chunkenc.SampleIterator) ([]lsm.SamplePair, error) {
	var out []lsm.SamplePair
	for it.Next() {
		t, v := it.At()
		out = append(out, lsm.SamplePair{T: t, V: v})
	}
	return out, it.Err()
}

func matchAll(ls labels.Labels, matchers []*labels.Matcher) bool {
	for _, m := range matchers {
		if !m.Matches(ls.Get(m.Name)) {
			return false
		}
	}
	return true
}

// LabelValues lists the values recorded for a tag name (with live
// postings), via the global index's trie prefix scan.
func (db *DB) LabelValues(name string) []string {
	return db.head.Index().LabelValues(name)
}

// ApplyRetention drops all data older than the watermark: store partitions,
// head memory objects, and (eventually) WAL segments (§3.3). On a replica
// it returns ErrReadOnly — retention is the writer's job, observed here
// through the next manifest refresh.
func (db *DB) ApplyRetention(watermark int64) (partitions, objects int, err error) {
	if db.replica {
		return 0, 0, ErrReadOnly
	}
	partitions = db.store.ApplyRetention(watermark)
	objects = db.head.PurgeBefore(watermark)
	if db.wal != nil {
		// Purge WAL segments whose samples are all flushed.
		if _, err := db.wal.Purge(); err != nil {
			// Purge failures only delay space reclamation.
			_ = err
		}
	}
	return partitions, objects, nil
}

// PurgeWAL runs the background WAL purge once (the paper's periodic purge
// worker, exposed for deterministic operation).
func (db *DB) PurgeWAL() (int, error) {
	if db.replica {
		return 0, ErrReadOnly
	}
	if db.wal == nil {
		return 0, nil
	}
	return db.wal.Purge()
}

// Stats is a point-in-time snapshot of the database's resource usage.
type Stats struct {
	NumSeries int
	NumGroups int
	Memory    head.MemoryFootprint
	LSM       lsm.Stats
	FastBytes int64
	SlowBytes int64
	CacheUsed int64
	// WALCorruptions counts mid-segment corruptions found and repaired
	// (truncated) when this instance opened the WAL.
	WALCorruptions int
	// RecoveryDropped counts orphan WAL records (samples or members whose
	// series/group definition did not survive the crash) skipped during
	// recovery. Such writes were never acknowledged.
	RecoveryDropped uint64
}

// Stats returns current counters. LSM stats are zero when running with a
// substituted chunk store.
func (db *DB) Stats() Stats {
	st := Stats{
		NumSeries: db.head.NumSeries(),
		NumGroups: db.head.NumGroups(),
		Memory:    db.head.Footprint(),
		FastBytes: db.opts.Fast.TotalBytes(),
		SlowBytes: db.opts.Slow.TotalBytes(),
		CacheUsed: db.cache.UsedBytes(),
	}
	if tree, ok := db.store.(*lsm.LSM); ok {
		st.LSM = tree.Stats()
	}
	if db.wal != nil {
		st.WALCorruptions = len(db.wal.CorruptionsRepaired())
	}
	st.RecoveryDropped = db.head.RecoveryDropped()
	return st
}

// Head exposes the in-memory layer (experiment harness access).
func (db *DB) Head() *head.Head { return db.head }

// ChunkStoreRef exposes the underlying chunk store (experiment harness
// access, e.g. partition-length traces for Figure 19).
func (db *DB) ChunkStoreRef() ChunkStore { return db.store }

// Cache exposes the slow-tier segment cache.
func (db *DB) Cache() *cloud.LRUCache { return db.cache }
