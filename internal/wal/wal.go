// Package wal implements TimeUnion's logging scheme (paper §3.3 "Logging").
// LevelDB's original log is disabled; instead every series and group carries
// a sequence ID that increments with each inserted sample. When a data
// chunk is flushed into the time-partitioned LSM-tree, the chunk embeds its
// final sequence ID, and the flush of the enclosing memtable writes a flush
// mark: "all log entries of this timeseries/group with sequence IDs at or
// before this one are safe to remove". A background worker periodically
// purges segments whose records are all obsolete.
//
// Two kinds of state are logged:
//
//   - the catalog (series, group, and group-member definitions) lives in an
//     append-only file that is never purged — it is what rebuilds the global
//     inverted index and the memory objects after a crash;
//   - samples and flush marks live in size-bounded segments
//     (000001.wal, 000002.wal, ...) that purge drops wholesale.
//
// A segment record is a run of one or more entries (samples, group rounds,
// flush marks), each led by its type byte. Every one is built the same way:
// StageSample/StageGroupSample add entries to a pending buffer and Commit
// writes what is pending as one record; LogSample/LogGroupSample are a
// batch of one, and LogFlushMarks stages one flush's marks behind whatever
// is pending and commits (DESIGN.md §4.6). A sample that continues the
// entry before it in its record (next id, same seq and t) is logged as its
// value alone. Every record, catalog ones included, is built in a buffer
// the WAL owns behind room for its header. A segment record is then copied
// into a shared mapping of the active segment (xmmap.AppendRegion), a
// catalog record written with one write(2).
//
// Purge is conservative: a segment is removed only when every sample record
// in it is at or below its series' flushed sequence. That includes the
// active segment, which is rolled and dropped once nothing in it is
// unflushed. Flush marks from dropped segments are preserved in a
// checkpoint file, so recovery never replays an unbounded amount of
// obsolete data; replaying a few already-flushed samples is harmless
// because queries deduplicate samples by timestamp.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"timeunion/internal/encoding"
	"timeunion/internal/labels"
	"timeunion/internal/obs"
	"timeunion/internal/xmmap"
)

// Record types.
const (
	recSeries      = byte(1) // catalog: id, labels
	recGroup       = byte(2) // catalog: gid, group labels
	recGroupMember = byte(3) // catalog: gid, slot, unique labels
	recSample      = byte(4) // id, seq, t, v
	recGroupSample = byte(5) // gid, seq, t, [slot, v]...
	recFlushMark   = byte(6) // id, seq
	// Type 7 is retired; a record that starts with it fails recovery.
	recSampleNext = byte(8) // v of the sample id+1, with the seq and t of the sample before it in its record
)

// maxPendingBytes bounds the pending record: one that grows past it is
// committed early. That is safe because its entries are already applied
// to the head; their callers still commit the rest.
const maxPendingBytes = 1 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// DefaultSegmentSize bounds one WAL segment file.
const DefaultSegmentSize = 4 << 20

// segmentHeadroom is mapped past a segment's size bound. A segment rolls
// once it reaches the bound, so a record up to this size, a full pending
// record included, fits in the active segment wherever it stands; only a
// larger one rolls the segment first.
const segmentHeadroom = 2 * maxPendingBytes

// CorruptionError reports a record whose checksum failed mid-file: unlike
// a truncated or torn tail (a crash cut the last write short, which is
// expected and harmless), bytes after the bad record mean the log was
// damaged in place. Recovery surfaces it instead of silently dropping
// everything after the damage.
type CorruptionError struct {
	Segment string // file path of the damaged segment
	Offset  int64  // byte offset of the first bad record
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("wal: corrupt record in %s at offset %d", e.Segment, e.Offset)
}

// WAL is a write-ahead log instance. Safe for concurrent use.
type WAL struct {
	mu          sync.Mutex
	dir         string
	segmentSize int

	catalog *os.File
	seg     *xmmap.AppendRegion
	segIdx  int

	// pending holds staged entries behind the header room (meaningless
	// when pendingN is 0); pendingN counts them. Commit frames pending in
	// place and writes it as one segment record.
	pending  encoding.Buf
	pendingN int
	// rec is where a catalog definition is built behind the header room
	// and written from, so it costs one write(2) and, once rec has grown,
	// no allocation.
	rec encoding.Buf
	// last is the sample staged last in the pending record, which the next
	// staged sample may continue (recSampleNext); ok is false when the
	// record is empty or its last entry is not a sample.
	last lastSample
	// failed is the first failed segment append or roll. A batch's lost
	// entries are already applied and may belong to several callers, and a
	// failed roll may leave no active segment, so every later write returns
	// it rather than acknowledge what the log cannot hold.
	failed error

	// purgeMu serializes Purge calls so two purges cannot interleave
	// their checkpoint writes and segment removals.
	purgeMu sync.Mutex

	// flushedSeq[id] = highest sequence known flushed; updated by
	// LogFlushMarks and loaded from the checkpoint on open.
	flushedSeq map[uint64]uint64

	// repaired records the mid-file corruptions Recover truncated away.
	repaired []CorruptionError

	// Instruments (nil when no registry was supplied; nil is a no-op).
	mFsync   *obs.Histogram
	mRolls   *obs.Counter
	mRecords *obs.Counter
	mPurged  *obs.Counter

	// journal receives operational events (nil is a no-op); DESIGN.md §4.12.
	journal *obs.Journal
}

// lastSample is the continuation state of the pending record.
type lastSample struct {
	id, seq uint64
	t       int64
	ok      bool
}

// FlushMark says that every sample of series (or group) ID with a sequence
// at or below Seq is persistent in the LSM-tree.
type FlushMark struct {
	ID, Seq uint64
}

// Options configures the WAL.
type Options struct {
	// SegmentSize bounds each sample segment file (0 = DefaultSegmentSize).
	SegmentSize int
	// Metrics, when non-nil, receives the WAL's instruments
	// (timeunion_wal_*).
	Metrics *obs.Registry
	// Journal, when non-nil, receives wal.* operational events (segment
	// rolls, checkpoints, purges, repair truncations).
	Journal *obs.Journal
}

// Open creates or reopens a WAL in dir.
func Open(dir string, opts Options) (*WAL, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	w := &WAL{
		dir:         dir,
		segmentSize: opts.SegmentSize,
		flushedSeq:  make(map[uint64]uint64),
		journal:     opts.Journal,
	}
	cat, err := os.OpenFile(filepath.Join(dir, "catalog.wal"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open catalog: %w", err)
	}
	w.catalog = cat
	// Make the directory entries (dir itself, catalog file) durable: a
	// crash right after creation must not lose the files' names.
	if err := syncDir(dir); err != nil {
		_ = cat.Close() // discard: the original error is what the caller needs
		return nil, fmt.Errorf("wal: sync dir: %w", err)
	}

	if err := w.loadCheckpoint(); err != nil {
		_ = cat.Close() // discard: the original error is what the caller needs
		return nil, err
	}
	segs, err := w.segmentIndexes()
	if err != nil {
		_ = cat.Close() // discard: the original error is what the caller needs
		return nil, err
	}
	w.segIdx = 1
	if len(segs) > 0 {
		w.segIdx = segs[len(segs)-1] + 1
	}
	if err := w.openSegment(0); err != nil {
		_ = cat.Close() // discard: the original error is what the caller needs
		return nil, err
	}
	if reg := opts.Metrics; reg != nil {
		w.mFsync = reg.Histogram("timeunion_wal_fsync_seconds", "", "Latency of WAL fsync calls (catalog + active segment).")
		w.mRolls = reg.Counter("timeunion_wal_segment_rolls_total", "", "Sample segments closed, at the size bound or by a purge that drops the fully flushed active segment.")
		w.mRecords = reg.Counter("timeunion_wal_records_total", "", "Sample, group-round and flush-mark entries appended to segments; a record counts each of its entries.")
		w.mPurged = reg.Counter("timeunion_wal_purged_segments_total", "", "Obsolete segments removed by Purge.")
		reg.GaugeFunc("timeunion_wal_size_bytes", "", "Logged WAL bytes (catalog + closed segments + the active segment's appended bytes + checkpoint).",
			func() float64 { return float64(w.SizeBytes()) })
		reg.GaugeFunc("timeunion_wal_corruptions_repaired", "", "Mid-file corruptions truncated away by the last recovery.",
			func() float64 { return float64(len(w.CorruptionsRepaired())) })
	}
	return w, nil
}

func (w *WAL) segPath(idx int) string {
	return filepath.Join(w.dir, fmt.Sprintf("%08d.wal", idx))
}

func (w *WAL) segmentIndexes() ([]int, error) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	var idxs []int
	for _, e := range entries {
		var idx int
		if n, _ := fmt.Sscanf(e.Name(), "%08d.wal", &idx); n == 1 {
			idxs = append(idxs, idx)
		}
	}
	sort.Ints(idxs)
	return idxs, nil
}

// openSegment creates segment w.segIdx and maps it with room for the size
// bound and its headroom, or for need bytes if that is more. The caller
// holds w.mu or owns w.
func (w *WAL) openSegment(need int) error {
	r, err := xmmap.CreateAppendRegion(w.segPath(w.segIdx), max(w.segmentSize+segmentHeadroom, need))
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	// The new segment's directory entry must survive a crash, or recovery
	// would skip records written to a file with no durable name.
	if err := syncDir(w.dir); err != nil {
		_ = r.Close() // discard: the original error is what the caller needs
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	w.seg = r
	return nil
}

// syncDir fsyncs a directory so entry creations/renames inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// hdrRoom is the room every record buffer reserves at its front for the
// record's header: its payload length as a uvarint (at most 5 bytes, since a
// payload is far below 32 GiB) and the payload's CRC-32C.
const hdrRoom = binary.MaxVarintLen32 + 4

// beginRecord resets b to an empty record: hdrRoom bytes of header room and
// no payload yet.
func beginRecord(b *encoding.Buf) *encoding.Buf {
	b.B = append(b.B[:0], make([]byte, hdrRoom)...)
	return b
}

// frameRecord frames the record built in rec (hdrRoom bytes of room, then
// the payload) and returns it: uvarint len | crc32 | payload. The header
// goes right-aligned into the room, so the payload is not copied.
func frameRecord(rec []byte) []byte {
	payload := rec[hdrRoom:]
	var lenBuf [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	start := hdrRoom - 4 - n
	copy(rec[start:], lenBuf[:n])
	binary.BigEndian.PutUint32(rec[hdrRoom-4:], crc32.Checksum(payload, crcTable))
	return rec[start:]
}

// pendingLocked opens the pending record if needed and returns it for the
// caller to append one entry to. The caller holds w.mu.
func (w *WAL) pendingLocked() (*encoding.Buf, error) {
	if w.failed != nil {
		return nil, w.failed
	}
	if w.pendingN == 0 {
		beginRecord(&w.pending)
		w.last.ok = false
	}
	w.pendingN++
	return &w.pending, nil
}

// commitIfFullLocked commits the pending record early once it passes
// maxPendingBytes. The caller holds w.mu.
func (w *WAL) commitIfFullLocked() error {
	if w.pending.Len()-hdrRoom < maxPendingBytes {
		return nil
	}
	return w.commitLocked()
}

// commitLocked copies the pending entries, if any, into the active segment
// as one record and rolls the segment once it reaches its size bound. A
// record that would cross the end of the mapping rolls the segment first;
// one larger than a whole segment gets a segment of its own. A failed
// append poisons the log. The caller holds w.mu.
func (w *WAL) commitLocked() error {
	if w.failed != nil {
		return w.failed
	}
	if w.pendingN == 0 {
		return nil
	}
	n := w.pendingN
	w.pendingN = 0
	framed := frameRecord(w.pending.B)
	if len(framed) > w.seg.Room() {
		if err := w.rollLocked(len(framed)); err != nil {
			return err
		}
	}
	if err := w.seg.Append(framed); err != nil {
		w.failed = fmt.Errorf("wal: append: %w", err)
		return w.failed
	}
	w.mRecords.Add(uint64(n))
	if w.seg.Len() >= w.segmentSize {
		return w.rollLocked(0)
	}
	return nil
}

// StageSample adds one sample of an individual series to the pending
// record. It is not in the log until a Commit (or Log*, Sync or Close)
// returns.
func (w *WAL) StageSample(id, seq uint64, t int64, v float64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	b, err := w.pendingLocked()
	if err != nil {
		return err
	}
	if l := w.last; l.ok && id == l.id+1 && seq == l.seq && t == l.t {
		b.PutByte(recSampleNext)
		b.PutBE64(math.Float64bits(v))
	} else {
		putSample(b, id, seq, t, v)
	}
	w.last = lastSample{id: id, seq: seq, t: t, ok: true}
	return w.commitIfFullLocked()
}

// StageGroupSample adds one group insertion round to the pending record;
// see StageSample.
func (w *WAL) StageGroupSample(gid, seq uint64, t int64, slots []uint32, vals []float64) error {
	if len(slots) != len(vals) {
		return fmt.Errorf("wal: group sample slots/vals mismatch: %d vs %d", len(slots), len(vals))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	b, err := w.pendingLocked()
	if err != nil {
		return err
	}
	putGroupSample(b, gid, seq, t, slots, vals)
	w.last.ok = false
	return w.commitIfFullLocked()
}

// Commit writes the pending entries as one record. Staged entries are
// acknowledged only after Commit returns nil; it commits every caller's
// staged entries, not only the caller's own.
func (w *WAL) Commit() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.commitLocked()
}

// rollLocked closes the active segment (full, fully flushed and about to
// be purged, or without room for the next record) and opens its
// replacement, mapped with room for need bytes at least, journaling the
// roll's outcome on every exit path. A rolled segment is closed forever:
// trim and sync it now so Purge's "everything before the active segment is
// on disk" assumption holds, then make its replacement durable. A failed
// roll may leave no active segment, so it poisons the log. The caller holds
// w.mu.
func (w *WAL) rollLocked(need int) (err error) {
	start := time.Now()
	rolled, size := w.segIdx, w.seg.Len()
	defer func() {
		if err != nil {
			w.failed = err
		}
		w.journal.Emit("wal.roll", start, err, map[string]any{
			"segment": rolled, "size_bytes": size,
		})
	}()
	if err = w.seg.Close(); err != nil {
		return fmt.Errorf("wal: roll segment: %w", err)
	}
	w.mFsync.Observe(time.Since(start))
	w.mRolls.Inc()
	w.segIdx++
	return w.openSegment(need)
}

// writeCatalogLocked writes the record built in w.rec to the catalog. The
// catalog keeps write(2): it is written once per series definition and
// never rolls, so it has no mapping to size. The caller holds w.mu.
func (w *WAL) writeCatalogLocked() error {
	if _, err := w.catalog.Write(frameRecord(w.rec.B)); err != nil {
		return fmt.Errorf("wal: append catalog: %w", err)
	}
	return nil
}

// LogSeries records a new individual timeseries definition.
func (w *WAL) LogSeries(id uint64, ls labels.Labels) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	b := beginRecord(&w.rec)
	b.PutByte(recSeries)
	b.PutUvarint(id)
	b.B = ls.Bytes(b.B)
	return w.writeCatalogLocked()
}

// LogGroup records a new group definition with its shared tags.
func (w *WAL) LogGroup(gid uint64, groupTags labels.Labels) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	b := beginRecord(&w.rec)
	b.PutByte(recGroup)
	b.PutUvarint(gid)
	b.B = groupTags.Bytes(b.B)
	return w.writeCatalogLocked()
}

// LogGroupMember records a member appended to a group's timeseries array.
func (w *WAL) LogGroupMember(gid uint64, slot uint32, unique labels.Labels) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	b := beginRecord(&w.rec)
	b.PutByte(recGroupMember)
	b.PutUvarint(gid)
	b.PutUvarint(uint64(slot))
	b.B = unique.Bytes(b.B)
	return w.writeCatalogLocked()
}

// LogSample records one sample of an individual series: a batch of one,
// staged behind whatever is pending and committed with it.
func (w *WAL) LogSample(id, seq uint64, t int64, v float64) error {
	if err := w.StageSample(id, seq, t, v); err != nil {
		return err
	}
	return w.Commit()
}

func putSample(b *encoding.Buf, id, seq uint64, t int64, v float64) {
	b.PutByte(recSample)
	b.PutUvarint(id)
	b.PutUvarint(seq)
	b.PutVarint(t)
	b.PutBE64(math.Float64bits(v))
}

// LogGroupSample records one shared-timestamp insertion round of a group;
// see LogSample.
func (w *WAL) LogGroupSample(gid, seq uint64, t int64, slots []uint32, vals []float64) error {
	if err := w.StageGroupSample(gid, seq, t, slots, vals); err != nil {
		return err
	}
	return w.Commit()
}

func putGroupSample(b *encoding.Buf, gid, seq uint64, t int64, slots []uint32, vals []float64) {
	b.PutByte(recGroupSample)
	b.PutUvarint(gid)
	b.PutUvarint(seq)
	b.PutVarint(t)
	b.PutUvarint(uint64(len(slots)))
	for i, s := range slots {
		b.PutUvarint(uint64(s))
		b.PutBE64(math.Float64bits(vals[i]))
	}
}

// LogFlushMarks records one LSM flush's marks (written after the flush's
// manifest commit): they are staged behind whatever is pending and
// committed with it, so a mark never precedes, in the file, a sample it
// covers.
func (w *WAL) LogFlushMarks(marks []FlushMark) error {
	if len(marks) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, m := range marks {
		b, err := w.pendingLocked()
		if err != nil {
			return err
		}
		b.PutByte(recFlushMark)
		b.PutUvarint(m.ID)
		b.PutUvarint(m.Seq)
	}
	if err := w.commitLocked(); err != nil {
		return err
	}
	for _, m := range marks {
		if m.Seq > w.flushedSeq[m.ID] {
			w.flushedSeq[m.ID] = m.Seq
		}
	}
	return nil
}

// Sync commits the pending entries and flushes the catalog and the active
// segment to disk.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.commitLocked(); err != nil {
		return err
	}
	start := time.Now()
	if err := w.catalog.Sync(); err != nil {
		return fmt.Errorf("wal: sync catalog: %w", err)
	}
	if err := w.seg.Sync(); err != nil {
		return fmt.Errorf("wal: sync segment: %w", err)
	}
	w.mFsync.Observe(time.Since(start))
	return nil
}

// Close commits, syncs and closes all files, trimming the active segment
// to its appended bytes.
func (w *WAL) Close() error {
	if err := w.Sync(); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.catalog.Close(); err != nil {
		return err
	}
	return w.seg.Close()
}

// CrashClose closes the file handles WITHOUT syncing, unmaps the active
// segment without trimming it and drops the pending entries, so buffered
// state is abandoned exactly as a process crash would abandon it: the
// segment keeps its zero tail. It exists for crash-recovery tests; the WAL
// must not be used afterwards.
func (w *WAL) CrashClose() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pendingN = 0
	cerr := w.catalog.Close()
	serr := w.seg.Abandon()
	if cerr != nil {
		return cerr
	}
	return serr
}

// --- checkpoint ---

func (w *WAL) checkpointPath() string { return filepath.Join(w.dir, "checkpoint") }

func (w *WAL) loadCheckpoint() error {
	data, err := os.ReadFile(w.checkpointPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: read checkpoint: %w", err)
	}
	if len(data) < 4 {
		return nil // empty/corrupt checkpoint: ignore, recovery stays safe
	}
	payload := data[:len(data)-4]
	want := binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(payload, crcTable) != want {
		return nil // corrupt checkpoint: ignore
	}
	d := encoding.NewDecbuf(payload)
	n := d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		id := d.Uvarint()
		seq := d.Uvarint()
		w.flushedSeq[id] = seq
	}
	return nil
}

func (w *WAL) writeCheckpoint() (err error) {
	start := time.Now()
	defer func() {
		w.journal.Emit("wal.checkpoint", start, err, map[string]any{
			"series": len(w.flushedSeq),
		})
	}()
	var b encoding.Buf
	b.PutUvarint(uint64(len(w.flushedSeq)))
	ids := make([]uint64, 0, len(w.flushedSeq))
	for id := range w.flushedSeq {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		b.PutUvarint(id)
		b.PutUvarint(w.flushedSeq[id])
	}
	b.PutBE32(crc32.Checksum(b.Get(), crcTable))
	// Write-sync-rename-sync: the checkpoint replaces flush marks in
	// purged segments, so it must be durable before any segment is
	// removed — a renamed-but-unsynced checkpoint could vanish in a crash
	// while the removals survive.
	tmp := w.checkpointPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: write checkpoint: %w", err)
	}
	if _, err := f.Write(b.Get()); err != nil {
		_ = f.Close() // discard: the original error is what the caller needs
		return fmt.Errorf("wal: write checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // discard: the original error is what the caller needs
		return fmt.Errorf("wal: sync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp, w.checkpointPath()); err != nil {
		return fmt.Errorf("wal: rename checkpoint: %w", err)
	}
	return syncDir(w.dir)
}

// --- purge ---

// Purge drops segments whose sample records are all flushed and returns
// the number removed. The active segment is dropped too when nothing was
// appended or staged since its scan: it is rolled first, under the same
// checkpoint. This is the "background worker purges stale log records" of
// §3.3; the owner calls it periodically. Concurrent calls are serialized:
// interleaved purges could otherwise clobber each other's checkpoint.
func (w *WAL) Purge() (dropped int, err error) {
	w.purgeMu.Lock()
	defer w.purgeMu.Unlock()

	// Journal the purge's outcome on every exit path that did work or
	// failed; a no-op scan (nothing droppable) stays silent.
	start := time.Now()
	defer func() {
		if dropped > 0 || err != nil {
			w.journal.Emit("wal.purge", start, err, map[string]any{"segments_dropped": dropped})
		}
	}()
	plan, err := w.scanPurge()
	if err != nil {
		return 0, err
	}
	return w.applyPurge(plan)
}

// purgePlan is what a purge scan found droppable.
type purgePlan struct {
	drop []int // closed segments whose sample entries are all flushed
	// active is set when the active segment, activeIdx holding activeSize
	// bytes at the scan, has records and all are flushed.
	active                bool
	activeIdx, activeSize int
}

// scanPurge scans every segment against a snapshot of the flushed
// sequences, without holding w.mu. It reads the active segment only up to
// the length it snapshotted: a record past it may be half copied.
func (w *WAL) scanPurge() (purgePlan, error) {
	var p purgePlan
	w.mu.Lock()
	p.activeIdx, p.activeSize = w.segIdx, w.seg.Len()
	flushed := make(map[uint64]uint64, len(w.flushedSeq))
	for k, v := range w.flushedSeq {
		flushed[k] = v
	}
	w.mu.Unlock()

	segs, err := w.segmentIndexes()
	if err != nil {
		return p, err
	}
	for _, idx := range segs {
		if idx > p.activeIdx || idx == p.activeIdx && p.activeSize == 0 {
			continue
		}
		limit := int64(-1)
		if idx == p.activeIdx {
			limit = int64(p.activeSize)
		}
		obsolete, err := segmentObsolete(w.segPath(idx), limit, flushed)
		if err != nil {
			return p, err
		}
		switch {
		case !obsolete:
		case idx == p.activeIdx:
			p.active = true
		default:
			p.drop = append(p.drop, idx)
		}
	}
	return p, nil
}

// applyPurge drops what p found. One checkpoint covers every removal: the
// flushed snapshot the scan used is dominated by flushedSeq, so the
// dropped segments' flush marks survive in the checkpoint no matter where
// a crash interleaves. The active segment goes only if the scan saw all of
// it: nothing was appended or staged since, and the log is healthy.
func (w *WAL) applyPurge(p purgePlan) (dropped int, err error) {
	w.mu.Lock()
	active := p.active && w.segIdx == p.activeIdx && w.seg.Len() == p.activeSize && w.pendingN == 0 && w.failed == nil
	if len(p.drop) == 0 && !active {
		w.mu.Unlock()
		return 0, nil
	}
	err = w.writeCheckpoint()
	if err == nil && active {
		err = w.rollLocked(0)
		p.drop = append(p.drop, p.activeIdx)
	}
	w.mu.Unlock()
	if err != nil {
		return 0, err
	}
	for _, idx := range p.drop {
		if rerr := os.Remove(w.segPath(idx)); rerr != nil {
			return dropped, fmt.Errorf("wal: drop segment: %w", rerr)
		}
		dropped++
		w.mPurged.Inc()
	}
	return dropped, nil
}

// segmentObsolete reports whether every sample entry in the segment's first
// limit bytes (all of it if limit < 0) is at or below its series' flushed
// sequence.
func segmentObsolete(path string, limit int64, flushed map[uint64]uint64) (bool, error) {
	obsolete := true
	err := scanEntries(path, limit, func(e *entry) error {
		if e.typ != recFlushMark && e.seq > flushed[e.id] {
			obsolete = false
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	return obsolete, nil
}

// entry is one decoded segment entry. id is the series ID or, for a group
// round, the group ID; slots and vals are set for group rounds only.
type entry struct {
	typ   byte
	id    uint64
	seq   uint64
	t     int64
	v     float64
	slots []uint32
	vals  []float64
}

// errOrphanContinuation reports a recSampleNext entry with no sample
// before it in its record: the log was written wrong, not torn.
var errOrphanContinuation = errors.New("wal: continuation entry without a sample before it")

// scanEntries calls fn for every entry of every record in a segment's first
// limit bytes (all of it if limit < 0), in file order; a recSampleNext
// entry is passed to fn as the recSample it stands for. An error from a
// record, an entry the decoder rejects or fn's own, names the segment. The
// entry passed to fn, slots and vals included, is reused from one call to
// the next.
func scanEntries(path string, limit int64, fn func(*entry) error) error {
	var e entry
	_, err := scanRecords(path, limit, func(payload []byte) error {
		if err := decodeRecord(payload, &e, fn); err != nil {
			return fmt.Errorf("wal: segment %s: %w", path, err)
		}
		return nil
	})
	return err
}

// decodeRecord is scanEntries for one record's payload, decoding into e.
func decodeRecord(payload []byte, e *entry, fn func(*entry) error) error {
	d := encoding.NewDecbuf(payload)
	e.typ = 0 // no entry of this record precedes the first
	for d.Len() > 0 {
		switch typ := d.Byte(); typ {
		case recSampleNext:
			// e still holds the sample this one continues.
			if e.typ != recSample {
				return errOrphanContinuation
			}
			e.id++
			e.v = math.Float64frombits(d.BE64())
		case recSample, recGroupSample, recFlushMark:
			e.typ = typ
			e.id = d.Uvarint()
			e.seq = d.Uvarint()
			switch typ {
			case recSample:
				e.t = d.Varint()
				e.v = math.Float64frombits(d.BE64())
			case recGroupSample:
				e.t = d.Varint()
				n := d.Uvarint()
				e.slots, e.vals = e.slots[:0], e.vals[:0]
				for i := uint64(0); i < n && d.Err() == nil; i++ {
					e.slots = append(e.slots, uint32(d.Uvarint()))
					e.vals = append(e.vals, math.Float64frombits(d.BE64()))
				}
			}
		default:
			return fmt.Errorf("wal: unknown segment entry type %d", typ)
		}
		if err := d.Err(); err != nil {
			return err
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	return nil
}

// scanRecords reads the first limit bytes (all of it if limit < 0) of a
// record-framed file, stops cleanly at the end of what was written and
// returns that end: the offset past the last whole record. A segment that
// was mapped and not trimmed (a crash, CrashClose) ends in zeros, so that
// end is a zero byte at a record boundary with only zeros after it (no
// record starts with one: a payload is never empty), or a torn record, cut
// off by the end of the file or followed only by zeros. A bad record or a
// zero boundary with non-zero bytes after it returns a *CorruptionError
// with its offset: data after the damage would otherwise be dropped without
// anyone noticing.
func scanRecords(path string, limit int64, fn func(payload []byte) error) (end int64, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: read %s: %w", path, err)
	}
	if limit >= 0 && int64(len(data)) > limit {
		data = data[:limit]
	}
	d := encoding.NewDecbuf(data)
	for d.Len() > 0 {
		start := int64(len(data) - d.Len())
		if data[start] == 0 {
			if allZero(d.B) {
				return start, nil // the unwritten tail of a mapped segment
			}
			return start, &CorruptionError{Segment: path, Offset: start}
		}
		n := d.Uvarint()
		crc := d.BE32()
		payload := d.Bytes(int(n))
		if d.Err() != nil {
			return start, nil // frame extends past EOF: torn tail, stop
		}
		if crc32.Checksum(payload, crcTable) != crc {
			if allZero(d.B) {
				return start, nil // torn final record: stop
			}
			return start, &CorruptionError{Segment: path, Offset: start}
		}
		if err := fn(payload); err != nil {
			return start, err
		}
	}
	return int64(len(data)), nil
}

// LoggedEnd returns the end of what was written to the log file at path:
// the offset past its last whole record. A torn record or the zero tail of
// a segment a crash left mapped may follow it. Damage followed by more
// records is a *CorruptionError.
func LoggedEnd(path string) (int64, error) {
	return scanRecords(path, -1, func([]byte) error { return nil })
}

// allZero reports whether b holds only zero bytes.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// --- recovery ---

// SeriesDef is a recovered series definition.
type SeriesDef struct {
	ID     uint64
	Labels labels.Labels
}

// GroupDef is a recovered group definition.
type GroupDef struct {
	GID       uint64
	GroupTags labels.Labels
}

// MemberDef is a recovered group-member definition.
type MemberDef struct {
	GID    uint64
	Slot   uint32
	Unique labels.Labels
}

// SampleRec is a recovered unflushed sample.
type SampleRec struct {
	ID  uint64
	Seq uint64
	T   int64
	V   float64
}

// GroupSampleRec is a recovered unflushed group insertion round.
type GroupSampleRec struct {
	GID   uint64
	Seq   uint64
	T     int64
	Slots []uint32
	Vals  []float64
}

// Handler receives recovered state in replay order.
type Handler struct {
	Series      func(SeriesDef) error
	Group       func(GroupDef) error
	Member      func(MemberDef) error
	Sample      func(SampleRec) error
	GroupSample func(GroupSampleRec) error
}

// repairCorruption scans every log file for mid-file corruption and
// truncates each damaged file at its first bad record, recording the
// repair. Records after the damage are unrecoverable either way; the
// truncate re-establishes the "clean prefix" invariant so later scans and
// purges run on well-formed files, and the surfaced CorruptionError list
// tells the operator data was lost to damage rather than silently
// swallowing it. Every file but the active segment is also trimmed to the
// end of its last whole record, without a report: what a crash left after
// it (a torn record, a segment's zero tail) is no record, a catalog
// definition appended after it would read as damage, and a segment's
// size then counts logged bytes only. The trim is not synced; a tail that
// comes back is read the same way.
func (w *WAL) repairCorruption() error {
	paths := []string{filepath.Join(w.dir, "catalog.wal")}
	segs, err := w.segmentIndexes()
	if err != nil {
		return err
	}
	for _, idx := range segs {
		paths = append(paths, w.segPath(idx))
	}
	active := w.segPath(w.segIdx)
	for _, path := range paths {
		end, err := LoggedEnd(path)
		var ce *CorruptionError
		if errors.As(err, &ce) {
			if err := os.Truncate(path, ce.Offset); err != nil {
				return fmt.Errorf("wal: repair %s: %w", path, err)
			}
			w.mu.Lock()
			w.repaired = append(w.repaired, *ce)
			w.mu.Unlock()
			// One event per damaged file, not one per repair pass: each
			// truncate is its own loss incident the operator must see, and
			// the emit sits after the truncate succeeded so the journal never
			// claims a repair that didn't happen.
			//lint:ignore journalcover per-file repair events are intentional; a single deferred emit would collapse distinct loss incidents
			w.journal.Emit("wal.repair_truncate", time.Now(), nil, map[string]any{
				"segment": filepath.Base(ce.Segment), "offset": ce.Offset,
			})
			continue
		}
		if err != nil {
			return err
		}
		if path == active {
			continue
		}
		if info, err := os.Stat(path); err == nil && info.Size() > end {
			if err := os.Truncate(path, end); err != nil {
				return fmt.Errorf("wal: trim %s: %w", path, err)
			}
		}
	}
	return nil
}

// CorruptionsRepaired returns the mid-file corruptions Recover found and
// truncated away, oldest first.
func (w *WAL) CorruptionsRepaired() []CorruptionError {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]CorruptionError(nil), w.repaired...)
}

// Recover replays the catalog and all unflushed samples. It must be called
// on a freshly opened WAL before new writes. Damaged files are repaired
// (truncated at the first corrupt record) before replay; the repairs are
// reported by CorruptionsRepaired.
func (w *WAL) Recover(h Handler) error {
	if err := w.repairCorruption(); err != nil {
		return err
	}
	// Catalog first: definitions precede any samples referencing them.
	_, err := scanRecords(filepath.Join(w.dir, "catalog.wal"), -1, func(p []byte) error {
		d := encoding.NewDecbuf(p)
		switch d.Byte() {
		case recSeries:
			id := d.Uvarint()
			ls, _, err := labels.DecodeLabels(d.B)
			if err != nil {
				return err
			}
			if h.Series != nil {
				return h.Series(SeriesDef{ID: id, Labels: ls})
			}
		case recGroup:
			gid := d.Uvarint()
			ls, _, err := labels.DecodeLabels(d.B)
			if err != nil {
				return err
			}
			if h.Group != nil {
				return h.Group(GroupDef{GID: gid, GroupTags: ls})
			}
		case recGroupMember:
			gid := d.Uvarint()
			slot := uint32(d.Uvarint())
			ls, _, err := labels.DecodeLabels(d.B)
			if err != nil {
				return err
			}
			if h.Member != nil {
				return h.Member(MemberDef{GID: gid, Slot: slot, Unique: ls})
			}
		}
		return d.Err()
	})
	if err != nil {
		return err
	}

	segs, err := w.segmentIndexes()
	if err != nil {
		return err
	}
	// Pass 1: collect flush marks (they may appear after the samples they
	// obsolete).
	flushed := make(map[uint64]uint64, len(w.flushedSeq))
	w.mu.Lock()
	for k, v := range w.flushedSeq {
		flushed[k] = v
	}
	w.mu.Unlock()
	for _, idx := range segs {
		err := scanEntries(w.segPath(idx), -1, func(e *entry) error {
			if e.typ == recFlushMark && e.seq > flushed[e.id] {
				flushed[e.id] = e.seq
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	w.mu.Lock()
	for k, v := range flushed {
		if v > w.flushedSeq[k] {
			w.flushedSeq[k] = v
		}
	}
	w.mu.Unlock()

	// Pass 2: replay unflushed samples in order.
	for _, idx := range segs {
		err := scanEntries(w.segPath(idx), -1, func(e *entry) error {
			if e.typ == recFlushMark || e.seq <= flushed[e.id] {
				return nil
			}
			switch {
			case e.typ == recSample && h.Sample != nil:
				return h.Sample(SampleRec{ID: e.id, Seq: e.seq, T: e.t, V: e.v})
			case e.typ == recGroupSample && h.GroupSample != nil:
				return h.GroupSample(GroupSampleRec{
					GID:   e.id,
					Seq:   e.seq,
					T:     e.t,
					Slots: append([]uint32(nil), e.slots...),
					Vals:  append([]float64(nil), e.vals...),
				})
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// FlushedSeq returns the known flushed sequence for id (0 if none).
func (w *WAL) FlushedSeq(id uint64) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushedSeq[id]
}

// SizeBytes returns the logged WAL bytes: the catalog, the checkpoint, the
// closed segments, and the active segment's appended bytes, not the extent
// allocated ahead of them. A segment a crash left with a zero tail counts
// its logged bytes too once Recover has trimmed it.
func (w *WAL) SizeBytes() int64 {
	w.mu.Lock()
	active, appended := filepath.Base(w.segPath(w.segIdx)), int64(w.seg.Len())
	w.mu.Unlock()
	var total int64
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if e.Name() == active {
			total += appended
		} else if info, err := e.Info(); err == nil && !e.IsDir() {
			total += info.Size()
		}
	}
	return total
}
