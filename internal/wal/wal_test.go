package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"timeunion/internal/labels"
)

func openTestWAL(t testing.TB, dir string, segSize int) *WAL {
	t.Helper()
	w, err := Open(dir, Options{SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestLogAndRecover(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 0)

	ls1 := labels.FromStrings("metric", "cpu", "host", "h1")
	gTags := labels.FromStrings("hostname", "host_0")
	m0 := labels.FromStrings("metric", "usage_user")

	if err := w.LogSeries(1, ls1); err != nil {
		t.Fatal(err)
	}
	if err := w.LogGroup(1<<63|1, gTags); err != nil {
		t.Fatal(err)
	}
	if err := w.LogGroupMember(1<<63|1, 0, m0); err != nil {
		t.Fatal(err)
	}
	if err := w.LogSample(1, 1, 1000, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := w.LogSample(1, 2, 2000, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := w.LogGroupSample(1<<63|1, 1, 1000, []uint32{0}, []float64{9.9}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and replay.
	w2 := openTestWAL(t, dir, 0)
	defer w2.Close()
	var series []SeriesDef
	var groups []GroupDef
	var members []MemberDef
	var samples []SampleRec
	var gsamples []GroupSampleRec
	err := w2.Recover(Handler{
		Series:      func(s SeriesDef) error { series = append(series, s); return nil },
		Group:       func(g GroupDef) error { groups = append(groups, g); return nil },
		Member:      func(m MemberDef) error { members = append(members, m); return nil },
		Sample:      func(s SampleRec) error { samples = append(samples, s); return nil },
		GroupSample: func(g GroupSampleRec) error { gsamples = append(gsamples, g); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || series[0].ID != 1 || !series[0].Labels.Equal(ls1) {
		t.Fatalf("series = %+v", series)
	}
	if len(groups) != 1 || groups[0].GID != 1<<63|1 || !groups[0].GroupTags.Equal(gTags) {
		t.Fatalf("groups = %+v", groups)
	}
	if len(members) != 1 || members[0].Slot != 0 || !members[0].Unique.Equal(m0) {
		t.Fatalf("members = %+v", members)
	}
	if len(samples) != 2 || samples[0].T != 1000 || samples[1].V != 0.7 {
		t.Fatalf("samples = %+v", samples)
	}
	if len(gsamples) != 1 || gsamples[0].Vals[0] != 9.9 {
		t.Fatalf("group samples = %+v", gsamples)
	}
}

func TestFlushMarkSkipsReplay(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 0)
	for seq := uint64(1); seq <= 10; seq++ {
		if err := w.LogSample(7, seq, int64(seq)*1000, float64(seq)); err != nil {
			t.Fatal(err)
		}
	}
	// Mark 1..6 flushed; note the mark arrives after the samples.
	if err := w.LogFlushMarks([]FlushMark{{ID: 7, Seq: 6}}); err != nil {
		t.Fatal(err)
	}
	if w.FlushedSeq(7) != 6 {
		t.Fatalf("FlushedSeq = %d", w.FlushedSeq(7))
	}
	w.Close()

	w2 := openTestWAL(t, dir, 0)
	defer w2.Close()
	var seqs []uint64
	err := w2.Recover(Handler{Sample: func(s SampleRec) error {
		seqs = append(seqs, s.Seq)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 4 || seqs[0] != 7 || seqs[3] != 10 {
		t.Fatalf("replayed seqs = %v", seqs)
	}
}

func TestSegmentRollAndPurge(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 256) // tiny segments force rolling
	for seq := uint64(1); seq <= 100; seq++ {
		if err := w.LogSample(1, seq, int64(seq), 1); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore, err := w.segmentIndexes()
	if err != nil {
		t.Fatal(err)
	}
	if len(segsBefore) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(segsBefore))
	}
	// Nothing flushed: purge must drop nothing.
	n, err := w.Purge()
	if err != nil || n != 0 {
		t.Fatalf("purge before flush = %d, %v", n, err)
	}
	// Flush everything: all closed segments become droppable.
	if err := w.LogFlushMarks([]FlushMark{{ID: 1, Seq: 100}}); err != nil {
		t.Fatal(err)
	}
	n, err = w.Purge()
	if err != nil {
		t.Fatal(err)
	}
	if n < len(segsBefore)-1 {
		t.Fatalf("purged %d of %d segments", n, len(segsBefore))
	}
	w.Close()

	// After purge + checkpoint, recovery replays nothing stale.
	w2 := openTestWAL(t, dir, 256)
	defer w2.Close()
	count := 0
	if err := w2.Recover(Handler{Sample: func(SampleRec) error { count++; return nil }}); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("replayed %d flushed samples", count)
	}
	if w2.FlushedSeq(1) != 100 {
		t.Fatalf("checkpoint lost: FlushedSeq = %d", w2.FlushedSeq(1))
	}
}

func TestPartialFlushKeepsSegment(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 1<<20)
	for seq := uint64(1); seq <= 10; seq++ {
		if err := w.LogSample(1, seq, int64(seq), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.LogFlushMarks([]FlushMark{{ID: 1, Seq: 5}}); err != nil {
		t.Fatal(err)
	}
	// Force a roll so the mixed segment is closed.
	w.mu.Lock()
	w.seg.Close()
	w.segIdx++
	if err := w.openSegment(0); err != nil {
		w.mu.Unlock()
		t.Fatal(err)
	}
	w.mu.Unlock()
	n, err := w.Purge()
	if err != nil || n != 0 {
		t.Fatalf("purge dropped mixed segment: %d, %v", n, err)
	}
	w.Close()
}

func TestTruncatedTailTolerated(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 1<<20)
	for seq := uint64(1); seq <= 5; seq++ {
		if err := w.LogSample(3, seq, int64(seq), 2); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Simulate a crash mid-write: truncate the segment.
	segs, _ := os.ReadDir(dir)
	for _, e := range segs {
		if e.Name() == "catalog.wal" || e.Name() == "checkpoint" {
			continue
		}
		p := filepath.Join(dir, e.Name())
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(p, fi.Size()-3); err != nil {
			t.Fatal(err)
		}
	}

	w2 := openTestWAL(t, dir, 1<<20)
	defer w2.Close()
	count := 0
	if err := w2.Recover(Handler{Sample: func(SampleRec) error { count++; return nil }}); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("replayed %d samples after truncation, want 4", count)
	}
}

func TestCorruptRecordStopsScan(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 1<<20)
	for seq := uint64(1); seq <= 5; seq++ {
		if err := w.LogSample(3, seq, int64(seq), 2); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Flip a byte in the middle of the segment: CRC must stop the scan.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.Name() == "catalog.wal" || e.Name() == "checkpoint" {
			continue
		}
		p := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w2 := openTestWAL(t, dir, 1<<20)
	defer w2.Close()
	count := 0
	if err := w2.Recover(Handler{Sample: func(SampleRec) error { count++; return nil }}); err != nil {
		t.Fatal(err)
	}
	if count >= 5 {
		t.Fatalf("corrupt record not detected: %d samples", count)
	}
}

func TestGroupSampleValidation(t *testing.T) {
	w := openTestWAL(t, t.TempDir(), 0)
	defer w.Close()
	if err := w.LogGroupSample(1, 1, 0, []uint32{0, 1}, []float64{1}); err == nil {
		t.Fatal("mismatched slots/vals accepted")
	}
}

func TestSizeBytes(t *testing.T) {
	w := openTestWAL(t, t.TempDir(), 0)
	defer w.Close()
	if err := w.LogSample(1, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// Only the segment holds bytes, and it counts what was logged, not
	// the extent allocated ahead of it.
	if got, want := w.SizeBytes(), appended(w); got != want || want == 0 {
		t.Fatalf("SizeBytes = %d, want the %d logged bytes", got, want)
	}
}

// TestTornWriteEveryBoundary cuts the tail of the last record at every byte
// boundary — the full space of torn writes a crash can leave — and asserts
// recovery keeps every earlier record, reports no corruption, and never
// fails.
func TestTornWriteEveryBoundary(t *testing.T) {
	// Build a reference log and capture the segment size after each record.
	refDir := t.TempDir()
	w := openTestWAL(t, refDir, 0)
	const samples = 5
	var sizes []int64 // sizes[i] = logged segment bytes after i+1 records
	segPath := w.segPath(w.segIdx)
	for seq := uint64(1); seq <= samples; seq++ {
		if err := w.LogSample(3, seq, int64(seq)*100, float64(seq)); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, appended(w))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segData, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	catData, err := os.ReadFile(filepath.Join(refDir, "catalog.wal"))
	if err != nil {
		t.Fatal(err)
	}

	for cut := sizes[samples-2]; cut <= sizes[samples-1]; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "catalog.wal"), catData, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segPath)), segData[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2 := openTestWAL(t, dir, 0)
		var seqs []uint64
		err := w2.Recover(Handler{Sample: func(s SampleRec) error {
			seqs = append(seqs, s.Seq)
			return nil
		}})
		if err != nil {
			t.Fatalf("cut=%d: recover: %v", cut, err)
		}
		if len(w2.CorruptionsRepaired()) != 0 {
			t.Fatalf("cut=%d: torn tail misclassified as corruption: %v", cut, w2.CorruptionsRepaired())
		}
		want := samples - 1
		if cut == sizes[samples-1] {
			want = samples // nothing torn
		}
		if len(seqs) != want {
			t.Fatalf("cut=%d: recovered %d samples, want %d (%v)", cut, len(seqs), want, seqs)
		}
		for i, seq := range seqs {
			if seq != uint64(i+1) {
				t.Fatalf("cut=%d: recovered seqs %v", cut, seqs)
			}
		}
		w2.Close()
	}
}

// TestMidFileCorruptionRepaired flips a byte inside an early record (bytes
// follow it, so this is damage, not a torn tail) and checks that recovery
// surfaces it via CorruptionsRepaired, truncates the file at the bad
// record, and replays the clean prefix.
func TestMidFileCorruptionRepaired(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 0)
	var sizes []int64
	segPath := w.segPath(w.segIdx)
	for seq := uint64(1); seq <= 6; seq++ {
		if err := w.LogSample(9, seq, int64(seq), float64(seq)); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, appended(w))
	}
	w.Close()

	// Corrupt record 4 (payload region between sizes[2] and sizes[3]).
	f, err := os.OpenFile(segPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := sizes[2] + (sizes[3]-sizes[2])/2
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2 := openTestWAL(t, dir, 0)
	defer w2.Close()
	var seqs []uint64
	err = w2.Recover(Handler{Sample: func(s SampleRec) error {
		seqs = append(seqs, s.Seq)
		return nil
	}})
	if err != nil {
		t.Fatalf("recover after corruption: %v", err)
	}
	repairs := w2.CorruptionsRepaired()
	if len(repairs) != 1 {
		t.Fatalf("repairs = %v, want 1", repairs)
	}
	if repairs[0].Segment != segPath || repairs[0].Offset != sizes[2] {
		t.Fatalf("repair = %+v, want offset %d in %s", repairs[0], sizes[2], segPath)
	}
	if len(seqs) != 3 || seqs[2] != 3 {
		t.Fatalf("replayed seqs = %v, want [1 2 3]", seqs)
	}
	info, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != sizes[2] {
		t.Fatalf("file not truncated at damage: size %d, want %d", info.Size(), sizes[2])
	}
}

// TestConcurrentPurge runs overlapping purges; serialization must keep the
// checkpoint consistent and each segment removed exactly once.
func TestConcurrentPurge(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 128) // tiny segments: many rolls
	for seq := uint64(1); seq <= 200; seq++ {
		if err := w.LogSample(5, seq, int64(seq), float64(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.LogFlushMarks([]FlushMark{{ID: 5, Seq: 200}}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	total := make([]int, 4)
	for i := range total {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := w.Purge()
			if err != nil {
				t.Errorf("purge: %v", err)
			}
			total[i] = n
		}(i)
	}
	wg.Wait()
	sum := 0
	for _, n := range total {
		sum += n
	}
	segs, err := w.segmentIndexes()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("segments after purge = %v, want only the active one", segs)
	}
	if sum == 0 {
		t.Fatal("no segments purged")
	}
	w.Close()

	// The checkpoint must carry the flush marks the purged segments held.
	w2 := openTestWAL(t, dir, 128)
	defer w2.Close()
	if got := w2.FlushedSeq(5); got != 200 {
		t.Fatalf("checkpoint flushedSeq = %d, want 200", got)
	}
	var replayed int
	if err := w2.Recover(Handler{Sample: func(SampleRec) error { replayed++; return nil }}); err != nil {
		t.Fatal(err)
	}
	if replayed != 0 {
		t.Fatalf("replayed %d flushed samples, want 0", replayed)
	}
}

// TestPurgeDropsFlushedActiveSegment: an active segment whose samples are
// all flushed is rolled and dropped, and what follows lands in its
// replacement; an empty active segment is left alone.
func TestPurgeDropsFlushedActiveSegment(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 0)
	if n, err := w.Purge(); err != nil || n != 0 {
		t.Fatalf("purge of an empty log dropped %d (err %v), want 0", n, err)
	}
	first := w.segPath(w.segIdx)
	logOne(t, w, 1, 1)
	if err := w.LogFlushMarks([]FlushMark{{ID: 1, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	if n, err := w.Purge(); err != nil || n != 1 {
		t.Fatalf("purge dropped %d (err %v), want 1: the flushed active segment", n, err)
	}
	if _, err := os.Stat(first); !os.IsNotExist(err) {
		t.Fatalf("flushed active segment kept: stat error %v", err)
	}
	logOne(t, w, 1, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openTestWAL(t, dir, 0)
	defer w2.Close()
	if got, want := recoverAll(t, w2), []replayed{{1, 2, 20}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
}

// TestPurgeKeepsActiveSegmentChangedAfterScan: an append or a staged entry
// between the purge's scan and its drop keeps the active segment.
func TestPurgeKeepsActiveSegmentChangedAfterScan(t *testing.T) {
	for name, write := range map[string]func(w *WAL){
		"appended": func(w *WAL) { logOne(t, w, 1, 2) },
		"staged":   func(w *WAL) { stage(t, w, 1, 2) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w := openTestWAL(t, dir, 0)
			path := w.segPath(w.segIdx)
			logOne(t, w, 1, 1)
			if err := w.LogFlushMarks([]FlushMark{{ID: 1, Seq: 1}}); err != nil {
				t.Fatal(err)
			}
			plan, err := w.scanPurge()
			if err != nil || !plan.active {
				t.Fatalf("scan found the flushed active segment droppable = %v (err %v), want true", plan.active, err)
			}
			write(w)
			if n, err := w.applyPurge(plan); err != nil || n != 0 {
				t.Fatalf("purge dropped %d (err %v) after a write, want 0", n, err)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("active segment dropped: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w2 := openTestWAL(t, dir, 0)
			defer w2.Close()
			if got, want := recoverAll(t, w2), []replayed{{1, 2, 20}}; !reflect.DeepEqual(got, want) {
				t.Fatalf("replayed %v, want %v", got, want)
			}
		})
	}
}
