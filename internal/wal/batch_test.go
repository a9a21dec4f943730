package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// replayed is one recovered entry, flattened for comparison.
type replayed struct {
	id, seq uint64
	t       int64
}

func recoverAll(t *testing.T, w *WAL) []replayed {
	t.Helper()
	var got []replayed
	err := w.Recover(Handler{
		Sample: func(s SampleRec) error {
			got = append(got, replayed{s.ID, s.Seq, s.T})
			return nil
		},
		GroupSample: func(g GroupSampleRec) error {
			got = append(got, replayed{g.GID, g.Seq, g.T})
			return nil
		},
	})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return got
}

func countRecords(t *testing.T, path string) int {
	t.Helper()
	n := 0
	if _, err := scanRecords(path, -1, func([]byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

// recordShapes returns the entry types of each record in a segment, in file
// order; a continuation entry shows as the recSample it stands for.
func recordShapes(t *testing.T, path string) [][]byte {
	t.Helper()
	var shapes [][]byte
	var e entry
	_, err := scanRecords(path, -1, func(p []byte) error {
		var types []byte
		err := decodeRecord(p, &e, func(e *entry) error {
			types = append(types, e.typ)
			return nil
		})
		shapes = append(shapes, types)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return shapes
}

// appended returns the active segment's logged bytes: its file holds the
// allocated extent ahead of them too.
func appended(w *WAL) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return int64(w.seg.Len())
}

func segSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func stage(t *testing.T, w *WAL, id, seq uint64) {
	t.Helper()
	if err := w.StageSample(id, seq, int64(seq)*10, float64(seq)); err != nil {
		t.Fatal(err)
	}
}

func logOne(t *testing.T, w *WAL, id, seq uint64) {
	t.Helper()
	if err := w.LogSample(id, seq, int64(seq)*10, float64(seq)); err != nil {
		t.Fatal(err)
	}
}

// writeBatchLog writes a single-entry record, a three-entry batch (two
// samples and a group round) and, if trailer is set, another single-entry
// record. It returns the segment path and its size after each record.
func writeBatchLog(t *testing.T, dir string, trailer bool) (string, []int64) {
	t.Helper()
	w := openTestWAL(t, dir, 0)
	path := w.segPath(w.segIdx)
	var sizes []int64
	logOne(t, w, 1, 1)
	sizes = append(sizes, appended(w))
	stage(t, w, 1, 2)
	stage(t, w, 2, 1)
	if err := w.StageGroupSample(1<<63|1, 1, 30, []uint32{0, 2}, []float64{1.5, 2.5}); err != nil {
		t.Fatal(err)
	}
	if got := appended(w); got != sizes[0] {
		t.Fatalf("staged entries reached the file before Commit: size %d, want %d", got, sizes[0])
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	sizes = append(sizes, appended(w))
	if trailer {
		logOne(t, w, 1, 3)
		sizes = append(sizes, appended(w))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, sizes
}

func TestBatchRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeBatchLog(t, dir, true)
	if n := countRecords(t, path); n != 3 {
		t.Fatalf("segment holds %d records, want 3 (single, batch, single)", n)
	}
	w := openTestWAL(t, dir, 0)
	defer w.Close()
	var groups []GroupSampleRec
	got := []replayed{}
	err := w.Recover(Handler{
		Sample: func(s SampleRec) error {
			got = append(got, replayed{s.ID, s.Seq, s.T})
			return nil
		},
		GroupSample: func(g GroupSampleRec) error {
			got = append(got, replayed{g.GID, g.Seq, g.T})
			groups = append(groups, g)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []replayed{{1, 1, 10}, {1, 2, 20}, {2, 1, 10}, {1<<63 | 1, 1, 30}, {1, 3, 30}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	if len(groups) != 1 || !reflect.DeepEqual(groups[0].Slots, []uint32{0, 2}) || !reflect.DeepEqual(groups[0].Vals, []float64{1.5, 2.5}) {
		t.Fatalf("group round = %+v", groups)
	}
}

// TestTornBatchEveryBoundary cuts a batch record at every byte: recovery
// keeps the record before it and none of the batch's entries.
func TestTornBatchEveryBoundary(t *testing.T) {
	refDir := t.TempDir()
	path, sizes := writeBatchLog(t, refDir, false)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := sizes[0]; cut <= sizes[1]; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(path)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w := openTestWAL(t, dir, 0)
		got := recoverAll(t, w)
		if len(w.CorruptionsRepaired()) != 0 {
			t.Fatalf("cut=%d: torn batch misclassified as corruption: %v", cut, w.CorruptionsRepaired())
		}
		want := 1
		if cut == sizes[1] {
			want = 4
		}
		if len(got) != want || got[0] != (replayed{1, 1, 10}) {
			t.Fatalf("cut=%d: replayed %v, want the first %d entries", cut, got, want)
		}
		w.Close()
	}
}

// TestCorruptBatchRepaired flips a byte inside a batch that has a record
// after it: that is damage, reported at the batch's offset and truncated
// there.
func TestCorruptBatchRepaired(t *testing.T) {
	dir := t.TempDir()
	path, sizes := writeBatchLog(t, dir, true)
	for off := sizes[0]; off < sizes[1]; off++ {
		cdir := t.TempDir()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[off] ^= 0xFF
		cpath := filepath.Join(cdir, filepath.Base(path))
		if err := os.WriteFile(cpath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = scanRecords(cpath, -1, func([]byte) error { return nil })
		var ce *CorruptionError
		if !errors.As(err, &ce) || ce.Offset != sizes[0] {
			// A flipped length byte can reframe the rest of the file as
			// one record that runs past EOF: a torn tail, not damage.
			if err == nil && off < sizes[0]+2 {
				continue
			}
			t.Fatalf("off=%d: scan error %v, want CorruptionError at %d", off, err, sizes[0])
		}
		w := openTestWAL(t, cdir, 0)
		got := recoverAll(t, w)
		if r := w.CorruptionsRepaired(); len(r) != 1 || r[0].Offset != sizes[0] {
			t.Fatalf("off=%d: repairs %v, want one at %d", off, r, sizes[0])
		}
		if !reflect.DeepEqual(got, []replayed{{1, 1, 10}}) {
			t.Fatalf("off=%d: replayed %v, want only the record before the batch", off, got)
		}
		if size := segSize(t, cpath); size != sizes[0] {
			t.Fatalf("off=%d: segment size %d after repair, want %d", off, size, sizes[0])
		}
		w.Close()
	}
}

// TestPurgeKeepsBatchWithOneUnflushedEntry: a closed segment whose batch
// holds a single entry above its series' flushed sequence stays, while the
// active segment, holding only flush marks, goes.
func TestPurgeKeepsBatchWithOneUnflushedEntry(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 64) // the batch alone fills a segment
	defer w.Close()
	for seq := uint64(1); seq <= 4; seq++ {
		stage(t, w, 1, seq)
	}
	stage(t, w, 2, 1)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if w.segIdx != 2 {
		t.Fatalf("batch did not roll the segment (active %d)", w.segIdx)
	}
	batchSeg := w.segPath(1)
	if err := w.LogFlushMarks([]FlushMark{{ID: 1, Seq: 4}}); err != nil {
		t.Fatal(err)
	}
	if n, err := w.Purge(); err != nil || n != 1 {
		t.Fatalf("purge dropped %d (err %v) with series 2 seq 1 unflushed, want 1 (the marks-only active segment)", n, err)
	}
	if _, err := os.Stat(batchSeg); err != nil {
		t.Fatalf("segment with an unflushed entry was dropped: %v", err)
	}
	if err := w.LogFlushMarks([]FlushMark{{ID: 2, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	if n, err := w.Purge(); err != nil || n != 2 {
		t.Fatalf("purge dropped %d (err %v) once every entry is flushed, want 2", n, err)
	}
	if _, err := os.Stat(batchSeg); !os.IsNotExist(err) {
		t.Fatalf("flushed segment kept: stat error %v", err)
	}
}

// TestSingleSampleCommitsPendingBatch: a single-sample write for series X
// while a batch holding X is pending is staged after the batch and commits
// it, so replay is in sequence order.
func TestSingleSampleCommitsPendingBatch(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 0)
	path := w.segPath(w.segIdx)
	stage(t, w, 7, 1)
	stage(t, w, 8, 1)
	logOne(t, w, 7, 2)
	if n := countRecords(t, path); n != 1 {
		t.Fatalf("segment holds %d records, want 1 (the batch, the single sample last)", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openTestWAL(t, dir, 0)
	defer w2.Close()
	want := []replayed{{7, 1, 10}, {8, 1, 10}, {7, 2, 20}}
	if got := recoverAll(t, w2); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
}

// TestFlushMarkCommitsPendingBatch: one LogFlushMarks call stages its
// marks behind the pending batch and commits them with it, so a flush mark
// never precedes, in the file, a staged sample it covers.
func TestFlushMarkCommitsPendingBatch(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 0)
	path := w.segPath(w.segIdx)
	stage(t, w, 3, 1)
	stage(t, w, 3, 2)
	if err := w.LogFlushMarks([]FlushMark{{ID: 3, Seq: 1}, {ID: 4, Seq: 9}}); err != nil {
		t.Fatal(err)
	}
	want := [][]byte{{recSample, recSample, recFlushMark, recFlushMark}}
	if got := recordShapes(t, path); !reflect.DeepEqual(got, want) {
		t.Fatalf("entry types per record in file order %v, want %v: one record, the marks after the batch", got, want)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openTestWAL(t, dir, 0)
	defer w2.Close()
	if got, want := recoverAll(t, w2), []replayed{{3, 2, 20}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	if got := w2.FlushedSeq(4); got != 9 {
		t.Fatalf("FlushedSeq(4) = %d, want 9", got)
	}
}

func TestSyncCommitsAndCrashCloseDropsPending(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 0)
	stage(t, w, 1, 1)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	stage(t, w, 1, 2)
	if err := w.CrashClose(); err != nil {
		t.Fatal(err)
	}
	w2 := openTestWAL(t, dir, 0)
	defer w2.Close()
	if got, want := recoverAll(t, w2), []replayed{{1, 1, 10}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v: the synced entry only", got, want)
	}
}

func TestOversizedBatchCommitsEarly(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 64<<20)
	path := w.segPath(w.segIdx)
	seq := uint64(0)
	for appended(w) == 0 {
		if seq > maxPendingBytes {
			t.Fatalf("%d staged entries and nothing written", seq)
		}
		for i := 0; i < 1024; i++ {
			seq++
			if err := w.StageSample(1, seq, int64(seq), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if size := appended(w); size < maxPendingBytes {
		t.Fatalf("early commit wrote %d bytes, want at least %d", size, maxPendingBytes)
	}
	stage(t, w, 1, seq+1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openTestWAL(t, dir, 0)
	defer w2.Close()
	got := recoverAll(t, w2)
	if uint64(len(got)) != seq+1 || got[len(got)-1].seq != seq+1 {
		t.Fatalf("replayed %d entries, want %d", len(got), seq+1)
	}
	if n := countRecords(t, path); n != 2 {
		t.Fatalf("segment holds %d records, want 2 (early commit, then the rest)", n)
	}
}

// TestFailedCommitPoisonsLog: entries a failed commit lost are already in
// the head, so every later write reports the failure.
func TestFailedCommitPoisonsLog(t *testing.T) {
	w := openTestWAL(t, t.TempDir(), 0)
	stage(t, w, 1, 1)
	if err := w.seg.Close(); err != nil { // make the next write fail
		t.Fatal(err)
	}
	if err := w.Commit(); err == nil {
		t.Fatal("commit to a closed segment succeeded")
	}
	for name, op := range map[string]func() error{
		"Commit":      w.Commit,
		"StageSample": func() error { return w.StageSample(1, 2, 2, 2) },
		"LogSample":   func() error { return w.LogSample(1, 2, 2, 2) },
		"Sync":        w.Sync,
	} {
		if err := op(); err == nil {
			t.Errorf("%s after a failed commit returned nil", name)
		}
	}
	_ = w.catalog.Close()
}

func BenchmarkCommitBatch(b *testing.B) {
	const samples = 1010
	for _, mode := range []string{"batch", "single"} {
		b.Run(mode, func(b *testing.B) {
			w, err := Open(b.TempDir(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			seq := uint64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq++
				for id := uint64(0); id < samples; id++ {
					if mode == "batch" {
						err = w.StageSample(id, seq, int64(seq), float64(id))
					} else {
						err = w.LogSample(id, seq, int64(seq), float64(id))
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				if err := w.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
		})
	}
}
