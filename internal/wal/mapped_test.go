package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"timeunion/internal/labels"
)

// TestCrashCloseKeepsZeroTail: CrashClose leaves the active segment as a
// crash does, its records followed by the zeros allocated ahead of them.
// Recovery replays every record, reports no corruption, trims the zero
// tail, and a purge reads the recovered segment up to its records only.
func TestCrashCloseKeepsZeroTail(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 0)
	path := w.segPath(w.segIdx)
	logOne(t, w, 1, 1)
	stage(t, w, 1, 2)
	stage(t, w, 2, 1)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.LogFlushMarks([]FlushMark{{ID: 9, Seq: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := w.LogGroupSample(goldenGID, 1, 30, []uint32{0, 2}, []float64{1.5, 2.5}); err != nil {
		t.Fatal(err)
	}
	logged := appended(w)
	if err := w.CrashClose(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) <= logged || !bytes.Equal(data[logged:], make([]byte, int64(len(data))-logged)) {
		t.Fatalf("crash-closed segment holds %d bytes for %d logged, want a zero tail after them", len(data), logged)
	}

	w2 := openTestWAL(t, dir, 0)
	defer w2.Close()
	want := []replayed{{1, 1, 10}, {1, 2, 20}, {2, 1, 10}, {goldenGID, 1, 30}}
	if got := recoverAll(t, w2); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	if r := w2.CorruptionsRepaired(); len(r) != 0 {
		t.Fatalf("zero tail reported as corruption: %v", r)
	}
	if size := segSize(t, path); size != logged {
		t.Fatalf("recovered crash-closed segment holds %d bytes, want its %d logged: recovery trims the zero tail", size, logged)
	}
	if got := w2.FlushedSeq(9); got != 4 {
		t.Fatalf("FlushedSeq(9) = %d, want 4", got)
	}
	if err := w2.LogFlushMarks([]FlushMark{{ID: 1, Seq: 2}, {ID: 2, Seq: 1}, {ID: goldenGID, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	if n, err := w2.Purge(); err != nil || n != 2 {
		t.Fatalf("purge dropped %d (err %v), want 2: the crash-closed segment and the marks-only active one", n, err)
	}
}

// TestTornCatalogTailTrimmed: recovery trims a torn catalog record, so a
// definition the catalog appends after it is read back whole by the next
// recovery and not reported as damage.
func TestTornCatalogTailTrimmed(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 0)
	if err := w.LogSeries(1, labels.FromStrings("m", "a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cat := filepath.Join(dir, "catalog.wal")
	whole := segSize(t, cat)
	f, err := os.OpenFile(cat, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{40, 1, 2, 3}); err != nil { // a record cut after 4 of its 45 bytes
		t.Fatal(err)
	}
	f.Close()

	defs := func(w *WAL) []uint64 {
		t.Helper()
		var ids []uint64
		if err := w.Recover(Handler{Series: func(d SeriesDef) error { ids = append(ids, d.ID); return nil }}); err != nil {
			t.Fatal(err)
		}
		return ids
	}
	w2 := openTestWAL(t, dir, 0)
	if got := defs(w2); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("recovered definitions %v, want [1]", got)
	}
	if size := segSize(t, cat); size != whole {
		t.Fatalf("recovered catalog holds %d bytes, want its %d whole", size, whole)
	}
	if err := w2.LogSeries(2, labels.FromStrings("m", "b")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3 := openTestWAL(t, dir, 0)
	defer w3.Close()
	if got := defs(w3); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("recovered definitions %v, want [1 2]", got)
	}
	if r := w3.CorruptionsRepaired(); len(r) != 0 {
		t.Fatalf("a definition after a trimmed torn record reported as damage: %v", r)
	}
}

// TestRecordLargerThanSegment: a record that would cross the end of the
// active segment's mapping rolls the segment first, and one larger than a
// whole mapped segment gets a segment of its own; every record replays.
func TestRecordLargerThanSegment(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 256)
	logOne(t, w, 1, 1)
	// 210,000 slots of at most 3 + 8 bytes: past the 2 MiB of headroom
	// mapped beyond the 256-byte bound.
	slots := make([]uint32, 210_000)
	vals := make([]float64, len(slots))
	for i := range slots {
		slots[i], vals[i] = uint32(i), float64(i)/2
	}
	if err := w.LogGroupSample(goldenGID, 1, 20, slots, vals); err != nil {
		t.Fatal(err)
	}
	logOne(t, w, 1, 3)
	segs, err := w.segmentIndexes()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(segs, []int{1, 2, 3}) {
		t.Fatalf("segments %v, want [1 2 3]: the first sample, the big record alone, the last sample", segs)
	}
	for idx, n := range map[int]int{1: 1, 2: 1} {
		if got := countRecords(t, w.segPath(idx)); got != n {
			t.Fatalf("segment %d holds %d records, want %d", idx, got, n)
		}
	}
	if size := segSize(t, w.segPath(2)); size <= 2*maxPendingBytes {
		t.Fatalf("big record's segment holds %d bytes, want more than the headroom", size)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openTestWAL(t, dir, 256)
	defer w2.Close()
	got, err := recoverLogged(w2)
	if err != nil {
		t.Fatal(err)
	}
	want := []logged{{id: 1, seq: 1, t: 10, v: 1}, {id: goldenGID, seq: 1, t: 20, vals: vals}, {id: 1, seq: 3, t: 30, v: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %d entries, want the 3 logged in order", len(got))
	}
}

// TestFailedGrowthPoisonsLog: a segment that cannot grow (a full disk)
// fails the append, and every later write reports it, as after a failed
// batch write: a one-entry record and a batch commit alike.
func TestFailedGrowthPoisonsLog(t *testing.T) {
	full := errors.New("disk full")
	for name, write := range map[string]func(w *WAL) error{
		"LogSample": func(w *WAL) error { return w.LogSample(1, 1, 10, 1) },
		"Commit": func(w *WAL) error {
			if err := w.StageSample(1, 1, 10, 1); err != nil {
				return err
			}
			return w.Commit()
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w := openTestWAL(t, dir, 0)
			w.seg.SetGrowFault(full)
			if err := write(w); !errors.Is(err, full) {
				t.Fatalf("write into a segment that cannot grow: %v, want %v", err, full)
			}
			w.seg.SetGrowFault(nil)
			for op, f := range map[string]func() error{
				"LogSample":      func() error { return w.LogSample(1, 2, 20, 2) },
				"LogGroupSample": func() error { return w.LogGroupSample(goldenGID, 1, 20, []uint32{0}, []float64{1}) },
				"StageSample":    func() error { return w.StageSample(1, 2, 20, 2) },
				"Commit":         w.Commit,
				"LogFlushMarks":  func() error { return w.LogFlushMarks([]FlushMark{{ID: 1, Seq: 1}}) },
				"Sync":           w.Sync,
			} {
				if err := f(); !errors.Is(err, full) {
					t.Errorf("%s after a failed growth: %v, want %v", op, err, full)
				}
			}
			if err := w.CrashClose(); err != nil {
				t.Fatal(err)
			}
			w2 := openTestWAL(t, dir, 0)
			defer w2.Close()
			if got := recoverAll(t, w2); len(got) != 0 {
				t.Fatalf("replayed %v, want nothing", got)
			}
		})
	}
}

// FuzzMappedTail cuts a log holding every record kind at any byte, follows
// the cut with zeros, as a mapped segment torn by a crash is, and
// optionally with non-zero bytes after them. Recovery must replay exactly
// the records the file still holds whole, and report a corruption only
// when non-zero bytes follow the damage, at the offset where those records
// end.
func FuzzMappedTail(f *testing.F) {
	refDir := f.TempDir()
	seg, _, _ := writeEveryKind(f, refDir)
	data, err := os.ReadFile(seg)
	if err != nil {
		f.Fatal(err)
	}
	// ends[i] is where record i ends: walk the frames.
	var ends []int
	for off := 0; off < len(data); {
		n, k := binary.Uvarint(data[off:])
		off += k + 4 + int(n)
		ends = append(ends, off)
	}
	// want[i] is what recovery replays from the first i records alone.
	want := make([][]logged, len(ends)+1)
	for i := range want {
		dir := f.TempDir()
		end := 0
		if i > 0 {
			end = ends[i-1]
		}
		if err := os.WriteFile(filepath.Join(dir, "00000001.wal"), data[:end], 0o644); err != nil {
			f.Fatal(err)
		}
		w := &WAL{dir: dir, flushedSeq: map[uint64]uint64{}}
		if want[i], err = recoverLogged(w); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(uint16(len(data)), uint16(100), []byte(nil))
	f.Add(uint16(ends[1]), uint16(0), []byte(nil))
	f.Add(uint16(ends[2]+3), uint16(4096), []byte{1, 2, 3})
	f.Add(uint16(ends[0]+1), uint16(7), data[ends[0]:ends[1]])
	f.Add(uint16(0), uint16(65535), []byte{0, 0, 9})
	f.Fuzz(func(t *testing.T, cut, zeros uint16, suffix []byte) {
		c := int(cut) % (len(data) + 1)
		z := int(zeros)
		// The suffix stands for bytes after a zero tail, not more log: at
		// least one zero must differ from the log, not just extend a record
		// whose own last bytes are zeros.
		lead := 0
		for c+lead < len(data) && data[c+lead] == 0 {
			lead++
		}
		if len(suffix) > 0 && z <= lead {
			z = lead + 1
		}
		file := append(append(data[:c:c], make([]byte, z)...), suffix...)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "00000001.wal"), file, 0o644); err != nil {
			t.Fatal(err)
		}
		// A record whose missing bytes are zeros is whole again: count the
		// records the file still holds byte for byte.
		same := 0
		for same < min(len(file), len(data)) && file[same] == data[same] {
			same++
		}
		whole := 0
		for whole < len(ends) && ends[whole] <= same {
			whole++
		}
		w := &WAL{dir: dir, flushedSeq: map[uint64]uint64{}}
		got, err := recoverLogged(w)
		if err != nil {
			t.Fatalf("cut %d, %d zeros, %d-byte suffix: recover: %v", c, z, len(suffix), err)
		}
		if !reflect.DeepEqual(got, want[whole]) {
			t.Fatalf("cut %d, %d zeros, %d-byte suffix: replayed %v, want the %d whole records: %v", c, z, len(suffix), got, whole, want[whole])
		}
		repaired := w.CorruptionsRepaired()
		if len(repaired) > 0 && allZero(suffix) {
			t.Fatalf("cut %d, %d zeros: torn tail with only zeros after it reported as corruption: %v", c, z, repaired)
		}
		end := 0
		if whole > 0 {
			end = ends[whole-1]
		}
		if len(repaired) > 0 && repaired[0].Offset != int64(end) {
			t.Fatalf("cut %d, %d zeros, %d-byte suffix: corruption reported at %d, want %d, where the whole records end", c, z, len(suffix), repaired[0].Offset, end)
		}
	})
}
