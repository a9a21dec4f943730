package wal

import (
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"timeunion/internal/encoding"
)

// logged is one replayed sample or group round, values included.
type logged struct {
	id, seq uint64
	t       int64
	v       float64
	vals    []float64
}

func recoverLogged(w *WAL) ([]logged, error) {
	var got []logged
	err := w.Recover(Handler{
		Sample: func(s SampleRec) error {
			got = append(got, logged{id: s.ID, seq: s.Seq, t: s.T, v: s.V})
			return nil
		},
		GroupSample: func(g GroupSampleRec) error {
			got = append(got, logged{id: g.GID, seq: g.Seq, t: g.T, vals: g.Vals})
			return nil
		},
	})
	return got, err
}

// TestContinuationRoundTrip logs runs of adjacent ids that share seq and t,
// broken by every kind of break the encoder must notice, and replays them.
func TestContinuationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, 64<<20)
	path := w.segPath(w.segIdx)
	var want []logged
	stageRun := func(first, n, seq uint64, ts int64) {
		t.Helper()
		for id := first; id < first+n; id++ {
			v := float64(id) + float64(seq)/8
			if err := w.StageSample(id, seq, ts, v); err != nil {
				t.Fatal(err)
			}
			want = append(want, logged{id: id, seq: seq, t: ts, v: v})
		}
	}
	stageRun(10, 10, 1, 100) // a plain run
	stageRun(21, 2, 1, 100)  // an id gap
	stageRun(23, 2, 2, 100)  // a seq change
	stageRun(25, 2, 2, 200)  // a t change
	gvals := []float64{1.5, 2.5}
	if err := w.StageGroupSample(1<<63|1, 1, 200, []uint32{0, 1}, gvals); err != nil {
		t.Fatal(err)
	}
	want = append(want, logged{id: 1<<63 | 1, seq: 1, t: 200, vals: gvals})
	stageRun(27, 1, 2, 200) // right after a group round: id 27 follows id 26
	// A single-sample write commits the batch.
	if err := w.LogSample(500, 2, 200, 5); err != nil {
		t.Fatal(err)
	}
	want = append(want, logged{id: 500, seq: 2, t: 200, v: 5})
	stageRun(28, 2, 2, 200) // id 28 follows id 27, but in a new batch
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// A run long enough to commit early past maxPendingBytes: the entry
	// after the early commit opens a new batch and is logged in full.
	longRun := uint64(maxPendingBytes/9 + 1000)
	stageRun(1000, longRun, 3, 300)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := countRecords(t, path); n != 5 {
		t.Fatalf("segment holds %d records, want 5 (batch, single, batch, early commit, rest)", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openTestWAL(t, dir, 0)
	defer w2.Close()
	got, err := recoverLogged(w2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("entry %d: replayed %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestContinuationBytesPerSample: one write_fast-shaped round, 1,010
// adjacent series sharing seq and t, costs a value and a tag per sample.
func TestContinuationBytesPerSample(t *testing.T) {
	const n = 1010
	w := openTestWAL(t, t.TempDir(), 0)
	defer w.Close()
	for id := uint64(1); id <= n; id++ {
		if err := w.StageSample(id, 7, 1_700_000_000_000, float64(id)*0.1); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if per := float64(appended(w)) / n; per > 9.1 {
		t.Fatalf("%.2f B per sample in the segment, want at most 9.1", per)
	}
}

// frame returns payload framed as one segment record.
func frame(payload []byte) []byte {
	var b encoding.Buf
	b.PutUvarint(uint64(len(payload)))
	b.PutBE32(crc32.Checksum(payload, crcTable))
	b.PutBytes(payload)
	return b.Get()
}

func nextEntry(b *encoding.Buf, v float64) {
	b.PutByte(recSampleNext)
	b.PutBE64(math.Float64bits(v))
}

// TestOrphanContinuationFailsRecovery: a continuation with no sample before
// it in its batch is an error that recovery surfaces, not a record it
// skips or repairs away.
func TestOrphanContinuationFailsRecovery(t *testing.T) {
	for name, build := range map[string]func(b *encoding.Buf){
		"batch starts with one": func(b *encoding.Buf) {
			b.PutByte(recBatch)
			nextEntry(b, 1)
		},
		"right after a group round": func(b *encoding.Buf) {
			b.PutByte(recBatch)
			putSample(b, 1, 1, 10, 1)
			putGroupSample(b, 2, 1, 10, []uint32{0}, []float64{2})
			nextEntry(b, 3)
		},
		"single-entry record": func(b *encoding.Buf) {
			nextEntry(b, 1)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var good, bad encoding.Buf
			putSample(&good, 1, 1, 10, 1) // a previous record's sample continues nothing
			build(&bad)
			seg := append(frame(good.Get()), frame(bad.Get())...)
			if err := os.WriteFile(filepath.Join(dir, "00000001.wal"), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			w := openTestWAL(t, dir, 0)
			defer w.Close()
			if _, err := recoverLogged(w); !errors.Is(err, errOrphanContinuation) {
				t.Fatalf("recover error %v, want %v", err, errOrphanContinuation)
			}
			if r := w.CorruptionsRepaired(); len(r) != 0 {
				t.Fatalf("orphan continuation repaired away: %v", r)
			}
			if _, err := w.Purge(); !errors.Is(err, errOrphanContinuation) {
				t.Fatalf("purge error %v, want %v", err, errOrphanContinuation)
			}
		})
	}
}

// FuzzSegmentEntries runs the entry decoder over arbitrary payloads in a
// correctly framed and checksummed record: it must decode them or return
// an error, never panic, and replay's full decode must not accept what
// purge's partial one rejects.
func FuzzSegmentEntries(f *testing.F) {
	var b encoding.Buf
	b.PutByte(recBatch)
	putSample(&b, 1, 1, 10, 1)
	nextEntry(&b, 2)
	putGroupSample(&b, 3, 1, 10, []uint32{0, 4}, []float64{1, 2})
	b.PutByte(recFlushMark)
	b.PutUvarint(1)
	b.PutUvarint(1)
	f.Add(append([]byte(nil), b.Get()...))
	b.Reset()
	putSample(&b, 9, 9, -9, 9)
	f.Add(append([]byte(nil), b.Get()...))
	f.Add([]byte{recBatch, recSampleNext, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{recGroupSample, 1, 1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		path := filepath.Join(t.TempDir(), "00000001.wal")
		if err := os.WriteFile(path, frame(payload), 0o644); err != nil {
			t.Fatal(err)
		}
		count := func(full bool) (int, error) {
			n := 0
			err := scanEntries(path, -1, full, func(*entry) error { n++; return nil })
			return n, err
		}
		nFull, errFull := count(true)
		nPart, errPart := count(false)
		if errFull == nil && (errPart != nil || nPart != nFull) {
			t.Fatalf("full decode gave %d entries, partial %d (error %v)", nFull, nPart, errPart)
		}
	})
}
