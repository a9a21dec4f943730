package wal

import (
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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
	// A single-sample write is staged last and commits the batch.
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
	if n := countRecords(t, path); n != 4 {
		t.Fatalf("segment holds %d records, want 4 (batch ending in the single sample, batch, early commit, rest)", n)
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

// writeSegment writes payloads, each framed as one record, as the only
// segment of a WAL in a new directory and opens that WAL.
func writeSegment(t *testing.T, payloads ...[]byte) *WAL {
	t.Helper()
	dir := t.TempDir()
	var seg []byte
	for _, p := range payloads {
		seg = append(seg, frame(p)...)
	}
	if err := os.WriteFile(filepath.Join(dir, "00000001.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	return openTestWAL(t, dir, 0)
}

// TestOrphanContinuationFailsRecovery: a continuation with no sample before
// it in its record is an error that recovery surfaces, not a record it
// skips or repairs away.
func TestOrphanContinuationFailsRecovery(t *testing.T) {
	for name, build := range map[string]func(b *encoding.Buf){
		"batch starts with one": func(b *encoding.Buf) {
			nextEntry(b, 1)
			putSample(b, 2, 1, 10, 2)
		},
		"right after a group round": func(b *encoding.Buf) {
			putSample(b, 1, 1, 10, 1)
			putGroupSample(b, 2, 1, 10, []uint32{0}, []float64{2})
			nextEntry(b, 3)
		},
		"right after a flush mark": func(b *encoding.Buf) {
			putSample(b, 1, 1, 10, 1)
			b.PutByte(recFlushMark)
			b.PutUvarint(1)
			b.PutUvarint(1)
			nextEntry(b, 3)
		},
		"single-entry record": func(b *encoding.Buf) {
			nextEntry(b, 1)
		},
	} {
		t.Run(name, func(t *testing.T) {
			var good, bad encoding.Buf
			putSample(&good, 1, 1, 10, 1) // a previous record's sample continues nothing
			build(&bad)
			w := writeSegment(t, good.Get(), bad.Get())
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

// TestRetiredBatchTypeFailsRecovery: a record that starts with type 7, the
// batch framing that every record now is, fails recovery with the segment
// named, and nothing of it or after it is skipped or repaired away.
func TestRetiredBatchTypeFailsRecovery(t *testing.T) {
	var good, old encoding.Buf
	putSample(&good, 1, 1, 10, 1)
	old.PutByte(7)
	putSample(&old, 1, 2, 20, 2)
	w := writeSegment(t, good.Get(), old.Get())
	defer w.Close()
	seg := w.segPath(1)
	_, err := recoverLogged(w)
	if err == nil || !strings.Contains(err.Error(), seg) || !strings.Contains(err.Error(), "type 7") {
		t.Fatalf("recover error %v, want an unknown entry type 7 in %s", err, seg)
	}
	if r := w.CorruptionsRepaired(); len(r) != 0 {
		t.Fatalf("type-7 record repaired away: %v", r)
	}
}

// FuzzSegmentEntries runs the entry decoder over arbitrary payloads in a
// correctly framed and checksummed record: it must decode them or return
// an error, never panic, and entries it accepts, logged again by the
// writer, must decode back to the same entries.
func FuzzSegmentEntries(f *testing.F) {
	var b encoding.Buf
	putSample(&b, 1, 1, 10, 1)
	nextEntry(&b, 2)
	putGroupSample(&b, 3, 1, 10, []uint32{0, 4}, []float64{1, 2})
	b.PutByte(recFlushMark)
	b.PutUvarint(1)
	b.PutUvarint(1)
	putSample(&b, 2, 1, 10, math.NaN())
	f.Add(append([]byte(nil), b.Get()...))
	b.Reset()
	putSample(&b, 9, 9, -9, 9)
	f.Add(append([]byte(nil), b.Get()...))
	f.Add([]byte{recSampleNext, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{7, recFlushMark, 1, 1})
	f.Add([]byte{recGroupSample, 1, 1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		w := writeSegment(t, payload)
		got, err := decodedEntries(w.segPath(1))
		if err != nil {
			w.Close()
			return
		}
		// Log the accepted entries again, in a new segment.
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w = openTestWAL(t, t.TempDir(), 0)
		for _, e := range got {
			switch e.typ {
			case recSample:
				err = w.StageSample(e.id, e.seq, e.t, math.Float64frombits(e.v))
			case recGroupSample:
				vals := make([]float64, len(e.vals))
				for i, v := range e.vals {
					vals[i] = math.Float64frombits(v)
				}
				err = w.StageGroupSample(e.id, e.seq, e.t, e.slots, vals)
			default:
				err = w.LogFlushMarks([]FlushMark{{ID: e.id, Seq: e.seq}})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		seg := w.segPath(w.segIdx)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := decodedEntries(seg)
		if err != nil {
			t.Fatalf("writer-built entries failed to decode: %v", err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("writer-built entries decoded to\n%v\nwant\n%v", again, got)
		}
	})
}

// decodedEntry is a copy of one decoded entry with the fields of its type
// only, values as bits so NaNs compare.
type decodedEntry struct {
	typ     byte
	id, seq uint64
	t       int64
	v       uint64
	slots   []uint32
	vals    []uint64
}

func decodedEntries(path string) ([]decodedEntry, error) {
	var out []decodedEntry
	err := scanEntries(path, -1, func(e *entry) error {
		d := decodedEntry{typ: e.typ, id: e.id, seq: e.seq}
		switch e.typ {
		case recSample:
			d.t, d.v = e.t, math.Float64bits(e.v)
		case recGroupSample:
			d.t = e.t
			d.slots = append([]uint32{}, e.slots...)
			d.vals = []uint64{}
			for _, v := range e.vals {
				d.vals = append(d.vals, math.Float64bits(v))
			}
		}
		out = append(out, d)
		return nil
	})
	return out, err
}
