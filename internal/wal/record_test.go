package wal

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"timeunion/internal/labels"
)

const goldenGID = 1<<63 | 7

// writeEveryKind writes a WAL in dir holding every record kind: the three
// catalog definitions, a one-entry sample, a one-entry group round, a batch
// with continuations and a group round, and one flush's marks, in that
// order. It returns the segment's path, the offset at which its last
// record (the flush marks) starts, and the entries written before it.
func writeEveryKind(t testing.TB, dir string) (seg string, lastStart int64, entries []logged) {
	t.Helper()
	w := openTestWAL(t, dir, 0)
	seg = w.segPath(w.segIdx)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.LogSeries(1, labels.FromStrings("__name__", "cpu", "host", "h1")))
	must(w.LogGroup(goldenGID, labels.FromStrings("host", "h1")))
	must(w.LogGroupMember(goldenGID, 3, labels.FromStrings("field", "usage_user")))

	must(w.LogSample(1, 1, 1000, 0.5))
	entries = append(entries, logged{id: 1, seq: 1, t: 1000, v: 0.5})
	must(w.LogGroupSample(goldenGID, 1, 1000, []uint32{0, 3}, []float64{1.5, -2}))
	entries = append(entries, logged{id: goldenGID, seq: 1, t: 1000, vals: []float64{1.5, -2}})

	// Ids 1..3 at one seq and t: the last two are continuations. The group
	// round makes the batch's payload longer than 127 bytes, so its length
	// takes two uvarint bytes.
	for id := uint64(1); id <= 3; id++ {
		must(w.StageSample(id, 2, 2000, float64(id)/4))
		entries = append(entries, logged{id: id, seq: 2, t: 2000, v: float64(id) / 4})
	}
	slots := make([]uint32, 12)
	vals := make([]float64, 12)
	for i := range slots {
		slots[i], vals[i] = uint32(i), float64(i)*1.25
	}
	must(w.StageGroupSample(goldenGID, 2, 2000, slots, vals))
	entries = append(entries, logged{id: goldenGID, seq: 2, t: 2000, vals: vals})
	must(w.Commit())

	lastStart = appended(w)
	marks := make([]FlushMark, 50)
	for i := range marks {
		marks[i] = FlushMark{ID: uint64(i + 1), Seq: 2}
	}
	must(w.LogFlushMarks(marks))
	must(w.Close())
	return seg, lastStart, entries
}

// goldenHex joins hex lines, which keep the pinned bytes readable.
func goldenHex(t *testing.T, lines ...string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.Join(lines, ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecordBytesPinned: the segment and catalog bytes of every record kind
// are pinned. Logs already on disk are read by this code, so any difference
// is a format change, not a refactor.
func TestRecordBytesPinned(t *testing.T) {
	dir := t.TempDir()
	seg, _, _ := writeEveryKind(t, dir)
	wantSeg := goldenHex(t,
		// LogSample
		"0def33b466040101d00f3fe0000000000000",
		// LogGroupSample
		"21995ba173058780808080808080800101d00f02003ff800000000000003c000",
		"000000000000",
		// StageSample x3 (two continuations), StageGroupSample, Commit
		"9a01920adfb7040102a01f3fd0000000000000083fe0000000000000083fe800",
		"0000000000058780808080808080800102a01f0c000000000000000000013ff4",
		"00000000000002400400000000000003400e0000000000000440140000000000",
		"0005401900000000000006401e00000000000007402180000000000008402400",
		"00000000000940268000000000000a40290000000000000b402b800000000000",
		// LogFlushMarks
		"96016fcbcea30601020602020603020604020605020606020607020608020609",
		"02060a02060b02060c02060d02060e02060f0206100206110206120206130206",
		"1402061502061602061702061802061902061a02061b02061c02061d02061e02",
		"061f020620020621020622020623020624020625020626020627020628020629",
		"02062a02062b02062c02062d02062e02062f02063002063102063202",
	)
	wantCat := goldenHex(t,
		// LogSeries
		"18b22c3cc9010102085f5f6e616d655f5f0363707504686f7374026831",
		// LogGroup
		"147ad98da102878080808080808080010104686f7374026831",
		// LogGroupMember
		"1ed8a391bb03878080808080808080010301056669656c640a75736167655f75",
		"736572",
	)
	for _, c := range []struct {
		name string
		path string
		want []byte
	}{
		{"segment", seg, wantSeg},
		{"catalog", filepath.Join(dir, "catalog.wal"), wantCat},
	} {
		got, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s bytes changed:\n got %x\nwant %x", c.name, got, c.want)
		}
	}
}

// TestSingleEntryWritesAllocateNothing: once the WAL's buffers have grown,
// a one-entry record and a staged batch's commit allocate nothing.
func TestSingleEntryWritesAllocateNothing(t *testing.T) {
	w := openTestWAL(t, t.TempDir(), 0)
	defer w.Close()
	slots := []uint32{0, 1, 2, 3}
	vals := []float64{1, 2, 3, 4}
	seq := uint64(0)
	for _, c := range []struct {
		name string
		op   func() error
	}{
		{"LogSample", func() error { return w.LogSample(1, seq, int64(seq), 1) }},
		{"LogGroupSample", func() error { return w.LogGroupSample(goldenGID, seq, int64(seq), slots, vals) }},
		{"StageSample+Commit", func() error {
			for id := uint64(1); id <= 8; id++ {
				if err := w.StageSample(id*2, seq, int64(seq), float64(id)); err != nil {
					return err
				}
			}
			return w.Commit()
		}},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			seq++
			if err := c.op(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per call, want 0", c.name, allocs)
		}
	}
}

// TestTornLastRecordRecoversEarlier cuts a log holding every record kind
// inside its last record's header and inside its payload: recovery
// replays every entry before that record, with no corruption reported.
// The cut file either ends there or runs on in zeros to the end of its
// 64 KiB allocation, as a mapped segment torn by a crash does.
func TestTornLastRecordRecoversEarlier(t *testing.T) {
	refDir := t.TempDir()
	seg, lastStart, want := writeEveryKind(t, refDir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := os.ReadFile(filepath.Join(refDir, "catalog.wal"))
	if err != nil {
		t.Fatal(err)
	}
	// The marks record's payload is 150 bytes, so its header is a 2-byte
	// length and the 4-byte CRC.
	const hdrLen = 6
	for _, tail := range []string{"trimmed", "preallocated"} {
		for cut := lastStart + 1; cut < int64(len(data)); cut++ {
			part := "payload"
			if cut < lastStart+hdrLen {
				part = "header"
			}
			torn := data[:cut:cut]
			if tail == "preallocated" {
				torn = append(torn, make([]byte, 64<<10-cut)...)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "catalog.wal"), cat, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), torn, 0o644); err != nil {
				t.Fatal(err)
			}
			w := openTestWAL(t, dir, 0)
			got, err := recoverLogged(w)
			if err != nil {
				t.Fatalf("%s, cut %d inside the %s: recover: %v", tail, cut, part, err)
			}
			if r := w.CorruptionsRepaired(); len(r) != 0 {
				t.Fatalf("%s, cut %d inside the %s: torn tail reported as corruption: %v", tail, cut, part, r)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, cut %d inside the %s: replayed\n%v\nwant\n%v", tail, cut, part, got, want)
			}
			w.Close()
		}
	}
}
