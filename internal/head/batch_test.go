package head

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"timeunion/internal/chunkenc"
	"timeunion/internal/labels"
	"timeunion/internal/wal"
)

// batchFixture is a head over a WAL with two series and a two-member group,
// each holding one sample.
type batchFixture struct {
	h        *Head
	w        *wal.WAL
	dir      string
	id1, id2 uint64
	gid      uint64
	slots    []int
}

func newBatchFixture(t *testing.T) *batchFixture {
	t.Helper()
	f := &batchFixture{dir: t.TempDir()}
	w, err := wal.Open(f.dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	f.w = w
	f.h, _ = newTestHead(t, w)
	if f.id1, err = f.h.Append(labels.FromStrings("m", "a"), 1, 1); err != nil {
		t.Fatal(err)
	}
	if f.id2, err = f.h.Append(labels.FromStrings("m", "b"), 1, 1); err != nil {
		t.Fatal(err)
	}
	members := []labels.Labels{labels.FromStrings("f", "x"), labels.FromStrings("f", "y")}
	if f.gid, f.slots, err = f.h.AppendGroup(labels.FromStrings("host", "h"), members, 1, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	return f
}

// state is everything a rejected batch must leave unchanged.
type batchState struct {
	seq1, seq2, gseq uint64
	walBytes         int64
	heads            int
}

func (f *batchFixture) state(t *testing.T) batchState {
	t.Helper()
	s1, _ := f.h.HeadSamples(f.id1, 0, 1<<40)
	s2, _ := f.h.HeadSamples(f.id2, 0, 1<<40)
	gs, _ := f.h.HeadGroupSamples(f.gid, 0, 1<<40)
	n := len(s1) + len(s2)
	for _, col := range gs {
		n += len(col)
	}
	return batchState{
		seq1: f.h.HeadSeq(f.id1), seq2: f.h.HeadSeq(f.id2), gseq: f.h.HeadSeq(f.gid),
		walBytes: f.w.SizeBytes(), heads: n,
	}
}

// TestAppendBatchValidatesBeforeApplying: a batch whose last item fails
// validation applies nothing — no head sample, no sequence advance, no WAL
// bytes — whichever check fails.
func TestAppendBatchValidatesBeforeApplying(t *testing.T) {
	cases := []struct {
		name string
		bad  func(f *batchFixture, b *Batch)
		want string
	}{
		{"unknown series", func(f *batchFixture, b *Batch) { b.Add(999, 5, 5) }, "unknown series"},
		{"unknown group", func(f *batchFixture, b *Batch) { b.AddGroup(f.gid+1, f.slots, 5, []float64{5, 5}) }, "unknown group"},
		{"slot out of range", func(f *batchFixture, b *Batch) { b.AddGroup(f.gid, []int{0, 2}, 5, []float64{5, 5}) }, "out of range"},
		{"negative slot", func(f *batchFixture, b *Batch) { b.AddGroup(f.gid, []int{-1}, 5, []float64{5}) }, "out of range"},
		{"short values row", func(f *batchFixture, b *Batch) { b.AddGroup(f.gid, f.slots, 5, []float64{5}) }, "slots vs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newBatchFixture(t)
			before := f.state(t)
			var b Batch
			b.Add(f.id1, 2, 2)
			b.Add(f.id2, 2, 2)
			b.AddGroup(f.gid, f.slots, 2, []float64{2, 2})
			tc.bad(f, &b)
			applied, err := f.h.AppendBatch(&b)
			if !errors.Is(err, ErrInvalidBatch) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want an ErrInvalidBatch mentioning %q", err, tc.want)
			}
			if applied {
				t.Fatal("applied = true for a batch that failed validation")
			}
			if after := f.state(t); after != before {
				t.Fatalf("rejected batch changed state: before %+v, after %+v", before, after)
			}
		})
	}
}

// TestAppendBatchAppliesAndRecovers: an accepted batch is in the head and,
// after reopening, replays from its one WAL record.
func TestAppendBatchAppliesAndRecovers(t *testing.T) {
	f := newBatchFixture(t)
	before := f.state(t)
	var b Batch
	b.Add(f.id1, 2, 2)
	b.Add(f.id1, 3, 3)
	b.Add(f.id2, 2, 2)
	b.AddGroup(f.gid, f.slots[1:], 2, []float64{7})
	if b.Len() != 4 || b.MaxT() != 3 {
		t.Fatalf("Len, MaxT = %d, %d, want 4, 3", b.Len(), b.MaxT())
	}
	if applied, err := f.h.AppendBatch(&b); err != nil || !applied {
		t.Fatalf("AppendBatch = %v, %v", applied, err)
	}
	after := f.state(t)
	if after.seq1 != before.seq1+2 || after.seq2 != before.seq2+1 || after.gseq != before.gseq+1 {
		t.Fatalf("sequences %+v after %+v", after, before)
	}
	if after.walBytes <= before.walBytes {
		t.Fatal("accepted batch wrote no WAL bytes")
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
	if err := f.w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := wal.Open(f.dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	h2, _ := newTestHead(t, w2)
	if err := h2.Recover(); err != nil {
		t.Fatal(err)
	}
	got, _ := h2.HeadSamples(f.id1, 0, 100)
	want := []chunkenc.Sample{{T: 1, V: 1}, {T: 2, V: 2}, {T: 3, V: 3}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	gs, _ := h2.HeadGroupSamples(f.gid, 0, 100)
	if len(gs[uint32(f.slots[1])]) != 2 || len(gs[uint32(f.slots[0])]) != 1 {
		t.Fatalf("recovered group columns %v", gs)
	}
	if h2.HeadSeq(f.id1) != after.seq1 {
		t.Fatalf("recovered seq %d, want %d", h2.HeadSeq(f.id1), after.seq1)
	}
}

// TestConcurrentBatchesKeepSeqOrder races batches and single-sample appends
// on the same series, some interleaved with a goroutine's batches and some
// from goroutines of their own: the log must hold every sample once, and
// per series in sequence order, so replay in file order stays
// newest-seq-wins.
func TestConcurrentBatchesKeepSeqOrder(t *testing.T) {
	f := newBatchFixture(t)
	const workers, fastWorkers, rounds = 4, 2, 200
	var wg sync.WaitGroup
	for w := 0; w < fastWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ts := int64(10 + r*fastWorkers + w)
				if err := f.h.AppendFast(f.id1, ts, 3); err != nil {
					t.Error(err)
				}
				if err := f.h.AppendFast(f.id2, ts, 3); err != nil {
					t.Error(err)
				}
				if err := f.h.AppendGroupFast(f.gid, f.slots, ts, []float64{3, 3}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var b Batch
			for r := 0; r < rounds; r++ {
				ts := int64(10 + r*workers + w)
				if r%3 == 0 {
					if err := f.h.AppendFast(f.id1, ts, 1); err != nil {
						t.Error(err)
					}
					continue
				}
				b.Reset()
				b.Add(f.id1, ts, 2)
				b.Add(f.id2, ts, 2)
				b.AddGroup(f.gid, f.slots, ts, []float64{2, 2})
				if _, err := f.h.AppendBatch(&b); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := f.w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := wal.Open(f.dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	last := map[uint64]uint64{}
	count := map[uint64]int{}
	check := func(id, seq uint64) error {
		if seq <= last[id] {
			return fmt.Errorf("id %d: seq %d replayed after %d", id, seq, last[id])
		}
		last[id] = seq
		count[id]++
		return nil
	}
	err = w2.Recover(wal.Handler{
		Sample:      func(s wal.SampleRec) error { return check(s.ID, s.Seq) },
		GroupSample: func(g wal.GroupSampleRec) error { return check(g.GID, g.Seq) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[uint64]int{
		f.id1: 1 + workers*rounds + fastWorkers*rounds,
		f.id2: 1 + workers*(rounds-rounds/3-1) + fastWorkers*rounds,
		f.gid: 1 + workers*(rounds-rounds/3-1) + fastWorkers*rounds,
	} {
		if count[id] != want || last[id] != f.h.HeadSeq(id) {
			t.Fatalf("id %d: replayed %d entries up to seq %d, want %d up to %d", id, count[id], last[id], want, f.h.HeadSeq(id))
		}
	}
}
