package chunkenc

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
)

func mustEncode(t testing.TB, samples []Sample) []byte {
	t.Helper()
	b, err := EncodeXORSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func drain(t testing.TB, it SampleIterator) []Sample {
	t.Helper()
	var out []Sample
	for it.Next() {
		ts, v := it.At()
		out = append(out, Sample{T: ts, V: v})
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func sampleEq(t *testing.T, got, want []Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d samples %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestXORIteratorSeek(t *testing.T) {
	samples := []Sample{{T: 10, V: 1}, {T: 20, V: 2}, {T: 30, V: 3}, {T: 50, V: 5}}
	enc := mustEncode(t, samples)

	it := NewXORIterator(enc)
	if !it.Seek(25) {
		t.Fatal("Seek(25) = false")
	}
	if ts, v := it.At(); ts != 30 || v != 3 {
		t.Fatalf("At after Seek(25) = %d,%v", ts, v)
	}
	// Never moves backwards.
	if !it.Seek(5) {
		t.Fatal("Seek(5) after Seek(25) = false")
	}
	if ts, _ := it.At(); ts != 30 {
		t.Fatalf("backwards Seek moved cursor to %d", ts)
	}
	if !it.Seek(50) {
		t.Fatal("Seek(50) = false")
	}
	if it.Seek(51) {
		t.Fatal("Seek past the end = true")
	}
	if it.Next() || it.Seek(0) {
		t.Fatal("exhausted iterator advanced")
	}

	// Seek before any Next positions at the first sample >= t.
	it = NewXORIterator(enc)
	if !it.Seek(10) {
		t.Fatal("initial Seek(10) = false")
	}
	if ts, _ := it.At(); ts != 10 {
		t.Fatalf("initial Seek(10) at %d", ts)
	}
}

func TestSliceIterator(t *testing.T) {
	samples := []Sample{{T: 1, V: 1}, {T: 5, V: 2}, {T: 9, V: 3}}
	sampleEq(t, drain(t, NewSliceIterator(samples)), samples)

	it := NewSliceIterator(samples)
	if !it.Seek(5) {
		t.Fatal("Seek(5) = false")
	}
	if ts, _ := it.At(); ts != 5 {
		t.Fatalf("Seek(5) at %d", ts)
	}
	if !it.Seek(2) { // backwards: stays
		t.Fatal("backwards Seek = false")
	}
	if ts, _ := it.At(); ts != 5 {
		t.Fatalf("backwards Seek moved to %d", ts)
	}
	if it.Seek(10) {
		t.Fatal("Seek past end = true")
	}
	if NewSliceIterator(nil).Next() {
		t.Fatal("empty slice iterator advanced")
	}
}

func TestGroupSlotIterator(t *testing.T) {
	g := &GroupData{
		Times: []int64{10, 20, 30, 40},
		Columns: []GroupColumn{
			{Slot: 0, Values: []float64{1, 0, 3, 0}, Nulls: []bool{false, true, false, true}},
			{Slot: 1, Values: []float64{5, 6, 7, 8}, Nulls: []bool{false, false, false, false}},
		},
	}
	payload, err := g.Encode()
	if err != nil {
		t.Fatal(err)
	}
	gt, err := DecodeGroupTuple(payload)
	if err != nil {
		t.Fatal(err)
	}
	sampleEq(t, drain(t, NewGroupSlotIterator(gt.Time, gt.Values[0])),
		[]Sample{{T: 10, V: 1}, {T: 30, V: 3}})
	sampleEq(t, drain(t, NewGroupSlotIterator(gt.Time, gt.Values[1])),
		[]Sample{{T: 10, V: 5}, {T: 20, V: 6}, {T: 30, V: 7}, {T: 40, V: 8}})

	// Seek skips NULL slots to the next non-NULL sample.
	it := NewGroupSlotIterator(gt.Time, gt.Values[0])
	if !it.Seek(20) {
		t.Fatal("Seek(20) = false")
	}
	if ts, v := it.At(); ts != 30 || v != 3 {
		t.Fatalf("Seek(20) at %d,%v", ts, v)
	}
	if it.Seek(31) {
		t.Fatal("Seek past last non-NULL = true")
	}
}

func TestMergeIteratorRankDedup(t *testing.T) {
	old := []Sample{{T: 10, V: 1}, {T: 20, V: 2}, {T: 30, V: 3}}
	newer := []Sample{{T: 20, V: 22}, {T: 40, V: 4}}
	m := NewMergeIterator([]RankedIterator{
		{Iter: NewSliceIterator(old), Rank: 1},
		{Iter: NewSliceIterator(newer), Rank: 2},
	})
	sampleEq(t, drain(t, m), []Sample{{T: 10, V: 1}, {T: 20, V: 22}, {T: 30, V: 3}, {T: 40, V: 4}})

	// Same streams, ranks swapped: the other duplicate wins.
	m = NewMergeIterator([]RankedIterator{
		{Iter: NewSliceIterator(old), Rank: 2},
		{Iter: NewSliceIterator(newer), Rank: 1},
	})
	sampleEq(t, drain(t, m), []Sample{{T: 10, V: 1}, {T: 20, V: 2}, {T: 30, V: 3}, {T: 40, V: 4}})
}

func TestMergeIteratorSeek(t *testing.T) {
	m := NewMergeIterator([]RankedIterator{
		{Iter: NewSliceIterator([]Sample{{T: 10, V: 1}, {T: 30, V: 3}}), Rank: 1},
		{Iter: NewSliceIterator([]Sample{{T: 20, V: 2}, {T: 30, V: 33}, {T: 40, V: 4}}), Rank: 2},
	})
	if !m.Seek(25) {
		t.Fatal("Seek(25) = false")
	}
	if ts, v := m.At(); ts != 30 || v != 33 {
		t.Fatalf("Seek(25) at %d,%v (want higher-rank duplicate)", ts, v)
	}
	if !m.Seek(15) { // backwards: stays
		t.Fatal("backwards Seek = false")
	}
	if ts, _ := m.At(); ts != 30 {
		t.Fatalf("backwards Seek moved to %d", ts)
	}
	if !m.Next() {
		t.Fatal("Next after Seek = false")
	}
	if ts, _ := m.At(); ts != 40 {
		t.Fatalf("Next after Seek at %d", ts)
	}
	if m.Next() {
		t.Fatal("Next past end = true")
	}
}

func TestMergeIteratorError(t *testing.T) {
	boom := errors.New("boom")
	m := NewMergeIterator([]RankedIterator{
		{Iter: NewSliceIterator([]Sample{{T: 1, V: 1}}), Rank: 1},
		{Iter: ErrIterator(boom), Rank: 2},
	})
	for m.Next() {
	}
	if !errors.Is(m.Err(), boom) {
		t.Fatalf("Err = %v, want %v", m.Err(), boom)
	}
}

// refMerge is the oracle: materialize every source, highest rank wins per
// timestamp.
func refMerge(srcs [][]Sample, ranks []uint64) []Sample {
	type rv struct {
		rank uint64
		v    float64
	}
	best := map[int64]rv{}
	for i, s := range srcs {
		for _, sm := range s {
			if cur, ok := best[sm.T]; !ok || ranks[i] >= cur.rank {
				best[sm.T] = rv{rank: ranks[i], v: sm.V}
			}
		}
	}
	ts := make([]int64, 0, len(best))
	for t := range best {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	out := make([]Sample, len(ts))
	for i, t := range ts {
		out[i] = Sample{T: t, V: best[t].v}
	}
	return out
}

// genSources builds random sorted sources; equal ranks are avoided by
// making rank unique per source (matching the LSM, where ranks are
// sequence IDs and therefore distinct).
func genSources(rnd *rand.Rand, nSrc int) ([][]Sample, []uint64) {
	srcs := make([][]Sample, nSrc)
	ranks := make([]uint64, nSrc)
	perm := rnd.Perm(nSrc)
	for i := range srcs {
		n := rnd.Intn(12)
		seen := map[int64]bool{}
		var s []Sample
		for len(s) < n {
			t := int64(rnd.Intn(100))
			if seen[t] {
				continue
			}
			seen[t] = true
			s = append(s, Sample{T: t, V: float64(rnd.Intn(1000))})
		}
		sort.Slice(s, func(a, b int) bool { return s[a].T < s[b].T })
		srcs[i] = s
		ranks[i] = uint64(perm[i]) + 1
	}
	return srcs, ranks
}

// checkMergeOps drives a MergeIterator with a random Next/Seek op sequence
// against the materialized oracle.
func checkMergeOps(t *testing.T, srcs [][]Sample, ranks []uint64, ops []byte, useXOR bool) {
	t.Helper()
	ris := make([]RankedIterator, len(srcs))
	for i, s := range srcs {
		if useXOR && len(s) > 0 {
			ris[i] = RankedIterator{Iter: NewXORIterator(mustEncode(t, s)), Rank: ranks[i]}
		} else {
			ris[i] = RankedIterator{Iter: NewSliceIterator(s), Rank: ranks[i]}
		}
	}
	m := NewMergeIterator(ris)
	ref := refMerge(srcs, ranks)
	pos := -1
	exhausted := false
	for _, op := range ops {
		if op < 128 { // Next
			want := !exhausted && pos+1 < len(ref)
			got := m.Next()
			if got != want {
				t.Fatalf("Next = %v, want %v (pos %d of %d)", got, want, pos, len(ref))
			}
			if !want {
				exhausted = true
				continue
			}
			pos++
		} else { // Seek
			tq := int64(op % 110)
			idx := pos
			if idx < 0 || ref[idx].T < tq {
				idx = sort.Search(len(ref), func(i int) bool { return ref[i].T >= tq })
			}
			want := !exhausted && idx < len(ref)
			got := m.Seek(tq)
			if got != want {
				t.Fatalf("Seek(%d) = %v, want %v (pos %d idx %d of %d)", tq, got, want, pos, idx, len(ref))
			}
			if !want {
				exhausted = true
				continue
			}
			pos = idx
		}
		ts, v := m.At()
		if ts != ref[pos].T || v != ref[pos].V {
			t.Fatalf("At = %d,%v, want %v", ts, v, ref[pos])
		}
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeIteratorRandomized(t *testing.T) {
	rnd := rand.New(rand.NewSource(20260806))
	for round := 0; round < 200; round++ {
		srcs, ranks := genSources(rnd, 1+rnd.Intn(6))
		ops := make([]byte, 64)
		rnd.Read(ops)
		checkMergeOps(t, srcs, ranks, ops, round%2 == 0)
	}
}

func FuzzMergeIterator(f *testing.F) {
	f.Add(int64(1), uint8(3), []byte{0, 200, 5, 190, 9})
	f.Add(int64(42), uint8(1), []byte{255, 0, 0, 128})
	f.Add(int64(7), uint8(6), []byte{10, 20, 250, 30, 131, 40, 0})
	f.Fuzz(func(t *testing.T, seed int64, nSrc uint8, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		rnd := rand.New(rand.NewSource(seed))
		srcs, ranks := genSources(rnd, 1+int(nSrc%8))
		checkMergeOps(t, srcs, ranks, ops, seed%2 == 0)
	})
}
