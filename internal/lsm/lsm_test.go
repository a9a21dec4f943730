package lsm

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"timeunion/internal/chunkenc"
	"timeunion/internal/cloud"
	"timeunion/internal/encoding"
	"timeunion/internal/memtable"
	"timeunion/internal/tuple"
	"timeunion/internal/wal"
)

// testEnv bundles an LSM with its two stores.
type testEnv struct {
	l    *LSM
	fast *cloud.MemStore
	slow *cloud.MemStore
}

func newEnv(t *testing.T, opts Options) *testEnv {
	t.Helper()
	fast := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
	slow := cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{})
	opts.Fast = fast
	opts.Slow = slow
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return &testEnv{l: l, fast: fast, slow: slow}
}

// smallOpts returns a geometry that triggers flushes and compactions with
// little data: R1=1000, R2=4000 time units.
func smallOpts() Options {
	return Options{
		MemTableSize:              2 << 10,
		L0PartitionLength:         1000,
		L2PartitionLength:         4000,
		PartitionLengthLowerBound: 125,
		MaxL0Partitions:           2,
		PatchThreshold:            2,
		TargetTableSize:           8 << 10,
		BlockSize:                 512,
	}
}

var seqCounter uint64

func seriesKV(t *testing.T, id uint64, samples []chunkenc.Sample) (encoding.Key, []byte) {
	t.Helper()
	enc, err := chunkenc.EncodeXORSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	seqCounter++
	return encoding.MakeKey(id, samples[0].T), tuple.Encode(seqCounter, tuple.KindSeries, samples[0].T, samples[len(samples)-1].T, enc)
}

func putSeries(t *testing.T, l *LSM, id uint64, samples []chunkenc.Sample) {
	t.Helper()
	k, v := seriesKV(t, id, samples)
	if err := l.Put(k, v); err != nil {
		t.Fatal(err)
	}
}

func querySeries(t *testing.T, l *LSM, id uint64, mint, maxt int64) []SamplePair {
	t.Helper()
	chunks, err := l.ChunksFor(id, mint, maxt)
	if err != nil {
		t.Fatal(err)
	}
	out, err := SeriesSamples(chunks, mint, maxt)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPutQueryFromMemtable(t *testing.T) {
	env := newEnv(t, smallOpts())
	putSeries(t, env.l, 1, []chunkenc.Sample{{T: 100, V: 1}, {T: 200, V: 2}})
	got := querySeries(t, env.l, 1, 0, 1000)
	if len(got) != 2 || got[0] != (SamplePair{100, 1}) || got[1] != (SamplePair{200, 2}) {
		t.Fatalf("got %v", got)
	}
	// Time clipping.
	got = querySeries(t, env.l, 1, 150, 1000)
	if len(got) != 1 || got[0].T != 200 {
		t.Fatalf("clipped = %v", got)
	}
	// Unknown ID.
	if got := querySeries(t, env.l, 99, 0, 1000); len(got) != 0 {
		t.Fatalf("phantom = %v", got)
	}
}

func TestFlushToL0AndQuery(t *testing.T) {
	env := newEnv(t, smallOpts())
	putSeries(t, env.l, 1, []chunkenc.Sample{{T: 100, V: 1}, {T: 900, V: 2}})
	putSeries(t, env.l, 2, []chunkenc.Sample{{T: 150, V: 3}})
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := env.l.NumPartitions(); n[0] == 0 {
		t.Fatalf("no L0 partitions after flush: %v", n)
	}
	if env.fast.TotalBytes() == 0 {
		t.Fatal("nothing written to fast store")
	}
	got := querySeries(t, env.l, 1, 0, 1000)
	if len(got) != 2 || got[1].V != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestFlushSplitsAcrossPartitions(t *testing.T) {
	env := newEnv(t, smallOpts())
	// One chunk spanning three 1000-unit windows.
	putSeries(t, env.l, 1, []chunkenc.Sample{
		{T: 500, V: 1}, {T: 1500, V: 2}, {T: 2500, V: 3},
	})
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	// All three samples must be found, each in its window's partition.
	got := querySeries(t, env.l, 1, 0, 3000)
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	// Window-restricted query touches only that window's data.
	got = querySeries(t, env.l, 1, 1000, 1999)
	if len(got) != 1 || got[0].V != 2 {
		t.Fatalf("window query = %v", got)
	}
}

func TestOnFlushMarks(t *testing.T) {
	opts := smallOpts()
	var calls [][]wal.FlushMark
	opts.OnFlush = func(marks []wal.FlushMark) {
		calls = append(calls, marks)
	}
	env := newEnv(t, opts)
	putSeries(t, env.l, 1, []chunkenc.Sample{{T: 100, V: 1}})
	putSeries(t, env.l, 2, []chunkenc.Sample{{T: 100, V: 1}})
	putSeries(t, env.l, 2, []chunkenc.Sample{{T: 5000, V: 1}})
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	// One call per flush, one mark per series: series 2's two chunks
	// share a mark.
	if len(calls) != 1 || len(calls[0]) != 2 || calls[0][0].ID != 1 || calls[0][1].ID != 2 {
		t.Fatalf("OnFlush calls = %v, want one call with marks for series 1 and 2", calls)
	}
}

func TestDuplicateKeyMergesInMemtable(t *testing.T) {
	env := newEnv(t, smallOpts())
	putSeries(t, env.l, 1, []chunkenc.Sample{{T: 100, V: 1}, {T: 200, V: 2}})
	// Same start timestamp → same LSM key → merged, newest wins.
	putSeries(t, env.l, 1, []chunkenc.Sample{{T: 100, V: 10}, {T: 300, V: 3}})
	got := querySeries(t, env.l, 1, 0, 1000)
	want := []SamplePair{{100, 10}, {200, 2}, {300, 3}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// fillSequential inserts n chunks of 10 samples each for the given ids,
// advancing time so that flushes and compactions trigger naturally.
func fillSequential(t *testing.T, l *LSM, ids []uint64, chunks int, startT, step int64) int64 {
	t.Helper()
	ts := startT
	for c := 0; c < chunks; c++ {
		for _, id := range ids {
			var samples []chunkenc.Sample
			for s := 0; s < 10; s++ {
				samples = append(samples, chunkenc.Sample{T: ts + int64(s)*step, V: float64(id) + float64(c)})
			}
			putSeries(t, l, id, samples)
		}
		ts += 10 * step
	}
	return ts
}

func TestCompactionPipelineToL2(t *testing.T) {
	env := newEnv(t, smallOpts())
	ids := []uint64{1, 2, 3}
	end := fillSequential(t, env.l, ids, 40, 0, 50) // 40 chunks x 500 units = t up to 20000
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	st := env.l.Stats()
	if st.CompactionsL0L1 == 0 {
		t.Fatal("no L0→L1 compactions")
	}
	if st.CompactionsL1L2 == 0 {
		t.Fatal("no L1→L2 compactions")
	}
	if env.slow.TotalBytes() == 0 {
		t.Fatal("nothing uploaded to slow store")
	}
	n := env.l.NumPartitions()
	if n[2] == 0 {
		t.Fatalf("no L2 partitions: %v", n)
	}
	// No overlapping SSTable reads on the slow store during normal
	// compaction: every L2 byte was written exactly once (Equation 9).
	// Checked before querying, which legitimately reads the slow tier.
	slowStats := env.slow.Stats()
	if slowStats.BytesRead > 0 {
		t.Fatalf("ordered compaction read %d bytes from slow store", slowStats.BytesRead)
	}
	// All data still queryable across the whole span.
	for _, id := range ids {
		got := querySeries(t, env.l, id, 0, end)
		if len(got) != 400 {
			t.Fatalf("series %d: %d samples, want 400", id, len(got))
		}
	}
}

func TestOutOfOrderCreatesPatches(t *testing.T) {
	env := newEnv(t, smallOpts())
	ids := []uint64{1, 2}
	end := fillSequential(t, env.l, ids, 40, 0, 50)
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	if env.l.Stats().CompactionsL1L2 == 0 {
		t.Fatal("setup: no L2 data")
	}
	// Insert out-of-order samples into a time range already in L2.
	putSeries(t, env.l, 1, []chunkenc.Sample{{T: 105, V: 777}, {T: 205, V: 888}})
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	// Push the stale partition down: L0 → L1 → L2 patch. Keep inserting
	// recent data until the stale window ships.
	fillSequential(t, env.l, ids, 40, end, 50)
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	if env.l.Stats().PatchesCreated == 0 {
		t.Fatal("no patches created for out-of-order data")
	}
	// The out-of-order samples are visible and win over nothing (they are
	// new timestamps).
	got := querySeries(t, env.l, 1, 100, 210)
	foundOOO := 0
	for _, s := range got {
		if s.V == 777 || s.V == 888 {
			foundOOO++
		}
	}
	if foundOOO != 2 {
		t.Fatalf("out-of-order samples missing: %v", got)
	}
}

func TestOutOfOrderOverwriteNewestWins(t *testing.T) {
	env := newEnv(t, smallOpts())
	ids := []uint64{1}
	end := fillSequential(t, env.l, ids, 40, 0, 50)
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	// Overwrite an existing timestamp (t=100 had some value).
	putSeries(t, env.l, 1, []chunkenc.Sample{{T: 100, V: 999}})
	fillSequential(t, env.l, ids, 40, end, 50)
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	got := querySeries(t, env.l, 1, 100, 100)
	if len(got) != 1 || got[0].V != 999 {
		t.Fatalf("overwrite lost: %v", got)
	}
}

func TestPatchMergeTriggered(t *testing.T) {
	env := newEnv(t, smallOpts())
	ids := []uint64{1, 2}
	end := fillSequential(t, env.l, ids, 40, 0, 50)
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	// Repeatedly inject out-of-order rounds into the same L2 window,
	// each followed by enough fresh data to ship it down as a patch.
	for round := 0; round < 6; round++ {
		putSeries(t, env.l, 1, []chunkenc.Sample{{T: int64(300 + round*7), V: float64(round)}})
		end = fillSequential(t, env.l, ids, 40, end, 50)
		if err := env.l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	st := env.l.Stats()
	if st.PatchesCreated < 3 {
		t.Fatalf("patches created = %d", st.PatchesCreated)
	}
	if st.PatchMerges == 0 {
		t.Fatal("patch merge never triggered despite threshold 2")
	}
	// All injected samples still correct after split-merge.
	for round := 0; round < 6; round++ {
		ts := int64(300 + round*7)
		got := querySeries(t, env.l, 1, ts, ts)
		if len(got) != 1 || got[0].V != float64(round) {
			t.Fatalf("round %d: %v", round, got)
		}
	}
}

func TestRetention(t *testing.T) {
	env := newEnv(t, smallOpts())
	fillSequential(t, env.l, []uint64{1}, 40, 0, 50)
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	before := env.l.NumPartitions()
	dropped := env.l.ApplyRetention(8000)
	if dropped == 0 {
		t.Fatal("retention dropped nothing")
	}
	after := env.l.NumPartitions()
	if after[0]+after[1]+after[2] >= before[0]+before[1]+before[2] {
		t.Fatalf("partitions not reduced: %v -> %v", before, after)
	}
	// Old data gone, recent data kept.
	if got := querySeries(t, env.l, 1, 0, 7999); len(got) != 0 {
		t.Fatalf("expired data still visible: %d samples", len(got))
	}
	if got := querySeries(t, env.l, 1, 8000, 100000); len(got) == 0 {
		t.Fatal("recent data lost by retention")
	}
}

// TestDynamicSizingShrinks runs the same dense data with and without a
// fast-store budget. The budget alone decides whether Algorithm 1 runs:
// without one R1 never changes, with a tiny one it shrinks.
func TestDynamicSizingShrinks(t *testing.T) {
	for _, tc := range []struct {
		name      string
		fastLimit int64
	}{
		{"unlimited", 0},
		{"tiny budget", 1 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := smallOpts()
			opts.FastLimit = tc.fastLimit
			env := newEnv(t, opts)
			fillSequential(t, env.l, []uint64{1, 2, 3, 4}, 60, 0, 50)
			if err := env.l.Flush(); err != nil {
				t.Fatal(err)
			}
			st := env.l.Stats()
			r1After, r2After := env.l.PartitionLengths()
			if tc.fastLimit == 0 {
				if st.ResizeShrinks+st.ResizeGrows != 0 || r1After != opts.L0PartitionLength {
					t.Fatalf("unlimited budget resized: %d shrinks, %d grows, R1=%d", st.ResizeShrinks, st.ResizeGrows, r1After)
				}
				return
			}
			if st.ResizeShrinks == 0 || r1After >= opts.L0PartitionLength {
				t.Fatalf("no shrink under budget pressure (R1=%d)", r1After)
			}
			if r1After < opts.PartitionLengthLowerBound {
				t.Fatalf("R1 below lower bound: %d", r1After)
			}
			if r2After < r1After {
				t.Fatalf("R2 < R1: %d < %d", r2After, r1After)
			}
		})
	}
}

func TestDynamicSizingGrows(t *testing.T) {
	opts := smallOpts()
	opts.FastLimit = 64 << 20 // huge budget, sparse data
	env := newEnv(t, opts)
	fillSequential(t, env.l, []uint64{1}, 60, 0, 50)
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	if env.l.Stats().ResizeGrows == 0 {
		r1, _ := env.l.PartitionLengths()
		t.Fatalf("R1 never grew with sparse data (R1=%d)", r1)
	}
}

func TestRecoveryFromStores(t *testing.T) {
	fast := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
	slow := cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{})
	opts := smallOpts()
	opts.Fast = fast
	opts.Slow = slow
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ids := []uint64{1, 2}
	end := fillSequential(t, l, ids, 40, 0, 50)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	beforeParts := l.NumPartitions()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen over the same stores: metadata rebuilt from listings.
	l2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.NumPartitions(); got != beforeParts {
		t.Fatalf("partitions after recovery = %v, want %v", got, beforeParts)
	}
	for _, id := range ids {
		chunks, err := l2.ChunksFor(id, 0, end)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SeriesSamples(chunks, 0, end)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 400 {
			t.Fatalf("series %d after recovery: %d samples", id, len(got))
		}
	}
}

func TestGroupChunksThroughLSM(t *testing.T) {
	env := newEnv(t, smallOpts())
	gid := uint64(1)<<63 | 7
	g := &chunkenc.GroupData{
		Times: []int64{100, 200, 300},
		Columns: []chunkenc.GroupColumn{
			{Slot: 0, Values: []float64{1, 2, 3}, Nulls: []bool{false, false, false}},
			{Slot: 1, Values: []float64{0, 5, 0}, Nulls: []bool{true, false, true}},
		},
	}
	enc, err := g.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := env.l.Put(encoding.MakeKey(gid, 100), tuple.Encode(1, tuple.KindGroup, 100, 300, enc)); err != nil {
		t.Fatal(err)
	}
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	chunks, err := env.l.ChunksFor(gid, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	bySlot, err := GroupSamples(chunks, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(bySlot[0]) != 3 || len(bySlot[1]) != 1 {
		t.Fatalf("group samples = %v", bySlot)
	}
	if bySlot[1][0] != (SamplePair{200, 5}) {
		t.Fatalf("slot 1 = %v", bySlot[1])
	}
}

// TestRandomWorkloadAgainstOracle drives the tree with a random mix of
// in-order and out-of-order chunk inserts and verifies every query against
// a brute-force oracle.
func TestRandomWorkloadAgainstOracle(t *testing.T) {
	env := newEnv(t, smallOpts())
	rnd := rand.New(rand.NewSource(99))
	oracle := map[uint64]map[int64]float64{} // id -> t -> latest value
	ids := []uint64{1, 2, 3}
	frontier := int64(0)
	for round := 0; round < 300; round++ {
		id := ids[rnd.Intn(len(ids))]
		var base int64
		if rnd.Intn(5) == 0 && frontier > 2000 {
			base = rnd.Int63n(frontier) // out-of-order
		} else {
			base = frontier
			frontier += int64(10 + rnd.Intn(200))
		}
		n := 1 + rnd.Intn(8)
		var samples []chunkenc.Sample
		tcur := base
		for s := 0; s < n; s++ {
			v := rnd.Float64() * 100
			samples = append(samples, chunkenc.Sample{T: tcur, V: v})
			if oracle[id] == nil {
				oracle[id] = map[int64]float64{}
			}
			oracle[id][tcur] = v
			tcur += int64(1 + rnd.Intn(50))
		}
		putSeries(t, env.l, id, samples)
	}
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		got := querySeries(t, env.l, id, 0, frontier+10000)
		if len(got) != len(oracle[id]) {
			t.Fatalf("series %d: %d samples, oracle has %d", id, len(got), len(oracle[id]))
		}
		for _, s := range got {
			want, ok := oracle[id][s.T]
			if !ok || want != s.V {
				t.Fatalf("series %d t=%d: got %v, want %v (present=%v)", id, s.T, s.V, want, ok)
			}
		}
		// Random sub-range queries.
		for q := 0; q < 20; q++ {
			lo := rnd.Int63n(frontier)
			hi := lo + rnd.Int63n(frontier-lo+1)
			got := querySeries(t, env.l, id, lo, hi)
			count := 0
			for ts := range oracle[id] {
				if ts >= lo && ts <= hi {
					count++
				}
			}
			if len(got) != count {
				t.Fatalf("series %d range [%d,%d]: got %d, want %d", id, lo, hi, len(got), count)
			}
		}
	}
}

func TestBackgroundErrorSurfaces(t *testing.T) {
	opts := smallOpts()
	fast := &failingStore{MemStore: cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{}), failAfter: 2}
	slow := cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{})
	opts.Fast = fast
	opts.Slow = slow
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 200; i++ {
		samples := []chunkenc.Sample{{T: int64(i) * 100, V: 1}}
		k, v := seriesKV(t, 1, samples)
		if err := l.Put(k, v); err != nil {
			return // error surfaced via Put: success
		}
	}
	l.mu.Lock()
	l.rotateLocked()
	l.mu.Unlock()
	if err := l.WaitIdle(); err == nil {
		t.Fatal("store failure never surfaced")
	}
}

// failingStore fails every Put after the first failAfter calls.
type failingStore struct {
	*cloud.MemStore
	failAfter int
	puts      int
}

func (f *failingStore) Put(key string, data []byte) error {
	f.puts++
	if f.puts > f.failAfter {
		return fmt.Errorf("injected store failure")
	}
	return f.MemStore.Put(key, data)
}

func TestParseTableName(t *testing.T) {
	p := &partition{minT: -500, maxT: 1500}
	name := tableName(1, p, 42)
	level, minT, maxT, _, seq, isPatch, err := parseTableName(name)
	if err != nil || isPatch || level != 1 || minT != -500 || maxT != 1500 || seq != 42 {
		t.Fatalf("parse(%s) = %d %d %d %d %v %v", name, level, minT, maxT, seq, isPatch, err)
	}
	pn := patchName(p, 42, 99)
	level2, _, _, baseSeq, seq2, isPatch2, err := parseTableName(pn)
	if err != nil || !isPatch2 || level2 != 2 || baseSeq != 42 || seq2 != 99 {
		t.Fatalf("parse(%s) = %d %d %d %v %v", pn, level2, baseSeq, seq2, isPatch2, err)
	}
	if _, _, _, _, _, _, err := parseTableName("garbage"); err == nil {
		t.Fatal("garbage name parsed")
	}
}

func TestLevelSizesAndFastUsage(t *testing.T) {
	env := newEnv(t, smallOpts())
	fillSequential(t, env.l, []uint64{1}, 10, 0, 50)
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	sizes := env.l.LevelSizes()
	if sizes[0]+sizes[1]+sizes[2] == 0 {
		t.Fatal("no level sizes")
	}
	if env.l.FastUsage() != sizes[0]+sizes[1] {
		t.Fatal("FastUsage mismatch")
	}
}

func TestRecoveryWithPatches(t *testing.T) {
	fast := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
	slow := cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{})
	opts := smallOpts()
	opts.Fast = fast
	opts.Slow = slow
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ids := []uint64{1, 2}
	end := fillSequential(t, l, ids, 40, 0, 50)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	// Inject out-of-order data and push it down to L2 patches.
	putSeries(t, l, 1, []chunkenc.Sample{{T: 111, V: 777}})
	fillSequential(t, l, ids, 40, end, 50)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if l.Stats().PatchesCreated == 0 {
		t.Skip("workload produced no patches at this scale")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: patch tables must reattach to their base tables by name.
	l2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := querySeries(t, l2, 1, 111, 111)
	if len(got) != 1 || got[0].V != 777 {
		t.Fatalf("patched sample lost after recovery: %v", got)
	}
}

func TestRetentionConcurrentWithQueries(t *testing.T) {
	env := newEnv(t, smallOpts())
	fillSequential(t, env.l, []uint64{1}, 60, 0, 50)
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := env.l.ChunksFor(1, 0, 1<<40); err != nil {
				t.Errorf("query during retention: %v", err)
				return
			}
		}
	}()
	env.l.ApplyRetention(10000)
	<-done
}

// TestEBSOnlyConfiguration runs the tree with Slow == Fast (Figure 17's
// placement): everything must still work, with L2 partitions landing on the
// same store.
func TestEBSOnlyConfiguration(t *testing.T) {
	fast := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
	opts := smallOpts()
	opts.Fast = fast
	opts.Slow = fast
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	end := fillSequential(t, l, []uint64{1}, 40, 0, 50)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if l.Stats().CompactionsL1L2 == 0 {
		t.Fatal("no L1→L2 compactions in EBS-only mode")
	}
	got := querySeries(t, l, 1, 0, end)
	if len(got) != 400 {
		t.Fatalf("EBS-only query = %d samples", len(got))
	}
}

// TestPartitionLengthChangeMidStream shrinks R1 between flushes and checks
// the compaction alignment keeps all data queryable (Figure 12 splitting).
func TestPartitionLengthChangeMidStream(t *testing.T) {
	env := newEnv(t, smallOpts())
	end := fillSequential(t, env.l, []uint64{1}, 20, 0, 50)
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	// Manually halve the partition lengths (what Algorithm 1 would do).
	env.l.mu.Lock()
	env.l.r1 /= 2
	env.l.r2 /= 2
	env.l.mu.Unlock()
	end = fillSequential(t, env.l, []uint64{1}, 20, end, 50)
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	// And double beyond the original.
	env.l.mu.Lock()
	env.l.r1 *= 4
	env.l.r2 *= 4
	env.l.mu.Unlock()
	end = fillSequential(t, env.l, []uint64{1}, 20, end, 50)
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	got := querySeries(t, env.l, 1, 0, end)
	if len(got) != 600 {
		t.Fatalf("mixed-length partitions lost data: %d samples, want 600", len(got))
	}
	// Out-of-order into old (differently-sized) partitions still works.
	putSeries(t, env.l, 1, []chunkenc.Sample{{T: 123, V: -9}})
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	got = querySeries(t, env.l, 1, 123, 123)
	if len(got) != 1 || got[0].V != -9 {
		t.Fatalf("ooo into resized partition = %v", got)
	}
}

// TestFlushedMemtableIsReleased: once a memtable is flushed, nothing in the
// tree may keep it reachable — in particular not the immutable queue's
// backing array, which outlives the slot the flusher pops.
func TestFlushedMemtableIsReleased(t *testing.T) {
	opts := smallOpts()
	opts.MemTableSize = 1 << 20 // rotate only on Flush
	env := newEnv(t, opts)
	putSeries(t, env.l, 1, []chunkenc.Sample{{T: 10, V: 1}, {T: 20, V: 2}})

	released := make(chan struct{})
	env.l.mu.Lock()
	runtime.SetFinalizer(env.l.mem, func(*memtable.MemTable) { close(released) })
	env.l.mu.Unlock()
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		runtime.GC()
		select {
		case <-released:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the flushed memtable is still reachable after 5 GCs")
}
