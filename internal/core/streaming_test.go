package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"timeunion/internal/cloud"
	"timeunion/internal/index"
	"timeunion/internal/labels"
	"timeunion/internal/lsm"
)

// This file is the identity guarantee of the streaming refactor: the old
// materializing read path (eager SeriesSamples/GroupSamples + per-sample
// mergeOne head overlay) lives on here as the reference implementation,
// and randomized workloads assert the iterator pipeline reproduces it
// byte-for-byte.

// mergeOneRef is the pre-refactor head-overlay insertion (O(n) per sample,
// O(n²) per query), kept as the reference the streaming merge must match.
func mergeOneRef(s []lsm.SamplePair, p lsm.SamplePair) []lsm.SamplePair {
	i := sort.Search(len(s), func(i int) bool { return s[i].T >= p.T })
	if i < len(s) && s[i].T == p.T {
		s[i] = p
		return s
	}
	s = append(s, lsm.SamplePair{})
	copy(s[i+1:], s[i:])
	s[i] = p
	return s
}

func legacySeries(t testing.TB, db *DB, id uint64, mint, maxt int64) (Series, bool) {
	lbls, ok := db.head.SeriesLabels(id)
	if !ok {
		return Series{}, false
	}
	chunks, err := db.store.ChunksForInto(nil, []uint64{id}, mint, maxt)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := lsm.SeriesSamples(chunks, mint, maxt)
	if err != nil {
		t.Fatal(err)
	}
	headSamples, err := db.head.HeadSamples(id, mint, maxt)
	if err != nil {
		t.Fatal(err)
	}
	for _, hs := range headSamples {
		samples = mergeOneRef(samples, lsm.SamplePair{T: hs.T, V: hs.V})
	}
	if len(samples) == 0 {
		return Series{}, false
	}
	return Series{Labels: lbls, Samples: samples}, true
}

func legacyGroup(t testing.TB, db *DB, gid uint64, mint, maxt int64, matchers []*labels.Matcher) []Series {
	groupTags, members, ok := db.head.GroupInfo(gid)
	if !ok {
		return nil
	}
	chunks, err := db.store.ChunksForInto(nil, []uint64{gid}, mint, maxt)
	if err != nil {
		t.Fatal(err)
	}
	bySlot, err := lsm.GroupSamples(chunks, mint, maxt)
	if err != nil {
		t.Fatal(err)
	}
	headBySlot, err := db.head.HeadGroupSamples(gid, mint, maxt)
	if err != nil {
		t.Fatal(err)
	}
	for slot, hs := range headBySlot {
		for _, s := range hs {
			bySlot[slot] = mergeOneRef(bySlot[slot], lsm.SamplePair{T: s.T, V: s.V})
		}
	}
	var out []Series
	for slot := uint32(0); int(slot) < len(members); slot++ {
		samples := bySlot[slot]
		if len(samples) == 0 {
			continue
		}
		full := labels.Merge(groupTags, members[slot])
		if !matchAll(full, matchers) {
			continue
		}
		out = append(out, Series{Labels: full, Samples: samples})
	}
	return out
}

// legacyQuery is the pre-refactor query pipeline, end to end.
func legacyQuery(t testing.TB, db *DB, mint, maxt int64, matchers ...*labels.Matcher) []Series {
	ids, err := db.head.Index().Select(matchers...)
	if err != nil {
		t.Fatal(err)
	}
	var out []Series
	for _, id := range ids {
		if index.IsGroupID(id) {
			out = append(out, legacyGroup(t, db, id, mint, maxt, matchers)...)
		} else if s, ok := legacySeries(t, db, id, mint, maxt); ok {
			out = append(out, s)
		}
	}
	sortSeries(out)
	return out
}

func sortSeries(s []Series) {
	sort.SliceStable(s, func(i, j int) bool { return s[i].Labels.Compare(s[j].Labels) < 0 })
}

func drainSet(t testing.TB, set SeriesSet) []Series {
	var out []Series
	for set.Next() {
		e := set.At()
		samples, err := drainPairs(e.Iterator)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Series{Labels: e.Labels, Samples: samples})
	}
	if err := set.Err(); err != nil {
		t.Fatal(err)
	}
	sortSeries(out)
	return out
}

func compareSeries(t testing.TB, tag string, got, want []Series) {
	if len(got) != len(want) {
		t.Fatalf("%s: %d series, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i].Labels.Compare(want[i].Labels) != 0 {
			t.Fatalf("%s series %d: labels %v, want %v", tag, i, got[i].Labels, want[i].Labels)
		}
		if len(got[i].Samples) != len(want[i].Samples) {
			t.Fatalf("%s series %v: %d samples, want %d\ngot  %v\nwant %v",
				tag, got[i].Labels, len(got[i].Samples), len(want[i].Samples), got[i].Samples, want[i].Samples)
		}
		for j := range want[i].Samples {
			if got[i].Samples[j] != want[i].Samples[j] {
				t.Fatalf("%s series %v sample %d: %v, want %v",
					tag, got[i].Labels, j, got[i].Samples[j], want[i].Samples[j])
			}
		}
	}
}

// loadRandomWorkload drives every ingestion shape through the head:
// in-order appends, out-of-order rewrites and early flushes, duplicate
// timestamps re-appended across flush boundaries (distinct ranks), and
// group rows with random NULL patterns. Returns the max timestamp written.
func loadRandomWorkload(t testing.TB, db *DB, rnd *rand.Rand, rounds int) int64 {
	type cursor struct {
		id   uint64
		last int64
	}
	var series []cursor
	for i := 0; i < 3; i++ {
		ls := labels.FromStrings("metric", "cpu", "host", fmt.Sprintf("h%d", i))
		id, err := db.Append(ls, 0, rnd.Float64()*100)
		if err != nil {
			t.Fatal(err)
		}
		series = append(series, cursor{id: id})
	}
	gTags := labels.FromStrings("metric", "mem", "dc", "east")
	uniques := []labels.Labels{
		labels.FromStrings("host", "g0"),
		labels.FromStrings("host", "g1"),
		labels.FromStrings("host", "g2"),
	}
	gid, slots, err := db.AppendGroup(gTags, uniques, 0, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	glast, maxT := int64(0), int64(0)
	bump := func(v int64) {
		if v > maxT {
			maxT = v
		}
	}
	for r := 0; r < rounds; r++ {
		switch rnd.Intn(10) {
		case 0: // out-of-order series sample
			c := &series[rnd.Intn(len(series))]
			tt := c.last - int64(1+rnd.Intn(300))
			if tt < 0 {
				tt = 0
			}
			if err := db.AppendFast(c.id, tt, rnd.Float64()*100); err != nil {
				t.Fatal(err)
			}
		case 1: // duplicate timestamp, new value (newest must win)
			c := &series[rnd.Intn(len(series))]
			if err := db.AppendFast(c.id, c.last, rnd.Float64()*100); err != nil {
				t.Fatal(err)
			}
		case 2: // flush boundary: everything so far gets an older rank
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		case 3, 4: // group row with a random NULL pattern
			glast += int64(1 + rnd.Intn(60))
			bump(glast)
			var sub []int
			var vals []float64
			for _, s := range slots {
				if rnd.Intn(3) > 0 {
					sub = append(sub, s)
					vals = append(vals, rnd.Float64()*100)
				}
			}
			if len(sub) == 0 {
				sub, vals = slots[:1], []float64{rnd.Float64() * 100}
			}
			if err := db.AppendGroupFast(gid, sub, glast, vals); err != nil {
				t.Fatal(err)
			}
		case 5: // out-of-order group row
			tt := glast - int64(1+rnd.Intn(200))
			if tt < 0 {
				tt = 0
			}
			if err := db.AppendGroupFast(gid, slots, tt, []float64{rnd.Float64(), rnd.Float64(), rnd.Float64()}); err != nil {
				t.Fatal(err)
			}
		default: // in-order series sample
			c := &series[rnd.Intn(len(series))]
			c.last += int64(1 + rnd.Intn(50))
			bump(c.last)
			if err := db.AppendFast(c.id, c.last, rnd.Float64()*100); err != nil {
				t.Fatal(err)
			}
		}
	}
	return maxT
}

func checkStreamingIdentity(t testing.TB, db *DB, rnd *rand.Rand, maxT int64) {
	sel := func(typ labels.MatchType, n, v string) *labels.Matcher {
		m, err := labels.NewMatcher(typ, n, v)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	matcherSets := [][]*labels.Matcher{
		{sel(labels.MatchRegexp, "metric", ".+")}, // everything, incl. groups
		{sel(labels.MatchEqual, "metric", "cpu")}, // individual series only
		{sel(labels.MatchEqual, "host", "g1")},    // one group member
		{sel(labels.MatchNotEqual, "host", "h0")}, // negative matcher
	}
	windows := [][2]int64{
		{0, maxT + 100},
		{maxT / 3, 2 * maxT / 3},
		{maxT + 1000, maxT + 2000}, // empty
	}
	for i := 0; i < 2; i++ {
		a, b := rnd.Int63n(maxT+1), rnd.Int63n(maxT+1)
		if a > b {
			a, b = b, a
		}
		windows = append(windows, [2]int64{a, b})
	}
	for mi, ms := range matcherSets {
		for wi, w := range windows {
			tag := fmt.Sprintf("matcher %d window %d [%d,%d]", mi, wi, w[0], w[1])
			want := legacyQuery(t, db, w[0], w[1], ms...)
			got, err := db.Query(w[0], w[1], ms...)
			if err != nil {
				t.Fatal(err)
			}
			compareSeries(t, tag+" Query", got, want)
			set, err := db.QuerySeriesSet(context.Background(), w[0], w[1], ms...)
			if err != nil {
				t.Fatal(err)
			}
			compareSeries(t, tag+" SeriesSet", drainSet(t, set), want)
		}
	}
}

// TestStreamingMatchesLegacy is the randomized property test: the
// streaming pipeline must be sample-identical to the pre-refactor slice
// path over every ingestion shape. Run under -race by `make tier1-iter`.
func TestStreamingMatchesLegacy(t *testing.T) {
	rnd := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < 4; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			db := openTestDB(t, testOpts(t.TempDir()))
			maxT := loadRandomWorkload(t, db, rnd, 600)
			checkStreamingIdentity(t, db, rnd, maxT)
		})
	}
}

// FuzzStreamingQuery lets the fuzzer pick the workload seed and size.
func FuzzStreamingQuery(f *testing.F) {
	f.Add(int64(1), uint8(80))
	f.Add(int64(20260806), uint8(200))
	f.Add(int64(-99), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, rounds uint8) {
		rnd := rand.New(rand.NewSource(seed))
		db := openTestDB(t, testOpts(t.TempDir()))
		maxT := loadRandomWorkload(t, db, rnd, 20+int(rounds))
		checkStreamingIdentity(t, db, rnd, maxT)
	})
}

// TestSmallCacheStreamingIdentity runs FuzzStreamingQuery's seed corpus
// over a cache smaller than one table, with cache integrity checks on, so
// every identity check also crosses misses, evictions and read-aheads. Run
// under -race by `make tier1-iter`.
func TestSmallCacheStreamingIdentity(t *testing.T) {
	cloud.SetIntegrityChecks(true)
	defer cloud.SetIntegrityChecks(false)
	var evictions uint64
	for _, seed := range []struct {
		seed   int64
		rounds uint8
	}{{1, 80}, {20260806, 200}, {-99, 10}} {
		t.Run(fmt.Sprint(seed.seed), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(seed.seed))
			db := openTestDB(t, smallCacheOpts(t.TempDir()))
			maxT := loadRandomWorkload(t, db, rnd, 20+int(seed.rounds))
			checkStreamingIdentity(t, db, rnd, maxT)
			evictions += db.Cache().Evictions()
		})
	}
	if evictions == 0 {
		t.Fatal("setup: no cache ever evicted")
	}
}

// TestNarrowRangeDecodeShrink asserts the satellite guarantee: a narrow
// query over long retention decodes a fraction of the bytes a full-range
// query does, because chunk envelope bounds prune undecoded chunks.
func TestNarrowRangeDecodeShrink(t *testing.T) {
	opts := testOpts(t.TempDir())
	db := openTestDB(t, opts)
	id, err := db.Append(labels.FromStrings("metric", "cpu", "host", "a"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(10); ts <= 20000; ts += 10 {
		if err := db.AppendFast(id, ts, float64(ts)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	decodedDelta := func(mint, maxt int64) (float64, int) {
		before := db.Metrics().Snapshot()["timeunion_db_decoded_bytes_total"]
		res, err := db.Query(mint, maxt, mustMatcher(t, "metric", "cpu"))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, s := range res {
			n += len(s.Samples)
		}
		return db.Metrics().Snapshot()["timeunion_db_decoded_bytes_total"] - before, n
	}
	fullBytes, fullN := decodedDelta(0, 20000)
	if fullN != 2001 || fullBytes == 0 {
		t.Fatalf("full query: %d samples, %v decoded bytes", fullN, fullBytes)
	}
	narrowBytes, narrowN := decodedDelta(19000, 19100)
	if narrowN != 11 {
		t.Fatalf("narrow query returned %d samples, want 11", narrowN)
	}
	if narrowBytes == 0 {
		t.Fatal("narrow query decoded nothing")
	}
	if narrowBytes > fullBytes/4 {
		t.Fatalf("narrow query decoded %v bytes, full %v — pruning not effective", narrowBytes, fullBytes)
	}
}

func mustMatcher(t testing.TB, name, value string) *labels.Matcher {
	m, err := labels.NewMatcher(labels.MatchEqual, name, value)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// BenchmarkHeadOverlayMerge measures the head-overlay cost on a series
// with thousands of unflushed head samples over stored chunks — the shape
// where the old per-sample mergeOne insertion was O(n²).
func BenchmarkHeadOverlayMerge(b *testing.B) {
	opts := Options{
		Dir:               b.TempDir(),
		Fast:              cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{}),
		Slow:              cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{}),
		CacheBytes:        1 << 20,
		ChunkSamples:      8192, // keep thousands of samples in the open head chunk
		SlotsPerRegion:    256,
		MemTableSize:      1 << 20,
		L0PartitionLength: 100000,
		L2PartitionLength: 400000,
		MaxL0Partitions:   2,
		PatchThreshold:    2,
		TargetTableSize:   64 << 10,
		BlockSize:         4096,
	}
	db, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	id, err := db.Append(labels.FromStrings("metric", "cpu", "host", "a"), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	const stored, inHead = 4000, 4000
	for ts := int64(1); ts <= stored; ts++ {
		if err := db.AppendFast(id, ts*10, float64(ts)); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	for ts := int64(stored + 1); ts <= stored+inHead; ts++ {
		if err := db.AppendFast(id, ts*10, float64(ts)); err != nil {
			b.Fatal(err)
		}
	}
	m := mustMatcher(b, "metric", "cpu")

	b.Run("legacy-mergeOne", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := legacyQuery(b, db, 0, (stored+inHead)*10, m)
			if len(res) != 1 || len(res[0].Samples) != stored+inHead+1 {
				b.Fatalf("bad result: %d series", len(res))
			}
		}
	})
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := db.Query(0, (stored+inHead)*10, m)
			if err != nil {
				b.Fatal(err)
			}
			if len(res) != 1 || len(res[0].Samples) != stored+inHead+1 {
				b.Fatalf("bad result: %d series", len(res))
			}
		}
	})
}
