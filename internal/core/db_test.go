package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"timeunion/internal/cloud"
	"timeunion/internal/goleveldb"
	"timeunion/internal/labels"
)

func goleveldbOptionsForTest(fast, slow cloud.Store) goleveldb.Options {
	return goleveldb.Options{
		Store:               slow,
		FastStore:           fast,
		FastLevels:          2,
		MemTableSize:        4 << 10,
		L0CompactionTrigger: 3,
		BaseLevelBytes:      8 << 10,
		Multiplier:          4,
		MaxLevels:           5,
		TargetTableSize:     8 << 10,
		BlockSize:           512,
	}
}

func testOpts(dir string) Options {
	return Options{
		Dir:               dir,
		Fast:              cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{}),
		Slow:              cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{}),
		CacheBytes:        1 << 20,
		ChunkSamples:      8,
		SlotsPerRegion:    256,
		MemTableSize:      4 << 10,
		L0PartitionLength: 1000,
		L2PartitionLength: 4000,
		MaxL0Partitions:   2,
		PatchThreshold:    2,
		TargetTableSize:   16 << 10,
		BlockSize:         512,
	}
}

func openTestDB(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestEndToEndSeries(t *testing.T) {
	db := openTestDB(t, testOpts(""))
	// Two series, samples spanning many partitions so data flows to L2.
	ids := map[string]uint64{}
	for _, host := range []string{"h1", "h2"} {
		ls := labels.FromStrings("metric", "cpu", "host", host)
		id, err := db.Append(ls, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids[host] = id
	}
	for ts := int64(10); ts <= 20000; ts += 10 {
		for _, id := range ids {
			if err := db.AppendFast(id, ts, float64(ts)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.NumSeries != 2 {
		t.Fatalf("NumSeries = %d", st.NumSeries)
	}
	if st.LSM.CompactionsL1L2 == 0 {
		t.Fatal("data never reached L2")
	}
	if st.SlowBytes == 0 {
		t.Fatal("no bytes on slow tier")
	}
	// An ephemeral DB (Dir "") has no WAL, so purging it is a no-op.
	if n, err := db.PurgeWAL(); err != nil || n != 0 {
		t.Fatalf("PurgeWAL without a WAL = %d, %v", n, err)
	}

	// Query one series over the whole span.
	res, err := db.Query(0, 20000, labels.MustEqual("host", "h1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d series", len(res))
	}
	if want := 2001; len(res[0].Samples) != want {
		t.Fatalf("got %d samples, want %d", len(res[0].Samples), want)
	}
	// Query both series by metric.
	res, err = db.Query(100, 200, labels.MustEqual("metric", "cpu"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d series", len(res))
	}
	for _, s := range res {
		if len(s.Samples) != 11 {
			t.Fatalf("series %v: %d samples", s.Labels, len(s.Samples))
		}
		for _, p := range s.Samples {
			if p.V != float64(p.T) {
				t.Fatalf("bad value %v at %d", p.V, p.T)
			}
		}
	}
}

func TestQueryIncludesOpenHeadChunk(t *testing.T) {
	db := openTestDB(t, testOpts(""))
	id, err := db.Append(labels.FromStrings("m", "x"), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AppendFast(id, 20, 2); err != nil {
		t.Fatal(err)
	}
	// No flush: samples live only in the head's open chunk.
	res, err := db.Query(0, 100, labels.MustEqual("m", "x"))
	if err != nil || len(res) != 1 || len(res[0].Samples) != 2 {
		t.Fatalf("res = %+v, err = %v", res, err)
	}
}

func TestEndToEndGroups(t *testing.T) {
	db := openTestDB(t, testOpts(""))
	gTags := labels.FromStrings("hostname", "host_0", "region", "tokyo")
	uniques := []labels.Labels{
		labels.FromStrings("metric", "usage_user"),
		labels.FromStrings("metric", "usage_system"),
		labels.FromStrings("metric", "usage_idle"),
	}
	gid, slots, err := db.AppendGroup(gTags, uniques, 0, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(10); ts <= 12000; ts += 10 {
		vals := []float64{float64(ts), float64(ts) * 2, float64(ts) * 3}
		if err := db.AppendGroupFast(gid, slots, ts, vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	// Select one member by its unique tag + group tag.
	res, err := db.Query(0, 12000,
		labels.MustEqual("hostname", "host_0"),
		labels.MustEqual("metric", "usage_system"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d series: %v", len(res), res)
	}
	if got := res[0].Labels.Get("metric"); got != "usage_system" {
		t.Fatalf("labels = %v", res[0].Labels)
	}
	if want := 1201; len(res[0].Samples) != want {
		t.Fatalf("got %d samples, want %d", len(res[0].Samples), want)
	}
	for _, p := range res[0].Samples {
		want := float64(p.T) * 2
		if p.T == 0 {
			want = 2
		}
		if p.V != want {
			t.Fatalf("member sample at %d = %v, want %v", p.T, p.V, want)
		}
	}

	// Selecting by group tag alone returns all members.
	res, err = db.Query(0, 12000, labels.MustEqual("region", "tokyo"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("group query returned %d members", len(res))
	}

	// Regex across members.
	res, err = db.Query(0, 12000, labels.MustMatcher(labels.MatchRegexp, "metric", "usage_(user|idle)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("regex group query returned %d members", len(res))
	}
}

func TestMixedSeriesAndGroups(t *testing.T) {
	db := openTestDB(t, testOpts(""))
	// Same metric name exists as an individual series and a group member.
	if _, err := db.Append(labels.FromStrings("metric", "cpu", "kind", "solo"), 10, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.AppendGroup(
		labels.FromStrings("kind", "grouped"),
		[]labels.Labels{labels.FromStrings("metric", "cpu")},
		10, []float64{2},
	); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(0, 100, labels.MustEqual("metric", "cpu"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d series, want solo + grouped", len(res))
	}
}

func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	id, err := db.Append(labels.FromStrings("m", "x"), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(20); ts <= 100; ts += 10 {
		if err := db.AppendFast(id, ts, float64(ts)); err != nil {
			t.Fatal(err)
		}
	}
	gid, slots, err := db.AppendGroup(
		labels.FromStrings("host", "h"),
		[]labels.Labels{labels.FromStrings("m", "gm")},
		50, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	_ = gid
	_ = slots
	// Simulate a crash: close WITHOUT flushing open chunks by only closing
	// the underlying WAL (we cannot skip Close's flush, so instead reopen
	// from the same WAL dir with fresh stores — the store contents are
	// ephemeral MemStores, so everything must come back from the WAL).
	if err := db.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	// Drop the db without Close (leak the goroutine; acceptable in tests).

	opts2 := testOpts(dir)
	db2, err := Open(opts2)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Query(0, 1000, labels.MustEqual("m", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Samples) != 10 {
		t.Fatalf("recovered series = %+v", res)
	}
	res, err = db2.Query(0, 1000, labels.MustEqual("m", "gm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Samples) != 1 || res[0].Samples[0].V != 5 {
		t.Fatalf("recovered group = %+v", res)
	}
}

// TestSequenceRestoredAfterRecovery pins the seq-restore step in
// head.Recover: samples at or below the flushed watermark are skipped
// during replay, so after a crash the series' next sequence number must be
// raised to that watermark. Without it, appends after the first recovery
// reuse burned sequence IDs and a *second* recovery silently skips them.
func TestSequenceRestoredAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	// The stores persist across incarnations (they model cloud storage);
	// only the process state and WAL dir carry over a crash.
	fast := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
	slow := cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{})
	open := func() *DB {
		opts := testOpts(dir)
		opts.Fast, opts.Slow = fast, slow
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	crash := func(db *DB) {
		_ = db.store.Close()
		_ = db.wal.CrashClose()
		_ = db.head.Close()
	}

	// Incarnation 1: everything appended here is flushed, so the flush
	// marks cover the full sequence range of both streams.
	db := open()
	id, err := db.Append(labels.FromStrings("m", "seq"), 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	gid, slots, err := db.AppendGroup(
		labels.FromStrings("host", "h"),
		[]labels.Labels{labels.FromStrings("m", "gseq")},
		10, []float64{10})
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(20); ts <= 200; ts += 10 {
		if err := db.AppendFast(id, ts, float64(ts)); err != nil {
			t.Fatal(err)
		}
		if err := db.AppendGroupFast(gid, slots, ts, []float64{float64(ts)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	crash(db)

	// Incarnation 2: replay skips every flushed sample, so nothing here
	// advances the in-memory sequence counters — only the restore step
	// does. These appends must not reuse burned sequence IDs.
	db = open()
	for ts := int64(210); ts <= 300; ts += 10 {
		if err := db.AppendFast(id, ts, float64(ts)); err != nil {
			t.Fatal(err)
		}
		if err := db.AppendGroupFast(gid, slots, ts, []float64{float64(ts)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	crash(db)

	// Incarnation 3: the second batch lives only in the WAL; if its records
	// carried reused sequence IDs they would be skipped as already-flushed.
	db = open()
	defer db.Close()
	for _, sel := range []string{"seq", "gseq"} {
		res, err := db.Query(0, 1000, labels.MustEqual("m", sel))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 {
			t.Fatalf("%s: got %d series, want 1", sel, len(res))
		}
		if want := 30; len(res[0].Samples) != want {
			t.Fatalf("%s: got %d samples, want %d (second batch lost)", sel, len(res[0].Samples), want)
		}
		for _, p := range res[0].Samples {
			if p.V != float64(p.T) {
				t.Fatalf("%s: sample %d has value %v", sel, p.T, p.V)
			}
		}
	}
}

func TestRetentionEndToEnd(t *testing.T) {
	db := openTestDB(t, testOpts(""))
	id, err := db.Append(labels.FromStrings("m", "x"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(10); ts <= 20000; ts += 10 {
		if err := db.AppendFast(id, ts, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	parts, _, err := db.ApplyRetention(10000)
	if err != nil {
		t.Fatal(err)
	}
	if parts == 0 {
		t.Fatal("retention dropped no partitions")
	}
	// Retention is partition-granular: every partition entirely older than
	// the watermark is gone, so a query well below it finds nothing...
	res, err := db.Query(0, 4000, labels.MustEqual("m", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("expired data visible: %d series", len(res))
	}
	// ...while recent data survives untouched.
	res, err = db.Query(10000, 20000, labels.MustEqual("m", "x"))
	if err != nil || len(res) != 1 {
		t.Fatalf("recent data lost: %v, %v", res, err)
	}
	if len(res[0].Samples) != 1001 {
		t.Fatalf("recent samples = %d, want 1001", len(res[0].Samples))
	}
}

func TestQueryAgainstOracleMixedWorkload(t *testing.T) {
	db := openTestDB(t, testOpts(""))
	rnd := rand.New(rand.NewSource(5))
	type key struct {
		metric string
		host   string
	}
	oracle := map[key]map[int64]float64{}
	idByKey := map[key]uint64{}
	for ts := int64(0); ts <= 15000; ts += 25 {
		for h := 0; h < 3; h++ {
			k := key{metric: fmt.Sprintf("m%d", h%2), host: fmt.Sprintf("h%d", h)}
			v := rnd.Float64()
			if oracle[k] == nil {
				oracle[k] = map[int64]float64{}
			}
			oracle[k][ts] = v
			if id, ok := idByKey[k]; ok {
				if err := db.AppendFast(id, ts, v); err != nil {
					t.Fatal(err)
				}
			} else {
				id, err := db.Append(labels.FromStrings("metric", k.metric, "host", k.host), ts, v)
				if err != nil {
					t.Fatal(err)
				}
				idByKey[k] = id
			}
		}
	}
	// Sprinkle out-of-order overwrites.
	for i := 0; i < 50; i++ {
		for k, id := range idByKey {
			ts := int64(rnd.Intn(600)) * 25
			v := -rnd.Float64()
			oracle[k][ts] = v
			if err := db.AppendFast(id, ts, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for k := range oracle {
		res, err := db.Query(0, 20000,
			labels.MustEqual("metric", k.metric), labels.MustEqual("host", k.host))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 {
			t.Fatalf("%v: %d series", k, len(res))
		}
		if len(res[0].Samples) != len(oracle[k]) {
			t.Fatalf("%v: %d samples, oracle %d", k, len(res[0].Samples), len(oracle[k]))
		}
		for _, p := range res[0].Samples {
			if oracle[k][p.T] != p.V {
				t.Fatalf("%v at %d: got %v, want %v", k, p.T, p.V, oracle[k][p.T])
			}
		}
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without stores succeeded")
	}
}

func TestLabelValues(t *testing.T) {
	db := openTestDB(t, testOpts(""))
	for i := 0; i < 5; i++ {
		if _, err := db.Append(labels.FromStrings("metric", "cpu", "host", fmt.Sprintf("h%d", i%3)), 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	vals := db.LabelValues("host")
	if len(vals) != 3 {
		t.Fatalf("LabelValues(host) = %v", vals)
	}
}

func TestStatsSnapshot(t *testing.T) {
	db := openTestDB(t, testOpts(""))
	if _, err := db.Append(labels.FromStrings("m", "x"), 1, 1); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.NumSeries != 1 || st.Memory.Total() == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTULDBBaselineEndToEnd(t *testing.T) {
	fast := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
	slow := cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{})
	store, err := NewTULDBStore(goleveldbOptionsForTest(fast, slow))
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts("")
	opts.Fast = fast
	opts.Slow = slow
	opts.Store = store
	db := openTestDB(t, opts)

	id, err := db.Append(labels.FromStrings("m", "x"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(10); ts <= 10000; ts += 10 {
		if err := db.AppendFast(id, ts, float64(ts)); err != nil {
			t.Fatal(err)
		}
	}
	// Out-of-order overwrite must still resolve newest-wins.
	if err := db.AppendFast(id, 500, -1); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(0, 10000, labels.MustEqual("m", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Samples) != 1001 {
		t.Fatalf("TU-LDB query = %d series / %d samples", len(res), len(res[0].Samples))
	}
	for _, p := range res[0].Samples {
		want := float64(p.T)
		if p.T == 500 {
			want = -1
		}
		if p.V != want {
			t.Fatalf("at %d: got %v want %v", p.T, p.V, want)
		}
	}
}

func TestBackgroundMaintenance(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, testOpts(dir))
	id, err := db.Append(labels.FromStrings("m", "x"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(10); ts <= 30000; ts += 10 {
		if err := db.AppendFast(id, ts, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().LSM.PartitionsDropped
	// Retain only the last 5000 time units; tick fast.
	m := db.StartMaintenance(5000, 5*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for db.Stats().LSM.PartitionsDropped == before {
		if time.Now().After(deadline) {
			m.Stop()
			t.Fatal("maintenance never dropped partitions")
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.Stop()
	m.Stop() // idempotent
	// Old data gone.
	res, err := db.Query(0, 4000, labels.MustEqual("m", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatal("maintenance retention ineffective")
	}
}

// TestGroupOracleWithPartialRounds drives a group through partial rounds
// (missing members), member growth, and out-of-order rounds, checking every
// member's samples against a brute-force oracle.
func TestGroupOracleWithPartialRounds(t *testing.T) {
	db := openTestDB(t, testOpts(""))
	rnd := rand.New(rand.NewSource(21))
	gTags := labels.FromStrings("host", "h0")
	oracle := map[int]map[int64]float64{} // slot -> t -> v

	// Start with 3 members; grow to 6 over time.
	uniques := []labels.Labels{}
	for i := 0; i < 6; i++ {
		uniques = append(uniques, labels.FromStrings("m", fmt.Sprintf("m%d", i)))
	}
	var gid uint64
	var slotOf []int // slot index per member index
	frontier := int64(0)
	for round := 0; round < 400; round++ {
		members := 3
		if round > 100 {
			members = 5
		}
		if round > 250 {
			members = 6
		}
		var ts int64
		if rnd.Intn(6) == 0 && frontier > 2000 {
			ts = rnd.Int63n(frontier) // out-of-order round
		} else {
			frontier += int64(10 + rnd.Intn(100))
			ts = frontier
		}
		// Random subset of the active members participates.
		var roundUniques []labels.Labels
		var roundVals []float64
		var roundMembers []int
		for m := 0; m < members; m++ {
			if rnd.Intn(5) == 0 {
				continue // member missing this round
			}
			roundUniques = append(roundUniques, uniques[m])
			roundVals = append(roundVals, rnd.Float64()*100)
			roundMembers = append(roundMembers, m)
		}
		if len(roundUniques) == 0 {
			continue
		}
		g, slots, err := db.AppendGroup(gTags, roundUniques, ts, roundVals)
		if err != nil {
			t.Fatal(err)
		}
		gid = g
		for i, m := range roundMembers {
			for len(slotOf) <= m {
				slotOf = append(slotOf, -1)
			}
			slotOf[m] = slots[i]
			if oracle[m] == nil {
				oracle[m] = map[int64]float64{}
			}
			oracle[m][ts] = roundVals[i]
		}
	}
	_ = gid
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for m, want := range oracle {
		res, err := db.Query(0, frontier+1000,
			labels.MustEqual("host", "h0"),
			labels.MustEqual("m", fmt.Sprintf("m%d", m)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 {
			t.Fatalf("member %d: %d series", m, len(res))
		}
		if len(res[0].Samples) != len(want) {
			t.Fatalf("member %d: %d samples, oracle %d", m, len(res[0].Samples), len(want))
		}
		for _, p := range res[0].Samples {
			if want[p.T] != p.V {
				t.Fatalf("member %d at %d: got %v want %v", m, p.T, p.V, want[p.T])
			}
		}
	}
}
