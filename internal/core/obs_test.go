package core

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"timeunion/internal/cloud"
	"timeunion/internal/labels"
	"timeunion/internal/obs"
)

// TestQueryTraceE2E runs a traced serial query end to end and checks the
// trace invariants from the ISSUE acceptance criteria: every stage's total
// is bounded by the trace duration, and the per-tier byte attribution
// matches the stores' own Stats counters exactly (lone query). A traced
// series set drained to the end is charged the same way.
func TestQueryTraceE2E(t *testing.T) {
	opts := testOpts(t.TempDir())
	db := openTestDB(t, opts)

	for _, metric := range []string{"cpu", "mem"} {
		id, err := db.Append(labels.FromStrings("metric", metric, "host", "a"), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for ts := int64(10); ts < 5000; ts += 10 {
			if err := db.AppendFast(id, ts, float64(ts)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	fast0 := opts.Fast.Stats().BytesRead
	slow0 := opts.Slow.Stats().BytesRead
	tr := obs.NewTrace("e2e")
	ctx := obs.ContextWithTrace(context.Background(), tr)
	sel, err := labels.NewMatcher(labels.MatchEqual, "metric", "cpu")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryWorkers(ctx, 1, 0, 5000, sel)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if len(res) != 1 {
		t.Fatalf("matched %d series, want 1", len(res))
	}

	total := tr.Duration()
	stages := tr.Stages()
	if len(stages) == 0 {
		t.Fatal("traced query recorded no stages")
	}
	seen := map[string]bool{}
	for _, s := range stages {
		seen[s.Name] = true
		if s.Total > total {
			t.Errorf("stage %s total %s exceeds trace duration %s", s.Name, s.Total, total)
		}
		if s.Max > s.Total {
			t.Errorf("stage %s max %s exceeds its total %s", s.Name, s.Max, s.Total)
		}
	}
	for _, want := range []string{"index_select", "lsm_read", "decode", "head_scan"} {
		if !seen[want] {
			t.Errorf("stage %q missing from trace (have %v)", want, stages)
		}
	}
	checkTierBytes(t, "QueryWorkers", tr, opts, fast0, slow0)

	// The other series' blocks are still cold: a streamed query of it
	// reads the tiers again.
	fast0 = opts.Fast.Stats().BytesRead
	slow0 = opts.Slow.Stats().BytesRead
	tr = obs.NewTrace("e2e-stream")
	set, err := db.QuerySeriesSet(obs.ContextWithTrace(context.Background(), tr), 0, 5000, labels.MustEqual("metric", "mem"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for set.Next() {
		for it := set.At().Iterator; it.Next(); {
			n++
		}
	}
	if err := set.Err(); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if n != 500 {
		t.Fatalf("streamed %d samples, want 500", n)
	}
	checkTierBytes(t, "QuerySeriesSet", tr, opts, fast0, slow0)
}

// checkTierBytes compares a finished query's trace with the stores' read
// counters since fast0 and slow0.
func checkTierBytes(t *testing.T, path string, tr *obs.Trace, opts Options, fast0, slow0 uint64) {
	t.Helper()
	fastDelta := int64(opts.Fast.Stats().BytesRead - fast0)
	slowDelta := int64(opts.Slow.Stats().BytesRead - slow0)
	if got := tr.TierBytes("fast"); got != fastDelta {
		t.Errorf("%s: trace fast-tier bytes = %d, store counted %d", path, got, fastDelta)
	}
	if got := tr.TierBytes("slow"); got != slowDelta {
		t.Errorf("%s: trace slow-tier bytes = %d, store counted %d", path, got, slowDelta)
	}
	if fastDelta+slowDelta == 0 {
		t.Errorf("%s: query read zero bytes from both tiers; attribution not exercised", path)
	}
}

// TestQueryAccounting: timeunion_db_query_seconds counts one per Query and
// one per series set drained to the end, nothing for a Next after the end,
// and a failed query counts once in timeunion_db_query_errors_total.
func TestQueryAccounting(t *testing.T) {
	db := openTestDB(t, testOpts(""))
	for i := 0; i < 3; i++ {
		id, err := db.Append(labels.FromStrings("metric", "cpu", "core", fmt.Sprint(i)), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for ts := int64(10); ts <= 5000; ts += 10 {
			if err := db.AppendFast(id, ts, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	sel := labels.MustEqual("metric", "cpu")
	check := func(step string, queries, errs uint64) {
		t.Helper()
		m := db.m
		if got := m.queries.Value(); got != queries {
			t.Errorf("%s: queries_total = %d, want %d", step, got, queries)
		}
		if got := m.queryLat.Count(); got != queries {
			t.Errorf("%s: query_seconds count = %d, want %d", step, got, queries)
		}
		if got := m.queryErrs.Value(); got != errs {
			t.Errorf("%s: query_errors_total = %d, want %d", step, got, errs)
		}
	}

	if _, err := db.Query(0, 5000, sel); err != nil {
		t.Fatal(err)
	}
	check("Query", 1, 0)

	set, err := db.QuerySeriesSet(context.Background(), 0, 5000, sel)
	if err != nil {
		t.Fatal(err)
	}
	for set.Next() {
	}
	if err := set.Err(); err != nil {
		t.Fatal(err)
	}
	check("drained set", 2, 0)
	if set.Next() {
		t.Fatal("Next after exhaustion yielded a series")
	}
	check("Next after exhaustion", 2, 0)

	db.store = corruptChunkStore{db.store}
	if _, err := db.Query(0, 5000, sel); err == nil {
		t.Fatal("corrupt chunks did not fail Query")
	}
	check("failed Query", 3, 1)
	set, err = db.QuerySeriesSet(context.Background(), 0, 5000, sel)
	if err != nil {
		t.Fatal(err)
	}
	for set.Next() {
	}
	if set.Err() == nil || set.Next() {
		t.Fatal("corrupt chunks did not end the set with an error")
	}
	check("failed set", 4, 2)
}

// The overhead guards below share one ingest shape: ingestGoroutines
// writers, each appending ingestRounds samples to its own
// ingestSeriesPerGoro series.
const (
	ingestGoroutines    = 8
	ingestSeriesPerGoro = 32
	ingestRounds        = 2000
)

// openIngestDB opens an in-memory DB with the given instrumentation
// switches and registers the series the guards append to.
func openIngestDB(t *testing.T, disableMetrics, disableJournal bool) (*DB, []uint64) {
	t.Helper()
	db, err := Open(Options{
		Fast:           cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{}),
		Slow:           cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{}),
		ChunkSamples:   32,
		MemTableSize:   4 << 20,
		DisableMetrics: disableMetrics,
		DisableJournal: disableJournal,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, ingestGoroutines*ingestSeriesPerGoro)
	for i := range ids {
		id, err := db.Append(labels.FromStrings("metric", "cpu", "i", string(rune('a'+i/26%26))+string(rune('a'+i%26))+string(rune('a'+i/676))), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return db, ids
}

// appendAllocs measures the allocations of one append round over ids: one
// AppendFast per series, or one AppendBatch carrying them all. The rounds
// stay well under the memtable flush threshold, so no background work runs
// during the measurement.
func appendAllocs(t *testing.T, db *DB, ids []uint64, batch bool) float64 {
	var b Batch
	ts := int64(0)
	return testing.AllocsPerRun(200, func() {
		ts += 10
		if batch {
			b.Reset()
			for _, id := range ids {
				b.Add(id, ts, 1.5)
			}
			if err := db.AppendBatch(&b); err != nil {
				t.Error(err)
			}
			return
		}
		for _, id := range ids {
			if err := db.AppendFast(id, ts, 1.5); err != nil {
				t.Error(err)
			}
		}
	})
}

// sustainedIngest runs the parallel AppendFast workload and returns its
// wall time.
func sustainedIngest(t *testing.T, db *DB, ids []uint64) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < ingestGoroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < ingestRounds; n++ {
				ts := int64(n+1) * 10
				for s := w * ingestSeriesPerGoro; s < (w+1)*ingestSeriesPerGoro; s++ {
					if err := db.AppendFast(ids[s], ts, float64(n)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// nsPer is op's cost: the fastest of five timed runs of n calls, since
// scheduler noise only ever adds time.
func nsPer(n int, op func(i int)) float64 {
	best := time.Duration(1<<63 - 1)
	for trial := 0; trial < 5; trial++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		best = min(best, time.Since(start))
	}
	return float64(best.Nanoseconds()) / float64(n)
}

// TestObsOverheadBudget guards the <5% instrumentation overhead budget on
// the ingest path. Like the journal guard below it is certified two ways,
// both deterministic, because a wall-clock A/B of 8 writers on a shared
// 2-core machine cannot resolve 5%:
//
//  1. Allocation equality: AppendFast and AppendBatch allocate exactly as
//     much with metrics on as with them off.
//  2. Arithmetic bound: the instrument operations of a sustained parallel
//     ingest run — one sharded counter Add per append, plus two clock
//     reads and a histogram Observe per sampled append (one in
//     appendSampleMask+1) — times their measured cost must stay under 5%
//     of the run's wall time. The run keeps P = min(GOMAXPROCS, writers)
//     processors busy and the instrument work is spread over them, so it
//     adds cost/P to the wall time: the bound is cost / (P x elapsed),
//     the same ratio the wall-clock A/B estimated.
//
// It only runs when requested:
//
//	OBS_OVERHEAD_GUARD=1 go test ./internal/core/ -run TestObsOverheadBudget
func TestObsOverheadBudget(t *testing.T) {
	if os.Getenv("OBS_OVERHEAD_GUARD") == "" {
		t.Skip("set OBS_OVERHEAD_GUARD=1 to run the metrics overhead guard")
	}

	// Part 1: per-append allocation work is identical with metrics on and
	// off, on both append paths.
	for _, batch := range []bool{false, true} {
		allocsFor := func(disableMetrics bool) float64 {
			db, ids := openIngestDB(t, disableMetrics, false)
			defer db.Close()
			return appendAllocs(t, db, ids, batch)
		}
		base, inst := allocsFor(true), allocsFor(false)
		t.Logf("batch=%v: allocs per %d-series append round: no-metrics=%.1f instrumented=%.1f", batch, ingestGoroutines*ingestSeriesPerGoro, base, inst)
		if base != inst {
			t.Errorf("metrics changed append-path allocations (batch=%v): %.1f -> %.1f per round", batch, base, inst)
		}
	}

	// Part 2: sustained parallel ingest with metrics on; bound the overhead
	// by what the instrument operations it performed could have cost.
	db, ids := openIngestDB(t, false, false)
	elapsed := sustainedIngest(t, db, ids)
	adds, timed := db.m.appends.Value(), db.m.appendLat.Count()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if want := uint64(len(ids) * (ingestRounds + 1)); adds != want { // + the registering Append
		t.Fatalf("counted %d appends, ran %d", adds, want)
	}

	var c obs.ShardedCounter
	h := obs.NewRegistry().Histogram("timeunion_test_seconds", "", "")
	const runs = 100_000
	perAdd := nsPer(runs, func(i int) { c.Add(uint64(i), 1) })
	perTimed := nsPer(runs, func(int) {
		start := time.Now()
		h.Observe(time.Since(start))
	})
	procs := min(runtime.GOMAXPROCS(0), ingestGoroutines)
	cost := float64(adds)*perAdd + float64(timed)*perTimed
	bound := cost / (float64(procs) * float64(elapsed.Nanoseconds()))
	t.Logf("sustained ingest: elapsed=%s procs=%d appends=%d timed=%d add=%.1fns timed=%.1fns -> overhead bound %.2f%%",
		elapsed, procs, adds, timed, perAdd, perTimed, bound*100)
	if bound > 0.05 {
		t.Errorf("instrumentation overhead bound %.2f%% exceeds the 5%% budget", bound*100)
	}
}

// TestJournalOverheadBudget guards the <1% event-journal overhead budget
// on the ingest hot path. Journal emission happens only at
// background-operation rate (flush, compaction, manifest commit), never
// per append, so the budget is certified two ways, both deterministic —
// a wall-clock A/B cannot resolve 1% on a shared machine whose noise
// floor is several percent:
//
//  1. Allocation equality: the append fast path performs byte-for-byte
//     identical allocation work whether the journal is on or off.
//  2. Arithmetic bound: (events emitted during a sustained parallel
//     ingest run) x (measured cost of one Emit) as a fraction of the
//     run's wall time must stay under 1%.
//
// Like the metrics guard, it only runs when requested:
//
//	JOURNAL_OVERHEAD_GUARD=1 go test ./internal/core/ -run TestJournalOverheadBudget
func TestJournalOverheadBudget(t *testing.T) {
	if os.Getenv("JOURNAL_OVERHEAD_GUARD") == "" {
		t.Skip("set JOURNAL_OVERHEAD_GUARD=1 to run the journal overhead guard")
	}
	// Part 1: per-append allocation work is identical with the journal on
	// and off.
	allocsFor := func(disableJournal bool) float64 {
		db, ids := openIngestDB(t, false, disableJournal)
		defer db.Close()
		return appendAllocs(t, db, ids, false)
	}
	base, journ := allocsFor(true), allocsFor(false)
	t.Logf("allocs per %d-series append round: no-journal=%.1f journaled=%.1f", ingestGoroutines*ingestSeriesPerGoro, base, journ)
	if base != journ {
		t.Errorf("journal changed append-path allocations: %.1f -> %.1f per round", base, journ)
	}

	// Part 2: sustained parallel ingest with the journal on; bound the
	// overhead by what the emitted events could possibly have cost.
	db, ids := openIngestDB(t, false, false)
	elapsed := sustainedIngest(t, db, ids)
	events := db.Journal().LastSeq()
	if events == 0 {
		t.Fatal("sustained run journaled nothing; the guard is not exercising emission")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Measured cost of a single Emit, fields map construction included.
	j := obs.NewJournal(0)
	const emits = 200_000
	emitStart := time.Now()
	for i := 0; i < emits; i++ {
		j.Emit("lsm.flush", emitStart, nil, map[string]any{"entries": i, "bytes_out": i * 64})
	}
	perEmit := time.Since(emitStart) / emits

	bound := float64(events) * float64(perEmit) / float64(elapsed)
	t.Logf("sustained ingest: elapsed=%s events=%d per-emit=%s -> overhead bound %.4f%%",
		elapsed, events, perEmit, bound*100)
	if bound > 0.01 {
		t.Errorf("journal overhead bound %.2f%% exceeds the 1%% budget", bound*100)
	}
}
