package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"timeunion/internal/cloud"
	"timeunion/internal/labels"
	"timeunion/internal/lsm"
)

// TestConcurrentAppendAndQuery hammers the DB with parallel writers and
// readers; run under -race this validates the locking across head, LSM,
// and index.
func TestConcurrentAppendAndQuery(t *testing.T) {
	db := openTestDB(t, testOpts(""))
	const writers = 4
	const readers = 2
	const perWriter = 400

	ids := make([]uint64, writers)
	for w := 0; w < writers; w++ {
		id, err := db.Append(labels.FromStrings("metric", "cpu", "writer", fmt.Sprintf("w%d", w)), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids[w] = id
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= perWriter; i++ {
				if err := db.AppendFast(ids[w], int64(i)*10, float64(i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < 50; i++ {
				lo := rnd.Int63n(int64(perWriter) * 10)
				if _, err := db.Query(lo, lo+500, labels.MustEqual("metric", "cpu")); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Every writer's samples are intact.
	for w := 0; w < writers; w++ {
		res, err := db.Query(1, int64(perWriter)*10, labels.MustEqual("writer", fmt.Sprintf("w%d", w)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || len(res[0].Samples) != perWriter {
			t.Fatalf("writer %d: %d series / %d samples", w, len(res), len(res[0].Samples))
		}
	}
}

// TestConcurrentGroupAppends exercises the group write path in parallel
// with queries.
func TestConcurrentGroupAppends(t *testing.T) {
	db := openTestDB(t, testOpts(""))
	const groups = 3
	gids := make([]uint64, groups)
	slots := make([][]int, groups)
	uniques := []labels.Labels{
		labels.FromStrings("m", "a"), labels.FromStrings("m", "b"),
	}
	for g := 0; g < groups; g++ {
		gid, sl, err := db.AppendGroup(labels.FromStrings("host", fmt.Sprintf("h%d", g)), uniques, 0, []float64{0, 0})
		if err != nil {
			t.Fatal(err)
		}
		gids[g], slots[g] = gid, sl
	}
	var wg sync.WaitGroup
	errs := make(chan error, groups+1)
	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 300; i++ {
				if err := db.AppendGroupFast(gids[g], slots[g], int64(i)*10, []float64{float64(i), -float64(i)}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := db.Query(0, 5000, labels.MustEqual("m", "a")); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(1, 10000, labels.MustEqual("m", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != groups {
		t.Fatalf("got %d member series, want %d", len(res), groups)
	}
	for _, s := range res {
		if len(s.Samples) != 300 {
			t.Fatalf("%v: %d samples", s.Labels, len(s.Samples))
		}
	}
}

// TestSlowTierFailureSurfaces opens a DB whose slow tier starts failing
// and checks that the error reaches the caller instead of being swallowed.
func TestSlowTierFailureSurfaces(t *testing.T) {
	opts := testOpts("")
	slow := &flakyStore{Store: opts.Slow, failAfterPuts: 3}
	opts.Slow = slow
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	id, err := db.Append(labels.FromStrings("m", "x"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sawErr bool
	for ts := int64(10); ts <= 60000; ts += 10 {
		if err := db.AppendFast(id, ts, 1); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		if err := db.Flush(); err == nil {
			t.Fatal("slow-tier failure never surfaced")
		}
	}
}

// TestConcurrentMixedWorkload runs every mutation path at once — fast-path
// appends, slow-path series creation, group appends, parallel queries, and
// flushes — against one DB. Under -race this is the integration check for
// the striped head locks, the query worker pool, and the singleflight cache
// sharing one set of stores.
func TestConcurrentMixedWorkload(t *testing.T) {
	db := openTestDB(t, testOpts(""))
	const (
		writers   = 3
		perWriter = 300
	)
	ids := make([]uint64, writers)
	for w := range ids {
		id, err := db.Append(labels.FromStrings("metric", "cpu", "writer", fmt.Sprintf("w%d", w)), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids[w] = id
	}
	gid, slots, err := db.AppendGroup(labels.FromStrings("host", "h0"),
		[]labels.Labels{labels.FromStrings("m", "usage"), labels.FromStrings("m", "idle")},
		0, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+4)
	// Fast-path writers on pre-created series.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= perWriter; i++ {
				if err := db.AppendFast(ids[w], int64(i)*10, float64(i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Slow-path creator: new series race against fast appends and purges of
	// the stripe maps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 120; i++ {
			ls := labels.FromStrings("metric", "disk", "dev", fmt.Sprintf("d%d", i))
			if _, err := db.Append(ls, int64(i+1)*10, 1); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Group writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= perWriter; i++ {
			if err := db.AppendGroupFast(gid, slots, int64(i)*10, []float64{float64(i), -float64(i)}); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Parallel reader: 4 workers per query.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := context.Background()
		for i := 0; i < 40; i++ {
			if _, err := db.QueryWorkers(ctx, 4, 0, int64(perWriter)*10, labels.MustEqual("metric", "cpu")); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Flusher races chunk flushes against everything else.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := db.Flush(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		res, err := db.Query(1, int64(perWriter)*10, labels.MustEqual("writer", fmt.Sprintf("w%d", w)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || len(res[0].Samples) != perWriter {
			t.Fatalf("writer %d: %d series / %d samples", w, len(res), len(res[0].Samples))
		}
	}
	res, err := db.Query(0, int64(perWriter)*10, labels.MustEqual("metric", "disk"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 120 {
		t.Fatalf("created %d disk series, want 120", len(res))
	}
}

// TestQueryWorkersIdentical checks the acceptance property directly: on a
// dataset spanning head, fast tier, and slow tier, the materializer returns
// identical results at 1, 2 and 8 workers for every range tried. Group
// members' labels sort among the individual series', so each group's
// expansion lands between series other sets claimed, and one series has a
// chunk overlapping the narrower ranges with every sample clipped.
func TestQueryWorkersIdentical(t *testing.T) {
	checkQueryWorkersIdentical(t, openTestDB(t, testOpts("")))
}

// smallCacheOpts is testOpts with a block cache a quarter of one table
// (TargetTableSize 16 KB), which still lets a read-ahead run span two
// 512-byte blocks: queries miss, evict and read ahead, and the workers of
// one query race on the blocks their shared id cursor hands out.
func smallCacheOpts(dir string) Options {
	opts := testOpts(dir)
	opts.CacheBytes = 4 << 10
	return opts
}

// TestSmallCacheQueryWorkersIdentical is TestQueryWorkersIdentical over a
// cache smaller than one table, with cache integrity checks on. Run under
// -race by `make tier1-iter`.
func TestSmallCacheQueryWorkersIdentical(t *testing.T) {
	cloud.SetIntegrityChecks(true)
	defer cloud.SetIntegrityChecks(false)
	db := openTestDB(t, smallCacheOpts(""))
	checkQueryWorkersIdentical(t, db)
	if db.Cache().Evictions() == 0 {
		t.Fatal("setup: the cache never evicted")
	}
}

func checkQueryWorkersIdentical(t *testing.T, db *DB) {
	const series = 24
	ids := make([]uint64, series)
	for i := range ids {
		id, err := db.Append(labels.FromStrings("metric", "cpu", "core", fmt.Sprintf("c%02d", i)), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	type group struct {
		gid   uint64
		slots []int
		vals  []float64
	}
	groups := make([]group, 3)
	members := 0
	for g := range groups {
		uniques := make([]labels.Labels, 2+2*g)
		for m := range uniques {
			uniques[m] = labels.FromStrings("core", fmt.Sprintf("c%02dg%d", (m*7+g*5)%series, g))
		}
		gid, slots, err := db.AppendGroup(labels.FromStrings("metric", "cpu", "group", fmt.Sprint(g)), uniques, 0, make([]float64, len(uniques)))
		if err != nil {
			t.Fatal(err)
		}
		groups[g] = group{gid, slots, make([]float64, len(uniques))}
		members += len(uniques)
	}
	// The sparse series has one chunk, [3000, 3990]: the range [3005, 3985]
	// decodes it and clips both its samples.
	sparse := []int64{3_000, 3_990}
	for _, ts := range sparse {
		if _, err := db.Append(labels.FromStrings("metric", "cpu", "core", "sparse"), ts, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Span many L0/L2 partitions (lengths 1000/4000 in testOpts) so ChunksFor
	// touches both tiers, then leave a tail in the head.
	for ts := int64(10); ts <= 20_000; ts += 10 {
		for _, id := range ids {
			if err := db.AppendFast(id, ts, float64(ts%97)); err != nil {
				t.Fatal(err)
			}
		}
		for g, gr := range groups {
			for m := range gr.vals {
				gr.vals[m] = float64(ts%89 + int64(g*10+m))
			}
			if err := db.AppendGroupFast(gr.gid, gr.slots, ts, gr.vals); err != nil {
				t.Fatal(err)
			}
		}
		if ts == 16_000 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}

	ctx := context.Background()
	ranges := [][2]int64{{0, 20_000}, {3_500, 9_000}, {3_005, 3_985}, {15_990, 20_000}, {19_999, 30_000}}
	for _, r := range ranges {
		serial, err := db.QueryWorkers(ctx, 1, r[0], r[1], labels.MustEqual("metric", "cpu"))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			par, err := db.QueryWorkers(ctx, workers, r[0], r[1], labels.MustEqual("metric", "cpu"))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("range %v: %d-worker result differs from serial", r, workers)
			}
		}
		want := series + members
		if sparse[0] >= r[0] && sparse[0] <= r[1] || sparse[1] >= r[0] && sparse[1] <= r[1] {
			want++
		}
		if len(serial) != want {
			t.Fatalf("range %v: matched %d series, want %d", r, len(serial), want)
		}
	}
}

// TestQueryErrorNamesSeries arms a read failure on both tiers after data has
// been flushed out of the head and checks the query error names the series
// id that hit it, from both the serial and the parallel path. A corrupt
// chunk, which locates fine and fails to decode, must name its id through
// the materializer and through a series set alike.
func TestQueryErrorNamesSeries(t *testing.T) {
	opts := testOpts("")
	fast := &readFailStore{Store: opts.Fast}
	slow := &readFailStore{Store: opts.Slow}
	opts.Fast, opts.Slow = fast, slow
	db := openTestDB(t, opts)

	id, err := db.Append(labels.FromStrings("m", "x"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(10); ts <= 20_000; ts += 10 {
		if err := db.AppendFast(id, ts, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	fast.fail.Store(true)
	slow.fail.Store(true)

	want := fmt.Sprintf("query series %d", id)
	for _, workers := range []int{1, 4} {
		_, err := db.QueryWorkers(context.Background(), workers, 0, 20_000, labels.MustEqual("m", "x"))
		if err == nil {
			t.Fatalf("%d workers: armed read failure did not surface", workers)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("%d workers: error %q does not name the series (%q)", workers, err, want)
		}
	}

	fast.fail.Store(false)
	slow.fail.Store(false)
	db.store = corruptChunkStore{db.store}
	want = fmt.Sprintf("query id %d", id)
	for _, workers := range []int{1, 4} {
		_, err := db.QueryWorkers(context.Background(), workers, 0, 20_000, labels.MustEqual("m", "x"))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%d workers: corrupt chunk gave %v, want an error naming %q", workers, err, want)
		}
	}
	set, err := db.QuerySeriesSet(context.Background(), 0, 20_000, labels.MustEqual("m", "x"))
	if err != nil {
		t.Fatal(err)
	}
	for set.Next() {
		t.Fatal("series set yielded a series whose every chunk is corrupt")
	}
	if err := set.Err(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("series set: corrupt chunk gave %v, want an error naming %q", err, want)
	}
}

// corruptChunkStore serves every chunk with its payload cut in half: the
// tuple envelope still locates and prunes it, its decode fails.
type corruptChunkStore struct{ ChunkStore }

func (c corruptChunkStore) ChunksForInto(buf []lsm.ChunkRef, ids []uint64, mint, maxt int64) ([]lsm.ChunkRef, error) {
	chunks, err := c.ChunkStore.ChunksForInto(buf, ids, mint, maxt)
	for i := range chunks {
		v := chunks[i].Value
		chunks[i].Value = append([]byte(nil), v[:len(v)/2]...)
	}
	return chunks, err
}

// TestQueryContextCancel: a cancelled context aborts the query on both
// paths instead of returning partial results.
func TestQueryContextCancel(t *testing.T) {
	db := openTestDB(t, testOpts(""))
	for i := 0; i < 8; i++ {
		id, err := db.Append(labels.FromStrings("metric", "cpu", "core", fmt.Sprintf("c%d", i)), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for ts := int64(10); ts <= 1000; ts += 10 {
			if err := db.AppendFast(id, ts, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		res, err := db.QueryWorkers(ctx, workers, 0, 1000, labels.MustEqual("metric", "cpu"))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%d workers: err = %v (res %d series), want context.Canceled", workers, err, len(res))
		}
	}
}

// readFailStore wraps a cloud.Store and fails reads once armed.
type readFailStore struct {
	cloud.Store
	fail atomic.Bool
}

func (f *readFailStore) Get(key string) ([]byte, error) {
	if f.fail.Load() {
		return nil, fmt.Errorf("injected read outage")
	}
	return f.Store.Get(key)
}

func (f *readFailStore) GetRange(key string, off, length int64) ([]byte, error) {
	if f.fail.Load() {
		return nil, fmt.Errorf("injected read outage")
	}
	return f.Store.GetRange(key, off, length)
}

// flakyStore wraps a cloud.Store and fails every Put after the first few.
type flakyStore struct {
	cloud.Store
	mu            sync.Mutex
	puts          int
	failAfterPuts int
}

func (f *flakyStore) Put(key string, data []byte) error {
	f.mu.Lock()
	f.puts++
	fail := f.puts > f.failAfterPuts
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("injected slow-tier outage")
	}
	return f.Store.Put(key, data)
}
