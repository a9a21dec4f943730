package lsm

import (
	"strings"
	"sync"
	"testing"
	"time"

	"timeunion/internal/chunkenc"
	"timeunion/internal/cloud"
	"timeunion/internal/sstable"
)

// craftTable writes a single-chunk sstable for id directly into store under
// the real table-name key, bypassing the flush pipeline — the way tests
// build arbitrary (even historically impossible) level layouts for the
// recovery and scheduling paths to chew on.
func craftTable(t *testing.T, store cloud.Store, level int, minT, maxT int64, seq, id uint64, samples []chunkenc.Sample) string {
	t.Helper()
	k, v := seriesKV(t, id, samples)
	w := sstable.NewWriter(512)
	if err := w.Add(k[:], v); err != nil {
		t.Fatal(err)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	name := tableName(level, &partition{minT: minT, maxT: maxT}, seq)
	if err := store.Put(name, data); err != nil {
		t.Fatal(err)
	}
	return name
}

// commitTables writes the first manifest version of a crafted tier, naming
// its tables, as a tree's first Open commits one before it has any; r1/r2
// are left zero, so recovery keeps the options' partition lengths.
func commitTables(t *testing.T, store cloud.Store, prefix string, keys ...string) {
	t.Helper()
	if err := store.Put(manifestKey(prefix, 1), encodeManifest(&manifest{version: 1, tables: keys})); err != nil {
		t.Fatal(err)
	}
}

// TestGatherChainedOverlapClosure pins the transitive-overlap bug: B
// overlaps neither the victim nor A's raw interval, but it overlaps the
// output grid span of (victim ∪ A), so leaving it out would let the job's
// outputs overlap a live L1 partition. The old pairwise closure missed it.
func TestGatherChainedOverlapClosure(t *testing.T) {
	l := &LSM{}
	victim := &partition{minT: 1000, maxT: 2000} // len 1000
	a := &partition{minT: 1500, maxT: 3500}      // len 2000, overlaps victim
	b := &partition{minT: 3500, maxT: 4000}      // len 500, overlaps only the aligned span
	l.l0 = []*partition{victim}
	l.l1 = []*partition{a, b}

	inputs, outLen, alo, ahi, ok := l.gatherL0L1InputsLocked(victim)
	if !ok {
		t.Fatal("gather reported busy on an idle tree")
	}
	if len(inputs) != 3 {
		t.Fatalf("gathered %d inputs, want 3 (chained overlap via grid alignment)", len(inputs))
	}
	if outLen != 500 {
		t.Fatalf("outLen = %d, want 500 (min input length)", outLen)
	}
	if alo != 1000 || ahi != 4000 {
		t.Fatalf("aligned span = [%d,%d), want [1000,4000)", alo, ahi)
	}
}

// TestChainedOverlapCompactionEndToEnd builds the three-partition chained
// overlap as real on-store tables, recovers, lets the executor compact, and
// asserts level 1 came out pairwise disjoint with no sample lost.
func TestChainedOverlapCompactionEndToEnd(t *testing.T) {
	fast := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
	slow := cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{})
	commitTables(t, fast, manifestFastPrefix,
		craftTable(t, fast, 0, 1000, 2000, 1, 1, []chunkenc.Sample{{T: 1100, V: 1}, {T: 1900, V: 2}}),
		craftTable(t, fast, 0, 100000, 101000, 2, 1, []chunkenc.Sample{{T: 100100, V: 9}}),
		craftTable(t, fast, 1, 1500, 3500, 3, 2, []chunkenc.Sample{{T: 1600, V: 3}, {T: 3400, V: 4}}),
		craftTable(t, fast, 1, 3500, 4000, 4, 3, []chunkenc.Sample{{T: 3600, V: 5}}))

	opts := smallOpts()
	opts.Fast, opts.Slow = fast, slow
	opts.MaxL0Partitions = 1
	opts.CompactionWorkers = 1
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.WaitIdle(); err != nil {
		t.Fatal(err)
	}

	l.mu.RLock()
	for i, p := range l.l1 {
		for _, q := range l.l1[i+1:] {
			if p.overlaps(q.minT, q.maxT) {
				l.mu.RUnlock()
				t.Fatalf("L1 partitions overlap after compaction: [%d,%d) and [%d,%d)", p.minT, p.maxT, q.minT, q.maxT)
			}
		}
	}
	l.mu.RUnlock()

	if got := querySeries(t, l, 1, 0, 200000); len(got) != 3 {
		t.Fatalf("id 1 samples = %v, want 3", got)
	}
	if got := querySeries(t, l, 2, 0, 10000); len(got) != 2 || got[1].T != 3400 {
		t.Fatalf("id 2 samples = %v", got)
	}
	if got := querySeries(t, l, 3, 0, 10000); len(got) != 1 || got[0].T != 3600 {
		t.Fatalf("id 3 samples = %v", got)
	}
	if orphans, err := unreferenced(l); err != nil || len(orphans) != 0 {
		t.Fatalf("orphans = %v, %v", orphans, err)
	}
}

// TestMidCompactionFaultNoOrphans pins the buildPartitions leak: a
// compaction producing two output windows whose second writeTables fails
// must delete the first window's already-written tables. failAfter is
// parametrized to hit both the writeTables-internal and the cross-window
// cleanup paths.
func TestMidCompactionFaultNoOrphans(t *testing.T) {
	for _, failAfter := range []int{1, 2} {
		mem := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
		slow := cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{})
		// Victim spans two 1000-unit output windows (outLen = min with the
		// L1 partition's length), so the compaction builds two partitions.
		commitTables(t, mem, manifestFastPrefix,
			craftTable(t, mem, 0, 0, 2000, 1, 1, []chunkenc.Sample{{T: 100, V: 1}, {T: 1900, V: 2}}),
			craftTable(t, mem, 0, 100000, 101000, 2, 1, []chunkenc.Sample{{T: 100100, V: 9}}),
			craftTable(t, mem, 1, 0, 1000, 3, 2, []chunkenc.Sample{{T: 500, V: 3}}))

		// Put #1 is the recovery manifest commit; compaction output puts
		// follow. failAfter=1 fails the first output (writeTables cleanup),
		// failAfter=2 fails the second window (buildPartitions cleanup).
		fast := &failingStore{MemStore: mem, failAfter: failAfter}
		opts := smallOpts()
		opts.Fast, opts.Slow = fast, slow
		opts.MaxL0Partitions = 1
		opts.CompactionWorkers = 1
		l, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WaitIdle(); err == nil {
			t.Fatalf("failAfter=%d: injected failure never surfaced", failAfter)
		}
		orphans, err := unreferenced(l)
		if err != nil {
			t.Fatal(err)
		}
		if len(orphans) != 0 {
			t.Fatalf("failAfter=%d: orphaned outputs after failed compaction: %v", failAfter, orphans)
		}
		l.Close()
	}
}

// barrierStore blocks level-1 Puts until two goroutines arrive, proving two
// compaction jobs are genuinely in flight at once (with a timeout escape so
// a scheduling regression fails the assertion instead of deadlocking).
type barrierStore struct {
	*cloud.MemStore
	mu      sync.Mutex
	waiting int
	release chan struct{}
}

func (b *barrierStore) Put(key string, data []byte) error {
	if strings.HasPrefix(key, "l1/") {
		b.mu.Lock()
		b.waiting++
		if b.waiting == 2 {
			close(b.release)
		}
		b.mu.Unlock()
		select {
		case <-b.release:
		case <-time.After(5 * time.Second):
		}
	}
	return b.MemStore.Put(key, data)
}

func TestParallelCompactionsConcurrent(t *testing.T) {
	mem := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
	slow := cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{})
	var keys []string
	for i, minT := range []int64{0, 1000, 2000, 100000} {
		keys = append(keys, craftTable(t, mem, 0, minT, minT+1000, uint64(i+1), 1, []chunkenc.Sample{{T: minT + 100, V: 1}}))
	}
	commitTables(t, mem, manifestFastPrefix, keys...)
	fast := &barrierStore{MemStore: mem, release: make(chan struct{})}
	opts := smallOpts()
	opts.Fast, opts.Slow = fast, slow
	opts.MaxL0Partitions = 1
	opts.CompactionWorkers = 2
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if peak := l.Stats().MaxParallelCompactions; peak < 2 {
		t.Fatalf("MaxParallelCompactions = %d, want >= 2 (disjoint jobs must run concurrently)", peak)
	}
	for _, minT := range []int64{0, 1000, 2000, 100000} {
		if got := querySeries(t, l, 1, minT, minT+1000); len(got) != 1 {
			t.Fatalf("lost sample at %d: %v", minT+100, got)
		}
	}
}
