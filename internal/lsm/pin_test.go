package lsm

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"
	"testing"

	"timeunion/internal/chunkenc"
	"timeunion/internal/cloud"
	"timeunion/internal/encoding"
	"timeunion/internal/tuple"
)

// TestTreeObjectsPinned drives one serialized workload through every table
// writer (memtable flush, L0→L1, new L2 partitions, L2 patches and patch
// merges) and pins a hash of every table object with its key. The
// workload is deterministic: one compaction worker, WaitIdle after every
// Put, and sequences from a local counter. A refactor of the write paths
// must not change a table; a failure here means one did.
func TestTreeObjectsPinned(t *testing.T) {
	opts := smallOpts()
	opts.CompactionWorkers = 1
	env := newEnv(t, opts)
	const series, rounds, step = 40, 400, 50
	seq := uint64(0)
	put := func(id uint64, start int64, v float64) {
		t.Helper()
		samples := make([]chunkenc.Sample, 10)
		for i := range samples {
			samples[i] = chunkenc.Sample{T: start + int64(i)*step, V: v + float64(i)}
		}
		enc, err := chunkenc.EncodeXORSamples(samples)
		if err != nil {
			t.Fatal(err)
		}
		seq++
		val := tuple.Encode(seq, tuple.KindSeries, samples[0].T, samples[9].T, enc)
		if err := env.l.Put(encoding.MakeKey(id, start), val); err != nil {
			t.Fatal(err)
		}
		if err := env.l.WaitIdle(); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds; r++ {
		ts := int64(r) * 10 * step
		for id := uint64(1); id <= series; id++ {
			put(id, ts, float64(r))
		}
		// Rewrites behind the head of the tree: into a window still on
		// L0/L1, and into one long shipped to L2, where they become
		// patches of its tables.
		if r%10 == 5 {
			put(uint64(r%series)+1, ts-3000+7, -float64(r))
		}
		if r%20 == 0 && r >= 100 {
			put(uint64(r*7%series)+1, int64(r%60)*step+13, -float64(r))
		}
	}
	if err := env.l.Flush(); err != nil {
		t.Fatal(err)
	}
	st := env.l.Stats()
	if st.PatchesCreated == 0 || st.PatchMerges == 0 {
		t.Fatalf("workload created %d patches and %d patch merges, want both", st.PatchesCreated, st.PatchMerges)
	}

	h := sha256.New()
	objects := 0
	for _, tier := range []struct {
		name  string
		store *cloud.MemStore
	}{{"fast", env.fast}, {"slow", env.slow}} {
		keys, err := tier.store.List("")
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if strings.HasPrefix(k, "manifest/") {
				continue
			}
			data, err := tier.store.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			h.Write([]byte(tier.name + "/" + k + "\n"))
			h.Write(data)
			objects++
		}
	}
	const want = "0a3c6141e24251b16a5a1c5262b3c8968b6aa561f8c9d373af1b8cda00ef1e8e"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("%d table objects (%d patches created, %d patch merges) hash to %s, want %s", objects, st.PatchesCreated, st.PatchMerges, got, want)
	}
}
