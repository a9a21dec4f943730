package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"timeunion/internal/labels"
)

// replicaOpts strips the writer-only options: a replica shares the
// writer's stores and has no local directory.
func replicaOpts(w Options) Options {
	return Options{
		Fast:                   w.Fast,
		Slow:                   w.Slow,
		CacheBytes:             w.CacheBytes,
		ChunkSamples:           w.ChunkSamples,
		SlotsPerRegion:         w.SlotsPerRegion,
		BlockSize:              w.BlockSize,
		ReplicaRefreshInterval: -1, // tests drive Refresh explicitly
	}
}

func openTestReplica(t *testing.T, opts Options) *DB {
	t.Helper()
	rep, err := OpenReplica(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	return rep
}

// TestReplicaErrReadOnlyMatrix exercises every mutating entry point
// against a replica: each must fail with the typed ErrReadOnly and leave
// the shared state untouched.
func TestReplicaErrReadOnlyMatrix(t *testing.T) {
	opts := testOpts("")
	db := openTestDB(t, opts)
	if _, err := db.Append(labels.FromStrings("m", "x"), 10, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	rep := openTestReplica(t, replicaOpts(opts))

	ls := labels.FromStrings("m", "y")
	checks := []struct {
		name string
		call func() error
	}{
		{"Append", func() error { _, err := rep.Append(ls, 20, 1); return err }},
		{"AppendFast", func() error { return rep.AppendFast(1, 20, 1) }},
		{"AppendGroup", func() error {
			_, _, err := rep.AppendGroup(ls, []labels.Labels{labels.FromStrings("s", "0")}, 20, []float64{1})
			return err
		}},
		{"AppendGroupFast", func() error { return rep.AppendGroupFast(1, []int{0}, 20, []float64{1}) }},
		{"AppendBatch", func() error {
			b := &Batch{}
			b.Add(1, 20, 1)
			return rep.AppendBatch(b)
		}},
		{"Flush", func() error { return rep.Flush() }},
		{"Sync", func() error { return rep.Sync() }},
		{"ApplyRetention", func() error { _, _, err := rep.ApplyRetention(1 << 40); return err }},
		{"PurgeWAL", func() error { _, err := rep.PurgeWAL(); return err }},
	}
	for _, c := range checks {
		if err := c.call(); !errors.Is(err, ErrReadOnly) {
			t.Errorf("%s on replica: err=%v, want ErrReadOnly", c.name, err)
		}
	}
	// The replica still answers queries after the rejected mutations.
	res, err := rep.Query(0, 1<<40, labels.MustEqual("m", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Samples) != 1 {
		t.Fatalf("replica query after rejections: %+v", res)
	}
}

func TestRefreshOnWriterErrors(t *testing.T) {
	db := openTestDB(t, testOpts(""))
	if _, err := db.Refresh(); err == nil {
		t.Fatal("Refresh on a writer DB should error")
	}
}

// TestWriterReplicaIdentityFuzz drives a seeded random workload —
// individual series and groups, slow and fast paths, multiple flush
// cycles — and after every writer Flush + replica Refresh requires the
// two databases to answer the same queries with byte-identical results
// (after a flush the writer has no head-only samples, so the shared
// storage is the entire truth).
func TestWriterReplicaIdentityFuzz(t *testing.T) {
	opts := testOpts("")
	db := openTestDB(t, opts)
	rep := openTestReplica(t, replicaOpts(opts))
	rnd := rand.New(rand.NewSource(20260807))

	const nSeries = 8
	const nGroups = 3
	ids := make([]uint64, 0, nSeries)
	for i := 0; i < nSeries; i++ {
		id, err := db.Append(labels.FromStrings("m", fmt.Sprintf("s%d", i), "kind", "single"), 0, rnd.Float64())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	gids := make([]uint64, 0, nGroups)
	groupSlots := make([][]int, 0, nGroups)
	for g := 0; g < nGroups; g++ {
		members := 2 + rnd.Intn(3)
		uniques := make([]labels.Labels, members)
		vals := make([]float64, members)
		for m := range uniques {
			uniques[m] = labels.FromStrings("member", fmt.Sprintf("m%d", m))
			vals[m] = rnd.Float64()
		}
		gid, slots, err := db.AppendGroup(
			labels.FromStrings("g", fmt.Sprintf("g%d", g), "kind", "group"), uniques, 0, vals)
		if err != nil {
			t.Fatal(err)
		}
		gids = append(gids, gid)
		groupSlots = append(groupSlots, slots)
	}

	next := make(map[uint64]int64)
	for round := 0; round < 6; round++ {
		for op := 0; op < 400; op++ {
			if rnd.Intn(4) > 0 {
				id := ids[rnd.Intn(len(ids))]
				next[id] += int64(1 + rnd.Intn(40))
				if err := db.AppendFast(id, next[id], rnd.NormFloat64()); err != nil {
					t.Fatal(err)
				}
			} else {
				gi := rnd.Intn(len(gids))
				gid := gids[gi]
				next[gid] += int64(1 + rnd.Intn(40))
				vals := make([]float64, len(groupSlots[gi]))
				for i := range vals {
					vals[i] = rnd.NormFloat64()
				}
				if err := db.AppendGroupFast(gid, groupSlots[gi], next[gid], vals); err != nil {
					t.Fatal(err)
				}
			}
			// A new series appearing mid-stream must reach the replica via
			// the next catalog publish.
			if op == 200 && round%2 == 0 {
				id, err := db.Append(labels.FromStrings("m", fmt.Sprintf("late%d", round), "kind", "single"),
					int64(rnd.Intn(1000)), rnd.Float64())
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := rep.Refresh(); err != nil {
			t.Fatal(err)
		}

		selectors := [][]*labels.Matcher{
			{labels.MustEqual("kind", "single")},
			{labels.MustEqual("kind", "group")},
			{labels.MustEqual("m", fmt.Sprintf("s%d", rnd.Intn(nSeries)))},
			{labels.MustEqual("member", "m1")},
		}
		for si, sel := range selectors {
			lo := int64(rnd.Intn(2000))
			hi := lo + int64(rnd.Intn(10000))
			want, err := db.Query(lo, hi, sel...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rep.Query(lo, hi, sel...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("round %d selector %d [%d,%d]: writer and replica diverge:\nwriter: %d series %s\nreplica: %d series %s",
					round, si, lo, hi, len(want), summarize(want), len(got), summarize(got))
			}
		}
	}
}

func summarize(res []Series) string {
	out := ""
	for _, s := range res {
		out += fmt.Sprintf("\n  %v: %d samples", s.Labels, len(s.Samples))
	}
	return out
}

// TestReplicaBackgroundRefresh covers the polling loop end to end: a
// writer flush becomes visible on the replica without any explicit
// Refresh call.
func TestReplicaBackgroundRefresh(t *testing.T) {
	opts := testOpts("")
	db := openTestDB(t, opts)
	ropts := replicaOpts(opts)
	ropts.ReplicaRefreshInterval = 2 * time.Millisecond
	rep := openTestReplica(t, ropts)

	if _, err := db.Append(labels.FromStrings("m", "bg"), 100, 42); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := rep.Query(0, 1<<40, labels.MustEqual("m", "bg"))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 1 && len(res[0].Samples) == 1 && res[0].Samples[0].V == 42 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never observed the flush (last result: %+v)", res)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicaSeesWriterShutdownFlush: a writer that never calls Flush
// explicitly (all LSM flushes via memtable pressure or Close) must still
// leave behind a catalog replicas can resolve its series through — the
// close-time publish is the last line of defense.
func TestReplicaSeesWriterShutdownFlush(t *testing.T) {
	opts := testOpts("")
	db := openTestDB(t, opts)
	rep := openTestReplica(t, replicaOpts(opts))

	if _, err := db.Append(labels.FromStrings("m", "shutdown"), 50, 9); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Refresh(); err != nil {
		t.Fatal(err)
	}
	res, err := rep.Query(0, 1000, labels.MustEqual("m", "shutdown"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Samples) != 1 || res[0].Samples[0].V != 9 {
		t.Fatalf("replica after writer shutdown: %+v", res)
	}
}

// TestCatalogRoundTrip pins the catalog wire format: encode/decode is an
// identity, and a torn (bit-flipped) record is rejected.
func TestCatalogRoundTrip(t *testing.T) {
	db := openTestDB(t, testOpts(""))
	if _, err := db.Append(labels.FromStrings("m", "a", "x", "1"), 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.AppendGroup(labels.FromStrings("g", "G"),
		[]labels.Labels{labels.FromStrings("s", "0"), labels.FromStrings("s", "1")}, 1, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	defs := db.head.CatalogSnapshot()
	data := encodeCatalog(defs)
	back, err := decodeCatalog(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(defs) {
		t.Fatalf("roundtrip: %d defs in, %d out", len(defs), len(back))
	}
	// Deterministic encoding: a second snapshot encodes identically.
	if string(encodeCatalog(db.head.CatalogSnapshot())) != string(data) {
		t.Fatal("catalog encoding is not deterministic")
	}
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x40
	if _, err := decodeCatalog(corrupt); err == nil {
		t.Fatal("decode accepted a corrupted catalog")
	}
}

// TestReplicaCatalogPruneRace: the writer deleting catalog version v−1
// between the replica's List and Get must be absorbed by a re-list.
func TestReplicaCatalogPruneRace(t *testing.T) {
	opts := testOpts("")
	db := openTestDB(t, opts)
	if _, err := db.Append(labels.FromStrings("m", "v1"), 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	rep := openTestReplica(t, replicaOpts(opts))

	// Simulate the prune landing between List and Get: delete the newest
	// catalog version after the replica last saw it, publish two newer
	// ones, and delete the middle one — the replica's next refresh lists a
	// mix of live and missing keys regardless of interleaving and must
	// settle on the newest live version.
	if _, err := db.Append(labels.FromStrings("m", "v2"), 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(labels.FromStrings("m", "v3"), 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Refresh(); err != nil {
		t.Fatalf("refresh across pruned catalog versions: %v", err)
	}
	for _, m := range []string{"v1", "v2", "v3"} {
		res, err := rep.Query(0, 10, labels.MustEqual("m", m))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 {
			t.Fatalf("series %s not visible on replica after refresh", m)
		}
	}
}
