package lsm

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"timeunion/internal/chunkenc"
	"timeunion/internal/cloud"
)

func TestManifestEncodeDecodeRoundtrip(t *testing.T) {
	m := &manifest{
		version: 7, nextSeq: 123, r1: 1000, r2: 4000,
		tables:     []string{"l0/a.sst", "l1/b.sst"},
		tombstones: []string{"l1/c.sst"},
	}
	got, err := decodeManifest(encodeManifest(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.version != 7 || got.nextSeq != 123 || got.r1 != 1000 || got.r2 != 4000 {
		t.Fatalf("scalars = %+v", got)
	}
	if len(got.tables) != 2 || got.tables[1] != "l1/b.sst" {
		t.Fatalf("tables = %v", got.tables)
	}
	if len(got.tombstones) != 1 || got.tombstones[0] != "l1/c.sst" {
		t.Fatalf("tombstones = %v", got.tombstones)
	}
}

func TestManifestDecodeRejectsCorruption(t *testing.T) {
	data := encodeManifest(&manifest{version: 1, r1: 1000, r2: 4000, tables: []string{"l0/a.sst"}})
	cases := map[string][]byte{
		"bitflip":    append([]byte{}, data...),
		"truncation": data[:len(data)/2],
		"empty":      nil,
		"bad magic":  []byte(strings.Replace(string(data), "timeunion", "timefusion", 1)),
	}
	cases["bitflip"][len(data)/3] ^= 0x40
	for name, c := range cases {
		if _, err := decodeManifest(c); !errors.Is(err, errManifestCorrupt) {
			t.Errorf("%s: err = %v, want errManifestCorrupt", name, err)
		}
	}
}

func TestLoadManifestPicksNewestValidAndFallsBack(t *testing.T) {
	store := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
	for v := uint64(1); v <= 2; v++ {
		data := encodeManifest(&manifest{version: v, r1: 1000, r2: 4000})
		if err := store.Put(manifestKey(manifestFastPrefix, v), data); err != nil {
			t.Fatal(err)
		}
	}
	// Version 3 is a torn write: never committed, so v2 is the truth.
	torn := encodeManifest(&manifest{version: 3, r1: 1000, r2: 4000})
	if err := store.Put(manifestKey(manifestFastPrefix, 3), torn[:len(torn)-5]); err != nil {
		t.Fatal(err)
	}
	m, stale, err := loadManifest(store, manifestFastPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || m.version != 2 {
		t.Fatalf("chose %+v, want version 2", m)
	}
	if len(stale) != 2 {
		t.Fatalf("stale = %v, want the torn v3 and the old v1", stale)
	}
}

func TestLoadManifestEmptyMeansPreManifestTree(t *testing.T) {
	store := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
	m, stale, err := loadManifest(store, manifestFastPrefix)
	if err != nil || m != nil || len(stale) != 0 {
		t.Fatalf("got %+v %v %v, want nil/none/nil", m, stale, err)
	}
}

// getFailStore fails every Get: a listed manifest key that cannot be read
// must be a hard error, not a silent fallback to an older version.
type getFailStore struct{ *cloud.MemStore }

func (g *getFailStore) Get(key string) ([]byte, error) {
	return nil, fmt.Errorf("injected get failure")
}

func TestLoadManifestGetFailureIsHardError(t *testing.T) {
	mem := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
	data := encodeManifest(&manifest{version: 1, r1: 1000, r2: 4000})
	if err := mem.Put(manifestKey(manifestFastPrefix, 1), data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadManifest(&getFailStore{MemStore: mem}, manifestFastPrefix); err == nil {
		t.Fatal("unreadable durably-listed manifest did not fail recovery")
	}
}

// TestTreeWithoutManifestFailsClosed: every tree commits a manifest pair
// in its first Open, so a tier that lists tables but has no decodable
// manifest has lost it. Open must fail naming the tier and leave every
// object in place: recovering from the listing could resurrect
// compacted-away inputs, and GC against no manifest would delete every
// table.
func TestTreeWithoutManifestFailsClosed(t *testing.T) {
	for _, tier := range []string{"fast", "slow"} {
		t.Run(tier, func(t *testing.T) {
			fast := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
			slow := cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{})
			opts := smallOpts()
			opts.Fast, opts.Slow = fast, slow
			l, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			fillSequential(t, l, []uint64{1, 2}, 40, 0, 50)
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := l.WaitIdle(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			store, prefix, tables := fast, manifestFastPrefix, []string{"l0/", "l1/"}
			if tier == "slow" {
				store, prefix, tables = slow, manifestSlowPrefix, []string{"l2/"}
			}
			var listed int
			for _, p := range tables {
				keys, _ := store.List(p)
				listed += len(keys)
			}
			if listed == 0 {
				t.Fatalf("no %s-tier tables to recover", tier)
			}
			keys, _ := store.List(prefix)
			for _, k := range keys {
				if err := store.Delete(k); err != nil {
					t.Fatal(err)
				}
			}
			fastBefore, _ := fast.List("")
			slowBefore, _ := slow.List("")

			if _, err := Open(opts); err == nil || !strings.Contains(err.Error(), tier+" tier") {
				t.Fatalf("Open of a %s tier with tables and no manifest: err = %v, want one naming the tier", tier, err)
			}
			fastAfter, _ := fast.List("")
			slowAfter, _ := slow.List("")
			if !slices.Equal(fastBefore, fastAfter) || !slices.Equal(slowBefore, slowAfter) {
				t.Fatalf("failed Open changed the stores:\nfast %v\n  -> %v\nslow %v\n  -> %v", fastBefore, fastAfter, slowBefore, slowAfter)
			}
		})
	}
}

// TestTombstoneSubtraction reconstructs the crash window between the slow
// and fast manifest commits of an L1→L2 compaction: the slow manifest's
// tombstones must exclude consumed L1 inputs from the (stale) fast manifest
// so their data is not double-counted, and recovery must GC the objects.
func TestTombstoneSubtraction(t *testing.T) {
	fast := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
	slow := cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{})
	consumed := craftTable(t, fast, 1, 0, 1000, 1, 1, []chunkenc.Sample{{T: 100, V: 1}})
	kept := craftTable(t, fast, 1, 1000, 2000, 2, 2, []chunkenc.Sample{{T: 1500, V: 2}})
	shipped := craftTable(t, slow, 2, 0, 4000, 3, 1, []chunkenc.Sample{{T: 100, V: 1}})

	put := func(s cloud.Store, prefix string, m *manifest) {
		t.Helper()
		if err := s.Put(manifestKey(prefix, m.version), encodeManifest(m)); err != nil {
			t.Fatal(err)
		}
	}
	// Fast manifest predates the compaction; slow manifest carries its edit.
	put(fast, manifestFastPrefix, &manifest{version: 1, nextSeq: 10, r1: 1000, r2: 4000,
		tables: []string{consumed, kept}})
	put(slow, manifestSlowPrefix, &manifest{version: 1, nextSeq: 10, r1: 1000, r2: 4000,
		tables: []string{shipped}, tombstones: []string{consumed}})

	opts := smallOpts()
	opts.Fast, opts.Slow = fast, slow
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	// Exactly one sample at t=100: the L2 copy, not a resurrected L1 twin.
	if got := querySeries(t, l, 1, 0, 10000); len(got) != 1 || got[0].T != 100 {
		t.Fatalf("id 1 = %v, want the single shipped sample", got)
	}
	if got := querySeries(t, l, 2, 0, 10000); len(got) != 1 {
		t.Fatalf("id 2 = %v", got)
	}
	if _, err := fast.Get(consumed); err == nil {
		t.Fatal("tombstoned table survived recovery GC")
	}
	if orphans, err := unreferenced(l); err != nil || len(orphans) != 0 {
		t.Fatalf("orphans = %v, %v", orphans, err)
	}
}

// TestPartitionLengthsRestoredFromManifest: r1/r2 follow the manifest, not
// the (possibly different) Options of the reopening process — dynamic
// sizing state survives restarts.
func TestPartitionLengthsRestoredFromManifest(t *testing.T) {
	fast := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
	slow := cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{})
	opts := smallOpts()
	opts.Fast, opts.Slow = fast, slow
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	putSeries(t, l, 1, []chunkenc.Sample{{T: 100, V: 1}})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	opts.L0PartitionLength = 500
	opts.L2PartitionLength = 2000
	l2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.r1 != 1000 || l2.r2 != 4000 {
		t.Fatalf("r1, r2 = %d, %d; want manifest values 1000, 4000", l2.r1, l2.r2)
	}
}

// unreferenced lists every object no view of l references, of any kind.
func unreferenced(l *LSM) ([]string, error) {
	a, err := l.AuditObjects()
	return slices.Concat(a.InFlight, a.PendingDelete, a.Orphans), err
}

// gatedStore holds the first Put under prefix, after it lands, until
// release is closed; later Puts under prefix wait for release too.
type gatedStore struct {
	*cloud.MemStore
	prefix  string
	first   sync.Once
	landed  chan string
	release chan struct{}
}

func (g *gatedStore) Put(key string, data []byte) error {
	if err := g.MemStore.Put(key, data); err != nil {
		return err
	}
	if strings.HasPrefix(key, g.prefix) {
		g.first.Do(func() { g.landed <- key })
		<-g.release
	}
	return nil
}

// TestAuditObjectsClassifies pins the three kinds of unreferenced object
// the crash-torture audit tells apart: an L0→L1 output held after its Put
// is in flight, a retired input a reader still holds is pending delete,
// and an object the tree never wrote is an orphan. None of the first two
// is an orphan, and once the tree is idle and the reader lets go nothing
// is unreferenced.
func TestAuditObjectsClassifies(t *testing.T) {
	fast := &gatedStore{
		MemStore: cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{}),
		prefix:   "l1/",
		landed:   make(chan string, 1),
		release:  make(chan struct{}),
	}
	var releaseOnce sync.Once
	open := func() { releaseOnce.Do(func() { close(fast.release) }) }
	defer open()
	opts := smallOpts()
	opts.Fast = fast
	opts.Slow = cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{})
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	defer open() // runs before Close: a held Put would stall its WaitIdle
	fillSequential(t, l, []uint64{1, 2, 3}, 40, 0, 50)
	l.mu.Lock()
	l.rotateLocked() // flush the tail too
	l.mu.Unlock()

	audit := func() ObjectAudit {
		t.Helper()
		a, err := l.AuditObjects()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	var output string
	select {
	case output = <-fast.landed:
	case <-time.After(10 * time.Second):
		t.Fatal("no L0→L1 output was written")
	}
	// Hold one input of a running job past the job, as a query would.
	l.mu.Lock()
	var held *tableHandle
	for j := range l.liveJobs {
		held = j.handles[0]
		break
	}
	held.retain()
	l.mu.Unlock()

	a := audit()
	if !slices.Contains(a.InFlight, output) || len(a.Orphans) != 0 {
		t.Fatalf("held output %s: audit %+v", output, a)
	}
	open()
	if err := l.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	a = audit()
	if !slices.Equal(a.PendingDelete, []string{held.storeKey}) || len(a.InFlight)+len(a.Orphans) != 0 {
		t.Fatalf("idle with %s held: audit %+v", held.storeKey, a)
	}
	held.release()
	if a = audit(); len(a.InFlight)+len(a.PendingDelete)+len(a.Orphans) != 0 {
		t.Fatalf("idle tree: audit %+v", a)
	}

	stray := "l1/stray.sst"
	if err := fast.MemStore.Put(stray, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if a = audit(); !slices.Equal(a.Orphans, []string{stray}) {
		t.Fatalf("stray object: audit %+v", a)
	}
}
