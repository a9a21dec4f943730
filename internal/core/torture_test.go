package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"timeunion/internal/cloud"
	"timeunion/internal/labels"
	"timeunion/internal/wal"
)

// The crash-recovery torture harness: randomized append/flush/purge/sync
// schedules against a FaultStore-backed DB, with crashes injected at random
// kill points. A crash kills the fault stores (severing the abandoned
// incarnation's cloud I/O), closes the WAL without syncing, and then mangles
// the WAL files beyond the last-synced boundary — truncating tails and
// flipping bytes, the damage an fsync-less power cut can leave behind. After
// every reopen the harness asserts the durability contract against a shadow
// model: every sample acknowledged before a successful Sync is queryable
// with its exact value, and no sample ever comes back with a value that was
// never appended.
//
// A second random stream, seeded from the schedule's, routes part of the
// fast-path-eligible appends through AppendBatch without changing the
// schedule itself. Every batched sample that was acknowledged and synced
// must come back exactly once, and a batch made invalid by its last item
// must leave no sample behind.
//
// Knobs: TORTURE_SCHEDULES (number of randomized schedules, default 8) and
// TORTURE_SEED (base seed, default fixed) let CI pin a reproduction.

// stream is the shadow model of one timeseries (an individual series or one
// group member). Samples move acked -> durable on a successful Sync and
// acked -> maybe on a crash; maybe also holds unacknowledged appends (the
// WAL record may or may not have been written before the error).
type stream struct {
	durable map[int64]float64 // must survive any crash
	acked   map[int64]float64 // acknowledged, not yet synced
	maybe   map[int64]float64 // may or may not survive; value is binding
	batched map[int64]bool    // written through AppendBatch
}

func newStream() *stream {
	return &stream{
		durable: map[int64]float64{},
		acked:   map[int64]float64{},
		maybe:   map[int64]float64{},
		batched: map[int64]bool{},
	}
}

func (s *stream) expected(t int64) (float64, bool) {
	if v, ok := s.durable[t]; ok {
		return v, true
	}
	if v, ok := s.acked[t]; ok {
		return v, true
	}
	v, ok := s.maybe[t]
	return v, ok
}

// promote marks everything acknowledged so far as durable (a Sync
// succeeded).
func (s *stream) promote() {
	for t, v := range s.acked {
		s.durable[t] = v
	}
	s.acked = map[int64]float64{}
}

// demote downgrades unsynced acknowledgements to "maybe" (a crash happened).
func (s *stream) demote() {
	for t, v := range s.acked {
		s.maybe[t] = v
	}
	s.acked = map[int64]float64{}
}

const (
	tortureSeries       = 6
	tortureGroupMembers = 3
)

func seriesVal(idx int, t int64) float64 { return float64(int64(idx+1)*1_000_000 + t) }
func groupVal(slot int, t int64) float64 { return float64(100_000_000 + int64(slot)*1_000_000 + t) }

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func TestCrashTorture(t *testing.T) {
	schedules := envInt("TORTURE_SCHEDULES", 8)
	if testing.Short() && schedules > 3 {
		schedules = 3
	}
	seed := int64(envInt("TORTURE_SEED", 20260806))
	for i := 0; i < schedules; i++ {
		i := i
		t.Run(fmt.Sprintf("schedule%02d", i), func(t *testing.T) {
			t.Parallel()
			runTortureSchedule(t, seed+int64(i)*7919)
		})
	}
}

func runTortureSchedule(t *testing.T, seed int64) {
	debug := os.Getenv("TORTURE_DEBUG") != ""
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	fastMem := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
	slowMem := cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{})
	walDir := filepath.Join(dir, "wal")

	faultCfg := func() cloud.FaultConfig {
		return cloud.FaultConfig{
			Seed:          rng.Int63(),
			TransientProb: 0.02,
			NotFoundProb:  0.01,
			TornWriteProb: 0.01,
			LatencyProb:   0.005,
			LatencySpike:  50 * time.Microsecond,
		}
	}
	// open wraps the surviving MemStores ("the cloud") in fresh fault
	// stores and opens the DB. If recovery fails under injected faults the
	// harness retries with injection disabled — that attempt must succeed.
	open := func() (*DB, *cloud.FaultStore, *cloud.FaultStore) {
		fast := cloud.NewFaultStore(fastMem, faultCfg())
		slow := cloud.NewFaultStore(slowMem, faultCfg())
		opts := Options{
			Dir:               dir,
			Fast:              fast,
			Slow:              slow,
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
			WALSegmentSize:    2 << 10,
		}
		db, err := Open(opts)
		if err != nil {
			fast.SetEnabled(false)
			slow.SetEnabled(false)
			db, err = Open(opts)
			if err != nil {
				t.Fatalf("reopen with faults disabled failed: %v", err)
			}
			fast.SetEnabled(true)
			slow.SetEnabled(true)
		}
		return db, fast, slow
	}

	series := make([]*stream, tortureSeries)
	members := make([]*stream, tortureGroupMembers)
	for i := range series {
		series[i] = newStream()
	}
	for i := range members {
		members[i] = newStream()
	}
	groupTags := labels.FromStrings("g", "grp")
	uniqueTags := make([]labels.Labels, tortureGroupMembers)
	for i := range uniqueTags {
		uniqueTags[i] = labels.FromStrings("gm", fmt.Sprintf("m%d", i))
	}
	all := append(append([]*stream{}, series...), members...)
	promoteAll := func() {
		for _, s := range all {
			s.promote()
		}
	}
	demoteAll := func() {
		for _, s := range all {
			s.demote()
		}
	}

	// The batch path: brng decides which appends are batched, so rng's
	// schedule is the same with or without it. IDs are learned from the
	// slow-path calls and forgotten at every crash, since a lost catalog
	// tail can hand a forgotten ID to another series.
	db, fast, slow := open()
	nextT := int64(1)
	brng := rand.New(rand.NewSource(seed ^ 0x5eed))
	seriesIDs := map[int]uint64{}
	var gid uint64
	var gslots []int
	type batched struct {
		s *stream
		t int64
		v float64
	}
	var batch Batch
	var inBatch []batched
	flushBatch := func() {
		if len(inBatch) == 0 {
			return
		}
		invalid := brng.Float64() < 0.1
		if invalid {
			batch.Add(1<<40, nextT, 0) // an unknown series, last
		}
		err := db.AppendBatch(&batch)
		for _, b := range inBatch {
			switch {
			case invalid:
				if err == nil {
					t.Fatal("batch with an unknown series ID accepted")
				}
				// Rejected whole: the samples were never appended.
			case err != nil:
				b.s.maybe[b.t] = b.v
			default:
				b.s.acked[b.t] = b.v
				b.s.batched[b.t] = true
			}
		}
		if debug {
			t.Logf("batch of %d invalid=%v err=%v", len(inBatch), invalid, err)
		}
		batch.Reset()
		inBatch = inBatch[:0]
	}

	syncSnap := walEnds(t, walDir)

	crashes := 2 + rng.Intn(3)
	for inc := 0; ; inc++ {
		ops := 80 + rng.Intn(220)
		for o := 0; o < ops; o++ {
			switch r := rng.Float64(); {
			case r < 0.75: // individual append
				idx := rng.Intn(tortureSeries)
				ts := nextT
				nextT++
				v := seriesVal(idx, ts)
				if id, ok := seriesIDs[idx]; ok && brng.Float64() < 0.4 {
					batch.Add(id, ts, v)
					inBatch = append(inBatch, batched{series[idx], ts, v})
					if len(inBatch) >= 1+brng.Intn(8) {
						flushBatch()
					}
					break
				}
				lbls := labels.FromStrings("m", fmt.Sprintf("s%d", idx))
				if id, err := db.Append(lbls, ts, v); err != nil {
					series[idx].maybe[ts] = v
				} else {
					series[idx].acked[ts] = v
					seriesIDs[idx] = id
				}
				if debug {
					t.Logf("append s%d t=%d", idx, ts)
				}
			case r < 0.87: // group round
				ts := nextT
				nextT++
				vals := make([]float64, tortureGroupMembers)
				for i := range vals {
					vals[i] = groupVal(i, ts)
				}
				if gid != 0 && brng.Float64() < 0.4 {
					batch.AddGroup(gid, gslots, ts, vals)
					for i, m := range members {
						inBatch = append(inBatch, batched{m, ts, vals[i]})
					}
					break
				}
				if g, slots, err := db.AppendGroup(groupTags, uniqueTags, ts, vals); err != nil {
					for i, m := range members {
						m.maybe[ts] = vals[i]
					}
				} else {
					for i, m := range members {
						m.acked[ts] = vals[i]
					}
					gid, gslots = g, slots
				}
			case r < 0.91:
				flushBatch()
				err := db.Flush() // may fail under faults; data stays in the WAL
				if debug {
					t.Logf("flush err=%v", err)
				}
			case r < 0.95:
				flushBatch()
				n, err := db.PurgeWAL()
				if debug {
					t.Logf("purge n=%d err=%v", n, err)
				}
			default:
				flushBatch()
				if err := db.Sync(); err == nil {
					promoteAll()
					syncSnap = walEnds(t, walDir)
					if debug {
						t.Logf("sync snap=%v", syncSnap)
					}
				}
			}
		}
		flushBatch()
		if inc == crashes {
			break
		}

		// Crash: sever the abandoned incarnation's cloud I/O, abandon the
		// WAL without syncing, then damage everything past the last-synced
		// boundary.
		fast.Kill()
		slow.Kill()
		_ = db.store.Close()
		_ = db.wal.CrashClose()
		_ = db.head.Close()
		demoteAll()
		clear(seriesIDs)
		gid, gslots = 0, nil
		if debug {
			t.Logf("crash inc=%d ends=%v snap=%v", inc, walEnds(t, walDir), syncSnap)
		}
		damage := mangleWAL(t, rng, walDir, syncSnap)
		if debug {
			t.Logf("mangled %v", damage)
		}

		db, fast, slow = open()
		// Everything now on disk is the recovered baseline; the next crash
		// may only damage bytes written after this point.
		syncSnap = walEnds(t, walDir)
		fast.SetEnabled(false)
		slow.SetEnabled(false)
		verifyShadow(t, db, series, members)
		fast.SetEnabled(true)
		slow.SetEnabled(true)
	}

	// Graceful end: sync, verify live, then close cleanly and verify the
	// recovered state once more.
	fast.SetEnabled(false)
	slow.SetEnabled(false)
	if err := db.Sync(); err != nil {
		t.Fatalf("final sync: %v", err)
	}
	promoteAll()
	verifyShadow(t, db, series, members)
	st := db.Stats()
	t.Logf("seed=%d corruptionsRepaired=%d quarantined=%d recoveryDropped=%d faults(fast)=%+v faults(slow)=%+v",
		seed, st.WALCorruptions, st.LSM.TablesQuarantined, st.RecoveryDropped, fast.Injected(), slow.Injected())
	_ = db.Close() // a fault-poisoned background worker may surface here

	db2, fast2, slow2 := open()
	fast2.SetEnabled(false)
	slow2.SetEnabled(false)
	verifyShadow(t, db2, series, members)
	if err := db2.Close(); err != nil {
		t.Fatalf("final close: %v", err)
	}
}

// walEnds snapshots the logged end of every WAL file (wal.LoggedEnd), not
// its size: an active segment's file runs on past its records with the
// zeros allocated ahead of them. Taken right after a successful Sync (or
// right after a reopen), it is the boundary beyond which a later crash may
// destroy data: every durable record lies below it.
func walEnds(t *testing.T, walDir string) map[string]int64 {
	t.Helper()
	ends := map[string]int64{}
	entries, err := os.ReadDir(walDir)
	if err != nil {
		if os.IsNotExist(err) {
			return ends
		}
		t.Fatalf("snapshot wal: %v", err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".wal" {
			ends[e.Name()] = loggedEnd(t, filepath.Join(walDir, e.Name()))
		}
	}
	return ends
}

func loggedEnd(t *testing.T, path string) int64 {
	t.Helper()
	end, err := wal.LoggedEnd(path)
	if err != nil {
		t.Fatalf("logged end of %s: %v", path, err)
	}
	return end
}

// mangleWAL simulates what a power cut does to unsynced file tails: for
// each WAL file, the bytes logged beyond the last-synced snapshot may be
// truncated at a random point, corrupted in place, or lost as pages that
// never reached the disk, which leaves zeros from a random point on in a
// file that keeps its length. Bytes below the snapshot are durable and
// never touched. The checkpoint is always written via write-sync-rename,
// so it has no unsynced tail to damage. It returns what it did to each file.
func mangleWAL(t *testing.T, rng *rand.Rand, walDir string, synced map[string]int64) map[string]string {
	t.Helper()
	damage := map[string]string{}
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatalf("mangle wal: %v", err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".wal" {
			continue
		}
		path := filepath.Join(walDir, e.Name())
		cur := loggedEnd(t, path)
		base := synced[e.Name()] // 0 for files created after the snapshot
		if cur <= base {
			continue
		}
		switch r := rng.Float64(); {
		case r < 0.35: // torn tail: lose a suffix of the unsynced records
			cut := base + rng.Int63n(cur-base+1)
			if err := os.Truncate(path, cut); err != nil {
				t.Fatalf("truncate %s: %v", path, err)
			}
			damage[e.Name()] = fmt.Sprintf("cut at %d of %d", cut, cur)
		case r < 0.60: // in-place damage: flip one unsynced byte
			off := base + rng.Int63n(cur-base)
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatalf("open %s: %v", path, err)
			}
			var b [1]byte
			if _, err := f.ReadAt(b[:], off); err != nil {
				f.Close()
				t.Fatalf("read %s: %v", path, err)
			}
			b[0] ^= 0xFF
			if _, err := f.WriteAt(b[:], off); err != nil {
				f.Close()
				t.Fatalf("write %s: %v", path, err)
			}
			f.Close()
			damage[e.Name()] = fmt.Sprintf("flip at %d of %d", off, cur)
		case r < 0.80: // unwritten pages: zeros from a random point on
			off := base + rng.Int63n(cur-base)
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatalf("open %s: %v", path, err)
			}
			if _, err := f.WriteAt(make([]byte, cur-off), off); err != nil {
				f.Close()
				t.Fatalf("write %s: %v", path, err)
			}
			f.Close()
			damage[e.Name()] = fmt.Sprintf("zeros from %d of %d", off, cur)
		}
	}
	return damage
}

// verifyShadow checks the durability contract: every durable sample is
// present with its exact value, and every returned sample carries a value
// that was actually appended at that timestamp.
func verifyShadow(t *testing.T, db *DB, series, members []*stream) {
	t.Helper()
	const maxT = int64(1) << 30
	for idx, s := range series {
		m := labels.MustEqual("m", fmt.Sprintf("s%d", idx))
		checkStream(t, db, fmt.Sprintf("series s%d", idx), s, m)
	}
	for slot, s := range members {
		g := labels.MustEqual("g", "grp")
		m := labels.MustEqual("gm", fmt.Sprintf("m%d", slot))
		checkStream(t, db, fmt.Sprintf("group member m%d", slot), s, g, m)
	}
	_ = maxT
}

func checkStream(t *testing.T, db *DB, name string, s *stream, matchers ...*labels.Matcher) {
	t.Helper()
	res, err := db.Query(0, int64(1)<<30, matchers...)
	if err != nil {
		t.Fatalf("%s: query: %v", name, err)
	}
	if len(res) > 1 {
		t.Fatalf("%s: query returned %d series, want at most 1", name, len(res))
	}
	got := map[int64]float64{}
	if len(res) == 1 {
		for _, p := range res[0].Samples {
			if prev, ok := got[p.T]; ok && prev != p.V {
				t.Fatalf("%s: t=%d returned twice with different values %v and %v", name, p.T, prev, p.V)
			} else if ok && s.batched[p.T] {
				t.Fatalf("%s: batched sample t=%d returned twice", name, p.T)
			}
			got[p.T] = p.V
			want, ok := s.expected(p.T)
			if !ok {
				t.Fatalf("%s: t=%d v=%v was never appended", name, p.T, p.V)
			}
			if want != p.V {
				t.Fatalf("%s: t=%d got v=%v, appended v=%v", name, p.T, p.V, want)
			}
		}
	}
	for ts, v := range s.durable {
		gv, ok := got[ts]
		if !ok {
			st := db.Stats()
			t.Fatalf("%s: durable sample t=%d v=%v lost after recovery (stats=%+v)", name, ts, v, st)
		}
		if gv != v {
			t.Fatalf("%s: durable sample t=%d got v=%v, want v=%v", name, ts, gv, v)
		}
	}
}
