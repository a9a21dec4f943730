package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"timeunion/internal/cloud"
	"timeunion/internal/labels"
	"timeunion/internal/lsm"
	"timeunion/internal/obs"
)

// The mid-compaction crash-torture harness: deterministic kill schedules at
// every manifest-swap boundary. Each schedule arms one FaultStore kill
// point — crash-before or crash-after a specific Put/Delete class — runs an
// append/sync/flush workload until the store dies mid flush or compaction,
// then recovers and asserts the two-sided contract: no synced sample lost
// AND no sample duplicated (strictly increasing query timestamps), with
// zero orphaned objects left on either tier. TORTURE_SCHEDULES/TORTURE_SEED
// work as in TestCrashTorture.
//
// The orphan audit runs twice after recovery. The recovered tree starts
// flushing (the WAL replay) and compacting at once, so right after Open
// an object no view references may be a declared output of an in-flight
// job or a retired table whose delete has not run: the first audit
// requires every unreferenced object to be one of those two
// (lsm.ObjectAudit.Orphans is empty). After WaitIdle the second requires
// no unreferenced object at all.

// killVariants enumerates the commit-protocol boundaries: both sides of the
// fast and slow manifest swaps, table writes of flush (l0), L0→L1 (l1) and
// L1→L2 (l2) builds both before and after durability, and the post-commit
// input deletion.
var killVariants = []cloud.KillPoint{
	{Op: "put", KeyPrefix: "manifest/fast/"},
	{Op: "put", KeyPrefix: "manifest/fast/", After: true},
	{Op: "put", KeyPrefix: "manifest/slow/"},
	{Op: "put", KeyPrefix: "manifest/slow/", After: true}, // between the slow and fast commits
	{Op: "put", KeyPrefix: "l0/"},
	{Op: "put", KeyPrefix: "l1/"},
	{Op: "put", KeyPrefix: "l1/", After: true},
	{Op: "put", KeyPrefix: "l2/"},
	{Op: "put", KeyPrefix: "l2/", After: true},
	{Op: "delete", KeyPrefix: "l"},
}

// variantOnSlow reports whether the kill point targets the slow store.
func variantOnSlow(kp cloud.KillPoint) bool {
	return strings.HasPrefix(kp.KeyPrefix, "l2/") || strings.HasPrefix(kp.KeyPrefix, "manifest/slow/")
}

func TestCompactionKillTorture(t *testing.T) {
	schedules := envInt("TORTURE_SCHEDULES", 8)
	if testing.Short() && schedules > 4 {
		schedules = 4
	}
	seed := int64(envInt("TORTURE_SEED", 20260806))

	// journaled accumulates the event kinds observed across every schedule
	// (pre-crash and post-recovery journals both count); the torture
	// workload as a whole must exercise — and journal — every
	// background-op kind it is guaranteed to drive.
	var (
		journaledMu sync.Mutex
		journaled   = map[string]int{}
	)
	record := func(j *obs.Journal) {
		journaledMu.Lock()
		defer journaledMu.Unlock()
		for _, ev := range j.Events(0, nil) {
			journaled[ev.Kind]++
		}
	}

	t.Run("schedules", func(t *testing.T) {
		for i := 0; i < schedules; i++ {
			kp := killVariants[i%len(killVariants)]
			kp.CountDown = 1 + (i/len(killVariants))%4
			name := fmt.Sprintf("schedule%02d_%s_%s_cd%d", i, kp.Op,
				strings.ReplaceAll(strings.TrimSuffix(kp.KeyPrefix, "/"), "/", "-"), kp.CountDown)
			if kp.After {
				name += "_after"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				runCompactionKillSchedule(t, seed+int64(i)*104729, kp, record)
			})
		}
	})

	journaledMu.Lock()
	defer journaledMu.Unlock()
	t.Logf("journaled kinds across %d schedules: %v", schedules, journaled)
	// Kinds the workload cannot avoid: every schedule opens (and reopens)
	// the DB, recovers the tree, flushes, commits manifests, rolls the tiny
	// WAL segments, and checkpoints on flush; the 1-partition L0 cap forces
	// L0→L1 compaction. Conditional kinds (quarantine, repair_truncate,
	// patch_merge, retention, job_abandoned) are covered by their own tests.
	for _, want := range []string{
		"core.open", "lsm.recover", "lsm.flush", "lsm.manifest_commit",
		"lsm.compact.l0l1", "wal.roll", "wal.checkpoint", "wal.purge",
	} {
		if journaled[want] == 0 {
			t.Errorf("torture run never journaled %q (got %v)", want, journaled)
		}
	}
}

const killTortureSeries = 4

func killVal(idx int, t int64) float64 { return float64(int64(idx+1)*10_000_000 + t) }

func runCompactionKillSchedule(t *testing.T, seed int64, kp cloud.KillPoint, record func(*obs.Journal)) {
	dir := t.TempDir()
	fastMem := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
	slowMem := cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{})

	// All-zero FaultConfig: the only injected failure is the armed kill
	// point, so every schedule is deterministic up to goroutine interleaving.
	open := func() (*DB, *cloud.FaultStore, *cloud.FaultStore) {
		t.Helper()
		fast := cloud.NewFaultStore(fastMem, cloud.FaultConfig{Seed: seed})
		slow := cloud.NewFaultStore(slowMem, cloud.FaultConfig{Seed: seed + 1})
		db, err := Open(Options{
			Dir:               dir,
			Fast:              fast,
			Slow:              slow,
			CacheBytes:        1 << 20,
			ChunkSamples:      8,
			SlotsPerRegion:    256,
			MemTableSize:      2 << 10,
			L0PartitionLength: 500,
			L2PartitionLength: 2000,
			MaxL0Partitions:   1,
			CompactionWorkers: 2,
			PatchThreshold:    2,
			TargetTableSize:   8 << 10,
			BlockSize:         512,
			WALSegmentSize:    2 << 10,
		})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return db, fast, slow
	}

	series := make([]*stream, killTortureSeries)
	for i := range series {
		series[i] = newStream()
	}

	db, fast, slow := open()

	// A concurrent read replica on the RAW MemStores (writer-side kills
	// must not sever it): it continuously refreshes and queries across
	// every crash/recovery, asserting the replica-side contract — whatever
	// a refreshed view serves is strictly increasing per series with the
	// exact appended values, at every manifest version the writer commits,
	// crashes through, or recovers to. Refresh errors are tolerated (the
	// prior view keeps serving); query errors are not.
	replica, err := OpenReplica(Options{
		Fast:                   fastMem,
		Slow:                   slowMem,
		CacheBytes:             1 << 20,
		ChunkSamples:           8,
		SlotsPerRegion:         256,
		BlockSize:              512,
		ReplicaRefreshInterval: -1,
	})
	if err != nil {
		t.Fatalf("open replica: %v", err)
	}
	replicaStop := make(chan struct{})
	replicaDone := make(chan struct{})
	go func() {
		defer close(replicaDone)
		for {
			select {
			case <-replicaStop:
				return
			case <-time.After(time.Millisecond):
			}
			_, _ = replica.Refresh()
			for idx := 0; idx < killTortureSeries; idx++ {
				res, err := replica.Query(0, int64(1)<<30, labels.MustEqual("m", fmt.Sprintf("k%d", idx)))
				if cloud.IsNotFound(err) {
					// A stale view can reference tables the writer's compaction
					// or recovery GC already deleted; the next refresh heals it.
					break
				}
				if err != nil {
					t.Errorf("replica query k%d: %v", idx, err)
					return
				}
				if len(res) > 1 {
					t.Errorf("replica query k%d returned %d series", idx, len(res))
					return
				}
				if len(res) == 0 {
					continue
				}
				last := int64(-1) << 62
				for _, p := range res[0].Samples {
					if p.T <= last {
						t.Errorf("replica k%d: duplicated or unordered sample t=%d (prev %d)", idx, p.T, last)
						return
					}
					last = p.T
					if want := killVal(idx, p.T); p.V != want {
						t.Errorf("replica k%d: t=%d v=%v, want %v", idx, p.T, p.V, want)
						return
					}
				}
			}
		}
	}()
	defer func() {
		close(replicaStop)
		<-replicaDone
		// After the final (fault-free) flush the shared storage is the
		// whole truth: writer and replica must answer identically.
		if _, err := replica.Refresh(); err != nil {
			t.Fatalf("final replica refresh: %v", err)
		}
		verifyExactlyOnce(t, replica, series)
		if err := replica.Close(); err != nil {
			t.Fatalf("replica close: %v", err)
		}
	}()
	// Arm after Open so the recovery commit itself cannot be the victim —
	// the workload's flushes and compactions are the targets.
	if variantOnSlow(kp) {
		slow.ArmKillPoint(kp)
	} else {
		fast.ArmKillPoint(kp)
	}

	nextT := int64(1)
	for op := 0; op < 4000 && !fast.Killed() && !slow.Killed(); op++ {
		idx := op % killTortureSeries
		ts := nextT
		nextT += 7
		v := killVal(idx, ts)
		lbls := labels.FromStrings("m", fmt.Sprintf("k%d", idx))
		if _, err := db.Append(lbls, ts, v); err != nil {
			series[idx].maybe[ts] = v
		} else {
			series[idx].acked[ts] = v
		}
		switch {
		case op%16 == 15:
			if err := db.Sync(); err == nil {
				for _, s := range series {
					s.promote()
				}
			}
		case op%48 == 40:
			_ = db.Flush() // drives flush + compaction; may die at the kill point
		case op%96 == 70:
			_, _ = db.PurgeWAL()
		}
	}
	if !fast.Killed() && !slow.Killed() {
		t.Logf("kill point %+v never triggered; crashing manually", kp)
	}

	// Crash: sever both stores, abandon WAL and head without flushing.
	record(db.Journal())
	crashed := db.Journal()
	fast.Kill()
	slow.Kill()
	_ = db.store.Close()
	_ = db.wal.CrashClose()
	_ = db.head.Close()
	for _, s := range series {
		s.demote()
	}

	db, fast, slow = open()
	verifyExactlyOnce(t, db, series)
	audit := func(when string, idle bool) {
		t.Helper()
		if msg := auditObjects(t, db, idle); msg != "" {
			t.Fatalf("%s %s (kill point %+v)\njournal before the crash:\n%s\njournal after recovery:\n%s",
				msg, when, kp, formatJournal(crashed), formatJournal(db.Journal()))
		}
	}
	audit("right after recovery", false)
	if err := db.ChunkStoreRef().(*lsm.LSM).WaitIdle(); err != nil {
		t.Fatalf("wait idle after recovery: %v", err)
	}
	audit("after recovery, idle", true)

	// Phase 2: the recovered tree must keep working — more appends, a real
	// flush (no faults armed now), and the contract must still hold.
	for op := 0; op < 200; op++ {
		idx := op % killTortureSeries
		ts := nextT
		nextT += 7
		v := killVal(idx, ts)
		if _, err := db.Append(labels.FromStrings("m", fmt.Sprintf("k%d", idx)), ts, v); err != nil {
			t.Fatalf("phase-2 append: %v", err)
		}
		series[idx].acked[ts] = v
	}
	if err := db.Sync(); err != nil {
		t.Fatalf("phase-2 sync: %v", err)
	}
	for _, s := range series {
		s.promote()
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("phase-2 flush: %v", err)
	}
	verifyExactlyOnce(t, db, series)
	audit("after the phase-2 flush", true)
	record(db.Journal())
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// verifyExactlyOnce checks both sides of the contract per series: strictly
// increasing timestamps (zero duplicated samples, however the tree
// recovered), every returned sample was actually appended with that value,
// and every durable (synced) sample is present.
func verifyExactlyOnce(t *testing.T, db *DB, series []*stream) {
	t.Helper()
	for idx, s := range series {
		name := fmt.Sprintf("series k%d", idx)
		res, err := db.Query(0, int64(1)<<30, labels.MustEqual("m", fmt.Sprintf("k%d", idx)))
		if err != nil {
			t.Fatalf("%s: query: %v", name, err)
		}
		if len(res) > 1 {
			t.Fatalf("%s: query returned %d series, want at most 1", name, len(res))
		}
		got := map[int64]float64{}
		last := int64(-1) << 62
		if len(res) == 1 {
			for _, p := range res[0].Samples {
				if p.T <= last {
					t.Fatalf("%s: duplicated or unordered sample at t=%d (prev t=%d)", name, p.T, last)
				}
				last = p.T
				want, ok := s.expected(p.T)
				if !ok {
					t.Fatalf("%s: t=%d v=%v was never appended", name, p.T, p.V)
				}
				if want != p.V {
					t.Fatalf("%s: t=%d got v=%v, appended v=%v", name, p.T, p.V, want)
				}
				got[p.T] = p.V
			}
		}
		for ts, v := range s.durable {
			if gv, ok := got[ts]; !ok {
				t.Fatalf("%s: durable sample t=%d v=%v lost (stats=%+v)", name, ts, v, db.Stats())
			} else if gv != v {
				t.Fatalf("%s: durable sample t=%d got v=%v, want v=%v", name, ts, gv, v)
			}
		}
	}
}

// auditObjects classifies both tiers' objects and returns what is wrong,
// or "". On a tree that may be busy every unreferenced object must be an
// in-flight output or a retired table pending delete; on an idle tree no
// object may be unreferenced (recovery GC and every job's commit and
// delete leave the buckets exactly matching the view).
func auditObjects(t *testing.T, db *DB, idle bool) string {
	t.Helper()
	tree, ok := db.ChunkStoreRef().(*lsm.LSM)
	if !ok {
		t.Fatalf("chunk store is not the LSM tree")
	}
	a, err := tree.AuditObjects()
	if err != nil {
		t.Fatalf("audit objects: %v", err)
	}
	if len(a.Orphans) != 0 {
		return fmt.Sprintf("orphaned objects %v (in flight %v, pending delete %v)", a.Orphans, a.InFlight, a.PendingDelete)
	}
	if idle && len(a.InFlight)+len(a.PendingDelete) != 0 {
		return fmt.Sprintf("unreferenced objects on an idle tree: in flight %v, pending delete %v", a.InFlight, a.PendingDelete)
	}
	return ""
}

// formatJournal renders a journal's events one per line.
func formatJournal(j *obs.Journal) string {
	var b strings.Builder
	for _, ev := range j.Events(0, nil) {
		fmt.Fprintf(&b, "  #%d %s %dus err=%q %v\n", ev.Seq, ev.Kind, ev.DurationUs, ev.Err, ev.Fields)
	}
	return b.String()
}
