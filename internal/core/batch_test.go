package core

import (
	"fmt"
	"testing"

	"timeunion/internal/labels"
)

// batchDB is a WAL-backed DB with one flushed series and a two-member group.
func batchDB(t *testing.T) (db *DB, id, gid uint64, slots []int) {
	t.Helper()
	db = openTestDB(t, testOpts(t.TempDir()))
	var err error
	for ts := int64(1); ts <= 20; ts++ {
		if id, err = db.Append(labels.FromStrings("m", "s"), ts, float64(ts)); err != nil {
			t.Fatal(err)
		}
	}
	members := []labels.Labels{labels.FromStrings("f", "x"), labels.FromStrings("f", "y")}
	if gid, slots, err = db.AppendGroup(labels.FromStrings("host", "h"), members, 1, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.wal.FlushedSeq(id) == 0 {
		t.Fatal("fixture flushed nothing: FlushedSeq is 0")
	}
	return db, id, gid, slots
}

// dbState is everything a rejected batch must leave unchanged.
func dbState(t *testing.T, db *DB, id, gid uint64) string {
	t.Helper()
	res, err := db.Query(0, 1<<40, labels.MustEqual("m", "s"))
	if err != nil {
		t.Fatal(err)
	}
	gres, err := db.Query(0, 1<<40, labels.MustEqual("host", "h"))
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("series=%s group=%s flushed=%d seq=%d gseq=%d wal=%d",
		summarize(res), summarize(gres), db.wal.FlushedSeq(id), db.head.HeadSeq(id), db.head.HeadSeq(gid), db.wal.SizeBytes())
}

func TestAppendBatchAllOrNothing(t *testing.T) {
	cases := []struct {
		name string
		bad  func(b *Batch, id, gid uint64, slots []int)
	}{
		{"unknown series", func(b *Batch, id, gid uint64, slots []int) { b.Add(id+100, 50, 1) }},
		{"unknown group", func(b *Batch, id, gid uint64, slots []int) { b.AddGroup(gid+100, slots, 50, []float64{1, 1}) }},
		{"slot out of range", func(b *Batch, id, gid uint64, slots []int) { b.AddGroup(gid, []int{5}, 50, []float64{1}) }},
		{"values row length", func(b *Batch, id, gid uint64, slots []int) { b.AddGroup(gid, slots, 50, []float64{1, 2, 3}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, id, gid, slots := batchDB(t)
			before := dbState(t, db, id, gid)
			appendsBefore := db.m.appends.Value()
			b := &Batch{}
			b.Add(id, 30, 30)
			b.AddGroup(gid, slots, 30, []float64{3, 3})
			tc.bad(b, id, gid, slots)
			if err := db.AppendBatch(b); err == nil {
				t.Fatal("invalid batch accepted")
			}
			if after := dbState(t, db, id, gid); after != before {
				t.Fatalf("rejected batch changed state:\nbefore %s\nafter  %s", before, after)
			}
			if got := db.m.appends.Value(); got != appendsBefore {
				t.Fatalf("appends counter moved %d -> %d on a rejected batch", appendsBefore, got)
			}
			if db.maxT.v.Load() >= 30 {
				t.Fatalf("retention high-water mark %d moved on a rejected batch", db.maxT.v.Load())
			}
		})
	}
}

func TestAppendBatchMetricsAndDurability(t *testing.T) {
	dir := t.TempDir()
	// Not openTestDB: this DB is crashed below, never closed.
	db, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	id, err := db.Append(labels.FromStrings("m", "s"), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	gid, slots, err := db.AppendGroup(labels.FromStrings("host", "h"), []labels.Labels{labels.FromStrings("f", "x")}, 1, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	snap := db.Metrics().Snapshot()
	appends, timed := snap["timeunion_db_appends_total"], snap["timeunion_db_append_seconds_count"]

	b := &Batch{}
	for ts := int64(2); ts <= 40; ts++ {
		b.Add(id, ts, float64(ts))
	}
	b.AddGroup(gid, slots, 2, []float64{2})
	if err := db.AppendBatch(b); err != nil {
		t.Fatal(err)
	}
	snap = db.Metrics().Snapshot()
	if got := snap["timeunion_db_appends_total"] - appends; got != 40 {
		t.Fatalf("appends_total rose by %v, want the batch's 40 samples", got)
	}
	if got := snap["timeunion_db_append_seconds_count"] - timed; got != 1 {
		t.Fatalf("append_seconds observed %v times, want once per batch", got)
	}

	// Acknowledged and synced: survives a crash.
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	_ = db.store.Close()
	_ = db.wal.CrashClose()
	_ = db.head.Close()
	opts := testOpts(dir)
	opts.Fast, opts.Slow = db.opts.Fast, db.opts.Slow
	db2 := openTestDB(t, opts)
	res, err := db2.Query(0, 1<<40, labels.MustEqual("m", "s"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Samples) != 40 {
		t.Fatalf("recovered %s, want 40 samples", summarize(res))
	}
	for i, p := range res[0].Samples {
		if p.T != int64(i+1) || p.V != float64(i+1) {
			t.Fatalf("sample %d = %+v", i, p)
		}
	}
}
