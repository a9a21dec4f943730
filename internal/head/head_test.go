package head

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"timeunion/internal/chunkenc"
	"timeunion/internal/encoding"
	"timeunion/internal/index"
	"timeunion/internal/labels"
	"timeunion/internal/tuple"
	"timeunion/internal/wal"
)

// memSink collects flushed chunks for inspection.
type memSink struct {
	mu  sync.Mutex
	kvs []tuple.KV
}

func (s *memSink) sink(key encoding.Key, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kvs = append(s.kvs, tuple.KV{Key: key, Value: append([]byte(nil), value...)})
	return nil
}

// samplesFor decodes every flushed chunk of id into merged samples.
func (s *memSink) samplesFor(t *testing.T, id uint64) []chunkenc.Sample {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var all []chunkenc.Sample
	for _, kv := range s.kvs {
		if kv.Key.ID() != id {
			continue
		}
		_, kind, payload, err := tuple.Decode(kv.Value)
		if err != nil {
			t.Fatal(err)
		}
		if kind != tuple.KindSeries {
			continue
		}
		ss, err := chunkenc.DecodeXORSamples(payload)
		if err != nil {
			t.Fatal(err)
		}
		all = chunkenc.MergeSamples(all, ss)
	}
	return all
}

func newTestHead(t *testing.T, w *wal.WAL) (*Head, *memSink) {
	t.Helper()
	sink := &memSink{}
	h, err := New(Options{
		ChunkSamples:   4, // tiny chunks: flushes trigger quickly
		SlotSize:       256,
		SlotsPerRegion: 64,
		WAL:            w,
		Sink:           sink.sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h, sink
}

func TestAppendCreatesSeriesAndIndexes(t *testing.T) {
	h, _ := newTestHead(t, nil)
	ls := labels.FromStrings("metric", "cpu", "host", "h1")
	id, err := h.Append(ls, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("zero series id")
	}
	// Second slow-path append reuses the series.
	id2, err := h.Append(ls, 200, 0.6)
	if err != nil || id2 != id {
		t.Fatalf("second append: id=%d err=%v", id2, err)
	}
	if h.NumSeries() != 1 {
		t.Fatalf("NumSeries = %d", h.NumSeries())
	}
	got, err := h.Index().Select(labels.MustEqual("metric", "cpu"))
	if err != nil || len(got) != 1 || got[0] != id {
		t.Fatalf("index select = %v, %v", got, err)
	}
	if lbls, ok := h.SeriesLabels(id); !ok || !lbls.Equal(ls) {
		t.Fatalf("SeriesLabels = %v, %v", lbls, ok)
	}
}

// TestAppendFastUnknownSeries: the fast path validates as a batch of one,
// so an unknown id is an ErrInvalidBatch.
func TestAppendFastUnknownSeries(t *testing.T) {
	h, _ := newTestHead(t, nil)
	if err := h.AppendFast(42, 1, 1); !errors.Is(err, ErrInvalidBatch) {
		t.Fatalf("unknown id: error %v, want %v", err, ErrInvalidBatch)
	}
}

func TestChunkFlushAtCapacity(t *testing.T) {
	h, sink := newTestHead(t, nil)
	id, err := h.Append(labels.FromStrings("m", "x"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ { // chunk capacity is 4
		if err := h.AppendFast(id, int64(i)*10, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(sink.kvs) != 1 {
		t.Fatalf("flushed %d chunks, want 1", len(sink.kvs))
	}
	got := sink.samplesFor(t, id)
	if len(got) != 4 || got[3] != (chunkenc.Sample{T: 30, V: 3}) {
		t.Fatalf("flushed samples = %v", got)
	}
	// Head chunk is now empty.
	hs, err := h.HeadSamples(id, 0, 1000)
	if err != nil || len(hs) != 0 {
		t.Fatalf("head samples after flush = %v, %v", hs, err)
	}
	// The sequence embedded in the flushed chunk is the series seq.
	if seq := tuple.SeqOf(sink.kvs[0].Value); seq != 4 {
		t.Fatalf("embedded seq = %d", seq)
	}
}

func TestHeadSamplesRange(t *testing.T) {
	h, _ := newTestHead(t, nil)
	id, _ := h.Append(labels.FromStrings("m", "x"), 10, 1)
	h.AppendFast(id, 20, 2)
	h.AppendFast(id, 30, 3)
	got, err := h.HeadSamples(id, 15, 25)
	if err != nil || len(got) != 1 || got[0].T != 20 {
		t.Fatalf("HeadSamples = %v, %v", got, err)
	}
}

func TestOutOfOrderWithinOpenChunk(t *testing.T) {
	h, _ := newTestHead(t, nil)
	id, _ := h.Append(labels.FromStrings("m", "x"), 10, 1)
	h.AppendFast(id, 30, 3)
	// Insert between existing samples.
	if err := h.AppendFast(id, 20, 2); err != nil {
		t.Fatal(err)
	}
	// Replace an existing timestamp.
	if err := h.AppendFast(id, 10, 11); err != nil {
		t.Fatal(err)
	}
	got, err := h.HeadSamples(id, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := []chunkenc.Sample{{T: 10, V: 11}, {T: 20, V: 2}, {T: 30, V: 3}}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestOutOfOrderOlderThanChunkEarlyFlush(t *testing.T) {
	h, sink := newTestHead(t, nil)
	id, _ := h.Append(labels.FromStrings("m", "x"), 1000, 1)
	// Much older sample: early-flushed directly to the sink.
	if err := h.AppendFast(id, 5, 0.5); err != nil {
		t.Fatal(err)
	}
	if len(sink.kvs) != 1 {
		t.Fatalf("early flush missing: %d kvs", len(sink.kvs))
	}
	if sink.kvs[0].Key.StartT() != 5 {
		t.Fatalf("early-flushed key = %v", sink.kvs[0].Key)
	}
	// Open chunk unaffected.
	hs, _ := h.HeadSamples(id, 0, 10000)
	if len(hs) != 1 || hs[0].T != 1000 {
		t.Fatalf("head samples = %v", hs)
	}
}

func TestFlushOpenChunks(t *testing.T) {
	h, sink := newTestHead(t, nil)
	id, _ := h.Append(labels.FromStrings("m", "x"), 10, 1)
	if err := h.FlushOpenChunks(); err != nil {
		t.Fatal(err)
	}
	if got := sink.samplesFor(t, id); len(got) != 1 {
		t.Fatalf("flushed = %v", got)
	}
}

func TestGroupAppendAndSlots(t *testing.T) {
	h, _ := newTestHead(t, nil)
	gTags := labels.FromStrings("hostname", "host_0", "region", "ap-1")
	u0 := labels.FromStrings("metric", "usage_user")
	u1 := labels.FromStrings("metric", "usage_system")
	gid, slots, err := h.AppendGroup(gTags, []labels.Labels{u0, u1}, 100, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !index.IsGroupID(gid) {
		t.Fatalf("gid %x lacks group flag", gid)
	}
	if len(slots) != 2 || slots[0] != 0 || slots[1] != 1 {
		t.Fatalf("slots = %v", slots)
	}
	// Fast path with partial membership (member 1 missing → NULL).
	if err := h.AppendGroupFast(gid, []int{0}, 200, []float64{3}); err != nil {
		t.Fatal(err)
	}
	// New member joins mid-chunk (backfill).
	u2 := labels.FromStrings("metric", "usage_idle")
	_, slots2, err := h.AppendGroup(gTags, []labels.Labels{u2}, 300, []float64{9})
	if err != nil {
		t.Fatal(err)
	}
	if slots2[0] != 2 {
		t.Fatalf("new member slot = %d", slots2[0])
	}

	got, err := h.HeadGroupSamples(gid, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != 2 || got[0][1] != (chunkenc.Sample{T: 200, V: 3}) {
		t.Fatalf("slot0 = %v", got[0])
	}
	if len(got[1]) != 1 || got[1][0].T != 100 {
		t.Fatalf("slot1 = %v", got[1])
	}
	if len(got[2]) != 1 || got[2][0] != (chunkenc.Sample{T: 300, V: 9}) {
		t.Fatalf("slot2 = %v", got[2])
	}

	// Index: group tags and unique tags all map to the group ID.
	for _, m := range []*labels.Matcher{
		labels.MustEqual("hostname", "host_0"),
		labels.MustEqual("metric", "usage_user"),
		labels.MustEqual("metric", "usage_idle"),
	} {
		ids, err := h.Index().Select(m)
		if err != nil || len(ids) != 1 || ids[0] != gid {
			t.Fatalf("select %v = %v, %v", m, ids, err)
		}
	}

	gt, members, ok := h.GroupInfo(gid)
	if !ok || !gt.Equal(gTags) || len(members) != 3 {
		t.Fatalf("GroupInfo = %v %v %v", gt, members, ok)
	}
	if id2, ok := h.ResolveGroup(gTags); !ok || id2 != gid {
		t.Fatal("ResolveGroup failed")
	}
}

func TestGroupChunkFlush(t *testing.T) {
	h, sink := newTestHead(t, nil)
	gTags := labels.FromStrings("host", "h")
	u := []labels.Labels{labels.FromStrings("m", "a"), labels.FromStrings("m", "b")}
	gid, slots, err := h.AppendGroup(gTags, u, 0, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ { // capacity 4 rounds
		if err := h.AppendGroupFast(gid, slots, int64(i)*10, []float64{float64(i), float64(-i)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(sink.kvs) != 1 {
		t.Fatalf("flushed %d chunks", len(sink.kvs))
	}
	kv := sink.kvs[0]
	if kv.Key.ID() != gid || kv.Key.StartT() != 0 {
		t.Fatalf("flushed key = %v", kv.Key)
	}
	_, kind, payload, err := tuple.Decode(kv.Value)
	if err != nil || kind != tuple.KindGroup {
		t.Fatalf("kind = %v, %v", kind, err)
	}
	g, err := chunkenc.DecodeGroupData(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Times) != 4 || len(g.Columns) != 2 {
		t.Fatalf("group tuple shape: %d times, %d cols", len(g.Times), len(g.Columns))
	}
	if g.Columns[1].Values[2] != -2 {
		t.Fatalf("col1 = %+v", g.Columns[1])
	}
}

func TestGroupOutOfOrderRewrite(t *testing.T) {
	h, _ := newTestHead(t, nil)
	gTags := labels.FromStrings("host", "h")
	u := []labels.Labels{labels.FromStrings("m", "a")}
	gid, slots, err := h.AppendGroup(gTags, u, 100, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AppendGroupFast(gid, slots, 300, []float64{3}); err != nil {
		t.Fatal(err)
	}
	// In-chunk out-of-order round.
	if err := h.AppendGroupFast(gid, slots, 200, []float64{2}); err != nil {
		t.Fatal(err)
	}
	got, err := h.HeadGroupSamples(gid, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != 3 || got[0][1] != (chunkenc.Sample{T: 200, V: 2}) {
		t.Fatalf("rewritten = %v", got[0])
	}
}

func TestGroupOutOfOrderEarlyFlush(t *testing.T) {
	h, sink := newTestHead(t, nil)
	gTags := labels.FromStrings("host", "h")
	u := []labels.Labels{labels.FromStrings("m", "a")}
	gid, slots, err := h.AppendGroup(gTags, u, 1000, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AppendGroupFast(gid, slots, 5, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	if len(sink.kvs) != 1 || sink.kvs[0].Key.StartT() != 5 {
		t.Fatalf("early flush = %v", sink.kvs)
	}
}

func TestGroupValidation(t *testing.T) {
	h, _ := newTestHead(t, nil)
	if _, _, err := h.AppendGroup(labels.FromStrings("a", "b"), []labels.Labels{{}}, 0, []float64{1, 2}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if err := h.AppendGroupFast(123, []int{0}, 0, []float64{1}); !errors.Is(err, ErrInvalidBatch) {
		t.Fatalf("unknown group: error %v, want %v", err, ErrInvalidBatch)
	}
	gid, _, err := h.AppendGroup(labels.FromStrings("a", "b"), []labels.Labels{labels.FromStrings("m", "x")}, 0, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AppendGroupFast(gid, []int{5}, 1, []float64{1}); !errors.Is(err, ErrInvalidBatch) {
		t.Fatalf("out-of-range slot: error %v, want %v", err, ErrInvalidBatch)
	}
	if err := h.AppendGroupFast(gid, []int{0}, 1, []float64{1, 2}); !errors.Is(err, ErrInvalidBatch) {
		t.Fatalf("slots/values mismatch: error %v, want %v", err, ErrInvalidBatch)
	}
}

func TestPurgeBefore(t *testing.T) {
	h, _ := newTestHead(t, nil)
	oldID, _ := h.Append(labels.FromStrings("m", "old"), 100, 1)
	newID, _ := h.Append(labels.FromStrings("m", "new"), 10_000, 1)
	gTags := labels.FromStrings("g", "old")
	h.AppendGroup(gTags, []labels.Labels{labels.FromStrings("m", "gm")}, 50, []float64{1})

	purged := h.PurgeBefore(5000)
	if purged != 2 {
		t.Fatalf("purged = %d, want 2", purged)
	}
	if _, ok := h.SeriesLabels(oldID); ok {
		t.Fatal("old series survived purge")
	}
	if _, ok := h.SeriesLabels(newID); !ok {
		t.Fatal("new series purged")
	}
	if ids, _ := h.Index().Select(labels.MustEqual("m", "old")); len(ids) != 0 {
		t.Fatal("old series still indexed")
	}
	if _, ok := h.ResolveGroup(gTags); ok {
		t.Fatal("old group survived purge")
	}
	if h.NumGroups() != 0 {
		t.Fatalf("NumGroups = %d", h.NumGroups())
	}
}

func TestFootprintGrows(t *testing.T) {
	h, _ := newTestHead(t, nil)
	base := h.Footprint().Total()
	for i := 0; i < 500; i++ {
		if _, err := h.Append(labels.FromStrings("metric", "cpu", "host", fmt.Sprintf("h%d", i)), 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	f := h.Footprint()
	if f.Total() <= base {
		t.Fatal("footprint did not grow")
	}
	if f.TagBytes == 0 || f.IndexBytes == 0 || f.ObjectBytes == 0 {
		t.Fatalf("footprint components missing: %+v", f)
	}
}

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, _ := newTestHead(t, w)
	ls := labels.FromStrings("metric", "cpu", "host", "h1")
	id, err := h.Append(ls, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.AppendFast(id, 200, 2)
	gTags := labels.FromStrings("hostname", "host_0")
	gid, slots, err := h.AppendGroup(gTags, []labels.Labels{labels.FromStrings("m", "a")}, 150, []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	h.AppendGroupFast(gid, slots, 250, []float64{8})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	h.Close()

	// Recover into a fresh head.
	w2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	h2, _ := newTestHead(t, w2)
	if err := h2.Recover(); err != nil {
		t.Fatal(err)
	}
	if h2.NumSeries() != 1 || h2.NumGroups() != 1 {
		t.Fatalf("recovered %d series, %d groups", h2.NumSeries(), h2.NumGroups())
	}
	got, err := h2.HeadSamples(id, 0, 1000)
	if err != nil || len(got) != 2 || got[1] != (chunkenc.Sample{T: 200, V: 2}) {
		t.Fatalf("recovered samples = %v, %v", got, err)
	}
	gs, err := h2.HeadGroupSamples(gid, 0, 1000)
	if err != nil || len(gs[0]) != 2 {
		t.Fatalf("recovered group samples = %v, %v", gs, err)
	}
	// Sequence continues from the recovered point: appending must not
	// reuse sequence numbers.
	if h2.HeadSeq(id) != 2 {
		t.Fatalf("recovered seq = %d", h2.HeadSeq(id))
	}
	if err := h2.AppendFast(id, 300, 3); err != nil {
		t.Fatal(err)
	}
	if h2.HeadSeq(id) != 3 {
		t.Fatalf("seq after recovered append = %d", h2.HeadSeq(id))
	}
	// New series get fresh IDs above the recovered ones.
	id2, err := h2.Append(labels.FromStrings("metric", "other"), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if id2 <= id {
		t.Fatalf("new id %d not above recovered %d", id2, id)
	}
}

// TestFailedCatalogLogInstallsNothing closes the WAL under a live head:
// every definition the head then tries to create fails to log, and none
// may be indexed or published, since recovery would never know it.
func TestFailedCatalogLogInstallsNothing(t *testing.T) {
	w, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, _ := newTestHead(t, w)
	gTags := labels.FromStrings("hostname", "host_0")
	if _, _, err := h.AppendGroup(gTags, []labels.Labels{labels.FromStrings("m", "a")}, 1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := h.Append(labels.FromStrings("metric", "cpu"), 1, 1); err == nil {
		t.Fatal("series created with a closed WAL")
	}
	if _, _, err := h.AppendGroup(labels.FromStrings("hostname", "host_1"), []labels.Labels{labels.FromStrings("m", "a")}, 1, []float64{1}); err == nil {
		t.Fatal("group created with a closed WAL")
	}
	if _, _, err := h.AppendGroup(gTags, []labels.Labels{labels.FromStrings("m", "b")}, 2, []float64{2}); err == nil {
		t.Fatal("member created with a closed WAL")
	}
	if h.NumSeries() != 0 || h.NumGroups() != 1 {
		t.Fatalf("%d series, %d groups after failed definitions", h.NumSeries(), h.NumGroups())
	}
	for _, m := range []*labels.Matcher{
		labels.MustEqual("metric", "cpu"),
		labels.MustEqual("hostname", "host_1"),
		labels.MustEqual("m", "b"),
	} {
		if got, err := h.Index().Select(m); err != nil || len(got) != 0 {
			t.Fatalf("index select %v = %v, %v: a failed definition left a posting", m, got, err)
		}
	}
}

func TestRecoverySkipsFlushedSamples(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, _ := newTestHead(t, w)
	id, err := h.Append(labels.FromStrings("m", "x"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		h.AppendFast(id, int64(i)*10, float64(i))
	}
	// Chunk flushed at 4 samples; simulate the LSM's flush callback.
	h.OnFlush([]wal.FlushMark{{ID: id, Seq: 4}})
	h.AppendFast(id, 100, 10) // one unflushed sample
	w.Close()
	h.Close()

	w2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	h2, sink2 := newTestHead(t, w2)
	if err := h2.Recover(); err != nil {
		t.Fatal(err)
	}
	// Only the unflushed sample must be re-ingested.
	got, err := h2.HeadSamples(id, 0, 1000)
	if err != nil || len(got) != 1 || got[0].T != 100 {
		t.Fatalf("recovered head samples = %v, %v", got, err)
	}
	if len(sink2.kvs) != 0 {
		t.Fatalf("recovery flushed %d chunks", len(sink2.kvs))
	}
}
