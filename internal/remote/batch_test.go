package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"timeunion/internal/cloud"
	"timeunion/internal/core"
	"timeunion/internal/labels"
)

// newWALServer is newTUServer with the WAL on.
func newWALServer(t testing.TB) (http.Handler, *core.DB) {
	t.Helper()
	db, err := core.Open(core.Options{
		Dir:               t.TempDir(),
		Fast:              cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{}),
		Slow:              cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{}),
		ChunkSamples:      8,
		SlotsPerRegion:    256,
		MemTableSize:      8 << 10,
		L0PartitionLength: 1000,
		L2PartitionLength: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return NewServer(&TimeUnionBackend{DB: db}), db
}

func post(t testing.TB, h http.Handler, path string, req any) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

func sampleCount(t *testing.T, db *core.DB, name, value string) int {
	t.Helper()
	res, err := db.Query(0, 1<<40, labels.MustEqual(name, value))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range res {
		n += len(s.Samples)
	}
	return n
}

// TestFastWritesAreAllOrNothing: a write_fast or fast write_group request
// whose last item is invalid returns the error and applies nothing.
func TestFastWritesAreAllOrNothing(t *testing.T) {
	h, db := newWALServer(t)
	id, err := db.Append(labels.FromStrings("m", "s"), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	gid, slots, err := db.AppendGroup(labels.FromStrings("host", "h"), []labels.Labels{labels.FromStrings("f", "x")}, 1, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	requests := []struct {
		name, path string
		req        any
	}{
		{"write_fast unknown id", "/api/v1/write_fast", FastWriteRequest{Entries: []FastWriteEntry{
			{ID: id, Samples: []Sample{{T: 2, V: 2}, {T: 3, V: 3}}},
			{ID: id + 100, Samples: []Sample{{T: 2, V: 2}}},
		}}},
		{"write_group slot out of range", "/api/v1/write_group", GroupWriteRequest{
			GID: gid, Slots: []int{slots[0], 1}, Times: []int64{2, 3}, Values: [][]float64{{2, 2}, {3, 3}},
		}},
		{"write_group short row", "/api/v1/write_group", GroupWriteRequest{
			GID: gid, Slots: slots, Times: []int64{2, 3}, Values: [][]float64{{2}, {}},
		}},
		{"write_group unknown gid", "/api/v1/write_group", GroupWriteRequest{
			GID: gid + 100, Slots: slots, Times: []int64{2}, Values: [][]float64{{2}},
		}},
	}
	walBytes := func() float64 { return db.Metrics().Snapshot()["timeunion_wal_size_bytes"] }
	for _, r := range requests {
		walBefore := walBytes()
		if rec := post(t, h, r.path, r.req); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", r.name, rec.Code, rec.Body.String())
		}
		if n := sampleCount(t, db, "m", "s"); n != 1 {
			t.Fatalf("%s: series holds %d samples, want the 1 written before", r.name, n)
		}
		if n := sampleCount(t, db, "host", "h"); n != 1 {
			t.Fatalf("%s: group holds %d samples, want the 1 written before", r.name, n)
		}
		if db.Head().HeadSeq(id) != 1 || db.Head().HeadSeq(gid) != 1 {
			t.Fatalf("%s: sequences advanced to %d, %d", r.name, db.Head().HeadSeq(id), db.Head().HeadSeq(gid))
		}
		if after := walBytes(); after != walBefore {
			t.Fatalf("%s: WAL grew %v -> %v bytes", r.name, walBefore, after)
		}
	}

	// The same requests made valid are applied whole.
	if rec := post(t, h, "/api/v1/write_fast", FastWriteRequest{Entries: []FastWriteEntry{
		{ID: id, Samples: []Sample{{T: 2, V: 2}, {T: 3, V: 3}}},
	}}); rec.Code != http.StatusOK {
		t.Fatalf("valid write_fast: %d %s", rec.Code, rec.Body.String())
	}
	if rec := post(t, h, "/api/v1/write_group", GroupWriteRequest{
		GID: gid, Slots: slots, Times: []int64{2, 3}, Values: [][]float64{{2}, {3}},
	}); rec.Code != http.StatusOK {
		t.Fatalf("valid write_group: %d %s", rec.Code, rec.Body.String())
	}
	if s, g := sampleCount(t, db, "m", "s"), sampleCount(t, db, "host", "h"); s != 3 || g != 3 {
		t.Fatalf("after valid requests: series %d, group %d samples, want 3 and 3", s, g)
	}
}

// BenchmarkWriteFast sends one 1,010-sample write_fast body (101 hosts x
// 10 series, one sample each, the ingest benchmark's shape) through
// NewServer with the WAL on.
func BenchmarkWriteFast(b *testing.B) {
	const series = 1010
	h, db := newWALServer(b)
	ids := make([]uint64, series)
	for i := range ids {
		var err error
		if ids[i], err = db.Append(labels.FromStrings("host", fmt.Sprint(i%101), "s", fmt.Sprint(i/101)), 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	req := FastWriteRequest{Entries: make([]FastWriteEntry, series)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, id := range ids {
			req.Entries[j] = FastWriteEntry{ID: id, Samples: []Sample{{T: int64(i+1) * 10, V: float64(j)}}}
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, "/api/v1/write_fast", bytes.NewReader(body))
		b.StartTimer()
		h.ServeHTTP(rec, hr)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*series), "ns/sample")
}

// newBenchGroup creates one group of 101 members, a host's series.
func newBenchGroup(tb testing.TB, db *core.DB) (uint64, []int) {
	tb.Helper()
	members := make([]labels.Labels, 101)
	for i := range members {
		members[i] = labels.FromStrings("s", fmt.Sprint(i))
	}
	gid, slots, err := db.AppendGroup(labels.FromStrings("host", "h"), members, 0, make([]float64, len(members)))
	if err != nil {
		tb.Fatal(err)
	}
	return gid, slots
}

// groupWriteBody is the r-th 10-round write_group body for the group.
func groupWriteBody(gid uint64, slots []int, r int) []byte {
	req := GroupWriteRequest{GID: gid, Slots: slots, Times: make([]int64, 10), Values: make([][]float64, 10)}
	for i := range req.Times {
		req.Times[i] = int64(r*10+i) * 10
		req.Values[i] = make([]float64, len(slots))
		for j := range slots {
			req.Values[i][j] = float64(r+i+j) * 0.25
		}
	}
	body, _ := json.Marshal(req)
	return body
}

// BenchmarkWriteGroup sends one write_group body by gid, 10 rounds of a
// 101-member group (the mixed benchmark's shape), through NewServer with
// the WAL on.
func BenchmarkWriteGroup(b *testing.B) {
	h, db := newWALServer(b)
	gid, slots := newBenchGroup(b, db)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, "/api/v1/write_group", bytes.NewReader(groupWriteBody(gid, slots, i+1)))
		b.StartTimer()
		h.ServeHTTP(rec, hr)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*10*len(slots)), "ns/sample")
}
