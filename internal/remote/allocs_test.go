//go:build !race

// The race detector makes sync.Pool drop items at random, so allocation
// counts mean nothing under it.

package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"timeunion/internal/cloud"
	"timeunion/internal/core"
	"timeunion/internal/labels"
)

// Allocations of one /api/v1/query_stream request over 5 and over 40
// series, measured when the pin was introduced. The handler writes each
// series from the engine's iterator into one pooled line buffer, so a
// per-series label map or []Sample coming back raises both.
const (
	maxQueryStream5Allocs  = 45
	maxQueryStream40Allocs = 151
)

// discardResponse is an http.ResponseWriter that counts lines and keeps no
// bytes.
type discardResponse struct {
	header http.Header
	lines  int
}

func (w *discardResponse) Header() http.Header { return w.header }
func (w *discardResponse) WriteHeader(int)     {}
func (w *discardResponse) Write(p []byte) (int, error) {
	w.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// streamFixture is a DB holding a 5-series and a 40-series metric of the
// same shape: three labels per series and 49 samples in the query range
// (the first written by the Append that creates the series), 41 of them
// flushed to tables and the newest 8 still in the head.
type streamFixture struct {
	db      *core.DB
	handler http.Handler
}

const streamFixtureSamples = 49

func newStreamFixture(tb testing.TB) *streamFixture {
	tb.Helper()
	db, err := core.Open(core.Options{
		Fast:              cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{}),
		Slow:              cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{}),
		CacheBytes:        1 << 30,
		ChunkSamples:      16,
		SlotsPerRegion:    256,
		MemTableSize:      64 << 10,
		L0PartitionLength: 1000,
		L2PartitionLength: 4000,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	var ids []uint64
	for _, m := range []struct {
		name string
		n    int
	}{{"m5", 5}, {"m40", 40}} {
		for h := 0; h < m.n; h++ {
			id, err := db.Append(labels.FromStrings("metric", m.name, "host", fmt.Sprintf("host_%d", h), "region", "eu-west-1"), 0, 0)
			if err != nil {
				tb.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	appendRounds := func(from, to int) {
		for r := from; r < to; r++ {
			for i, id := range ids {
				if err := db.AppendFast(id, int64(r)*10, float64(r*i)*0.25+0.1); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	appendRounds(1, 41)
	if err := db.Flush(); err != nil {
		tb.Fatal(err)
	}
	appendRounds(41, streamFixtureSamples)
	return &streamFixture{db: db, handler: NewServer(&TimeUnionBackend{DB: db})}
}

func streamQueryBody(metric string) []byte {
	body, _ := json.Marshal(QueryRequest{MinT: 0, MaxT: 1 << 20, Matchers: []MatcherSpec{{Type: "=", Name: "metric", Value: metric}}})
	return body
}

// serve runs one query_stream request through the handler.
func (f *streamFixture) serve(w *discardResponse, body []byte) {
	req, _ := http.NewRequest(http.MethodPost, "/api/v1/query_stream", bytes.NewReader(body))
	w.lines = 0
	f.handler.ServeHTTP(w, req)
}

// drainSet runs the same query on the engine's QuerySeriesSet, draining
// every iterator: the read path's own allocations, without HTTP or JSON.
func (f *streamFixture) drainSet(tb testing.TB, metric string) {
	set, err := f.db.QuerySeriesSet(context.Background(), 0, 1<<20, labels.MustEqual("metric", metric))
	if err != nil {
		tb.Fatal(err)
	}
	for set.Next() {
		it := set.At().Iterator
		for it.Next() {
		}
	}
	if err := set.Err(); err != nil {
		tb.Fatal(err)
	}
}

// TestQueryStreamAllocs pins the allocations of the query_stream handler on
// a 5-series and a 40-series query, and holds its per-series growth to the
// engine's: 35 more series may cost no more allocations than QuerySeriesSet
// itself spends on them.
func TestQueryStreamAllocs(t *testing.T) {
	f := newStreamFixture(t)
	w := &discardResponse{header: http.Header{}}
	counts := map[string]float64{}
	for _, q := range []struct {
		metric string
		series int
	}{{"m5", 5}, {"m40", 40}} {
		body := streamQueryBody(q.metric)
		f.serve(w, body) // warm the pools
		if w.lines != q.series {
			t.Fatalf("%s: %d lines, want %d", q.metric, w.lines, q.series)
		}
		counts[q.metric] = testing.AllocsPerRun(50, func() { f.serve(w, body) })
		f.drainSet(t, q.metric)
		counts["set_"+q.metric] = testing.AllocsPerRun(50, func() { f.drainSet(t, q.metric) })
	}
	t.Logf("query_stream: %.0f allocs over 5 series, %.0f over 40; QuerySeriesSet: %.0f and %.0f",
		counts["m5"], counts["m40"], counts["set_m5"], counts["set_m40"])
	if counts["m5"] > maxQueryStream5Allocs || counts["m40"] > maxQueryStream40Allocs {
		t.Fatalf("query_stream allocates %.0f (5 series) and %.0f (40 series) times, want <= %d and %d",
			counts["m5"], counts["m40"], maxQueryStream5Allocs, maxQueryStream40Allocs)
	}
	if grow, engine := counts["m40"]-counts["m5"], counts["set_m40"]-counts["set_m5"]; grow > engine {
		t.Fatalf("35 more series cost the handler %.0f allocations, the engine only %.0f", grow, engine)
	}
}

// BenchmarkQueryStream measures one 40-series query_stream request through
// the handler, from request decode to the last line written.
func BenchmarkQueryStream(b *testing.B) {
	f := newStreamFixture(b)
	w := &discardResponse{header: http.Header{}}
	body := streamQueryBody("m40")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.serve(w, body)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*40*streamFixtureSamples), "ns/sample")
}

// Allocations of one write request through the handler, measured when the
// pin was introduced: a 1,010-sample write_fast body and a 10-round x
// 101-slot write_group body. Decoding with encoding/json into a []Sample per
// entry and a []float64 per row took 1,045 and 126 on the same fixture.
const (
	maxWriteFastAllocs  = 2
	maxWriteGroupAllocs = 12
)

// writeFixture is a WAL-on DB whose head never cuts a chunk during the
// measured requests, so the count is the handler's, not a flush's.
func newWriteFixture(tb testing.TB) (http.Handler, *core.DB) {
	tb.Helper()
	db, err := core.Open(core.Options{
		Dir:               tb.TempDir(),
		Fast:              cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{}),
		Slow:              cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{}),
		ChunkSamples:      512,
		SlotsPerRegion:    256,
		MemTableSize:      1 << 30,
		L0PartitionLength: 1 << 40,
		L2PartitionLength: 1 << 41,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	return NewServer(&TimeUnionBackend{DB: db}), db
}

// measureWrites reports the allocations of one request to path, each run
// sending the next of the bodies body(1), body(2), … built beforehand.
func measureWrites(t *testing.T, h http.Handler, path string, runs int, body func(r int) []byte) float64 {
	t.Helper()
	reqs := make([]*http.Request, runs+2)
	for i := range reqs {
		reqs[i], _ = http.NewRequest(http.MethodPost, path, bytes.NewReader(body(i+1)))
	}
	w := &discardResponse{header: http.Header{}}
	n := 0
	serve := func() {
		h.ServeHTTP(w, reqs[n])
		n++
	}
	serve() // warm the pools
	allocs := testing.AllocsPerRun(runs, serve)
	if w.lines != runs+2 {
		t.Fatalf("%s: %d reply lines for %d requests", path, w.lines, runs+2)
	}
	return allocs
}

// TestWriteFastAllocs pins the allocations of one 1,010-sample write_fast
// request (101 hosts x 10 series, one sample each: the ingest benchmark's
// shape).
func TestWriteFastAllocs(t *testing.T) {
	h, db := newWriteFixture(t)
	ids := make([]uint64, 1010)
	for i := range ids {
		var err error
		if ids[i], err = db.Append(labels.FromStrings("host", fmt.Sprint(i%101), "s", fmt.Sprint(i/101)), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	allocs := measureWrites(t, h, "/api/v1/write_fast", 20, func(r int) []byte {
		req := FastWriteRequest{Entries: make([]FastWriteEntry, len(ids))}
		for j, id := range ids {
			req.Entries[j] = FastWriteEntry{ID: id, Samples: []Sample{{T: int64(r) * 10, V: float64(j) * 0.5}}}
		}
		body, _ := json.Marshal(req)
		return body
	})
	t.Logf("write_fast: %.0f allocs per 1,010-sample request", allocs)
	if allocs > maxWriteFastAllocs {
		t.Fatalf("write_fast allocates %.0f times per request, want <= %d", allocs, maxWriteFastAllocs)
	}
}

// TestWriteGroupAllocs pins the allocations of one write_group request by
// gid: 10 rounds of a 101-member group (the mixed benchmark's shape).
func TestWriteGroupAllocs(t *testing.T) {
	h, db := newWriteFixture(t)
	gid, slots := newBenchGroup(t, db)
	allocs := measureWrites(t, h, "/api/v1/write_group", 10, func(r int) []byte {
		return groupWriteBody(gid, slots, r)
	})
	t.Logf("write_group: %.0f allocs per 10-round x 101-slot request", allocs)
	if allocs > maxWriteGroupAllocs {
		t.Fatalf("write_group allocates %.0f times per request, want <= %d", allocs, maxWriteGroupAllocs)
	}
}
