package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"timeunion/internal/cloud"
	"timeunion/internal/core"
	"timeunion/internal/labels"
	"timeunion/internal/tsdb"
)

func newTUServer(t *testing.T) (*Client, *core.DB) {
	t.Helper()
	db, err := core.Open(core.Options{
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
	srv := httptest.NewServer(NewServer(&TimeUnionBackend{DB: db}))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL), db
}

func TestWriteAndQueryOverHTTP(t *testing.T) {
	client, _ := newTUServer(t)
	resp, err := client.Write(WriteRequest{Timeseries: []WriteSeries{
		{
			Labels:  map[string]string{"measurement": "cpu", "field": "usage_user", "hostname": "host_0"},
			Samples: []Sample{{T: 100, V: 1}, {T: 200, V: 2}},
		},
		{
			Labels:  map[string]string{"measurement": "cpu", "field": "usage_idle", "hostname": "host_0"},
			Samples: []Sample{{T: 100, V: 9}},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.IDs) != 2 || resp.IDs[0] == 0 {
		t.Fatalf("write ids = %v", resp.IDs)
	}

	// Fast path continues the same series.
	if err := client.WriteFast(FastWriteRequest{Entries: []FastWriteEntry{
		{ID: resp.IDs[0], Samples: []Sample{{T: 300, V: 3}}},
	}}); err != nil {
		t.Fatal(err)
	}

	q, err := client.Query(QueryRequest{
		MinT: 0, MaxT: 1000,
		Matchers: []MatcherSpec{
			{Type: "=", Name: "measurement", Value: "cpu"},
			{Type: "=", Name: "field", Value: "usage_user"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Series) != 1 || len(q.Series[0].Samples) != 3 {
		t.Fatalf("query = %+v", q)
	}
	if q.Series[0].Samples[2].V != 3 {
		t.Fatalf("fast-path sample lost: %+v", q.Series[0].Samples)
	}
}

func TestGroupWriteOverHTTP(t *testing.T) {
	client, _ := newTUServer(t)
	resp, err := client.WriteGroup(GroupWriteRequest{
		GroupTags: map[string]string{"hostname": "host_0"},
		UniqueTags: []map[string]string{
			{"measurement": "cpu", "field": "usage_user"},
			{"measurement": "cpu", "field": "usage_idle"},
		},
		Times:  []int64{100, 200},
		Values: [][]float64{{1, 2}, {3, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.GID == 0 || len(resp.Slots) != 2 {
		t.Fatalf("group resp = %+v", resp)
	}
	// Fast path round.
	if _, err := client.WriteGroup(GroupWriteRequest{
		GID: resp.GID, Slots: resp.Slots,
		Times:  []int64{300},
		Values: [][]float64{{5, 6}},
	}); err != nil {
		t.Fatal(err)
	}
	q, err := client.Query(QueryRequest{
		MinT: 0, MaxT: 1000,
		Matchers: []MatcherSpec{{Type: "=", Name: "field", Value: "usage_idle"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Series) != 1 || len(q.Series[0].Samples) != 3 {
		t.Fatalf("group query = %+v", q)
	}
	if q.Series[0].Labels["hostname"] != "host_0" {
		t.Fatalf("member labels missing group tags: %v", q.Series[0].Labels)
	}
}

func TestQueryStreamOverHTTP(t *testing.T) {
	client, _ := newTUServer(t)
	if _, err := client.Write(WriteRequest{Timeseries: []WriteSeries{
		{
			Labels:  map[string]string{"measurement": "cpu", "field": "usage_user", "hostname": "host_0"},
			Samples: []Sample{{T: 100, V: 1}, {T: 200, V: 2}},
		},
		{
			Labels:  map[string]string{"measurement": "cpu", "field": "usage_idle", "hostname": "host_0"},
			Samples: []Sample{{T: 100, V: 9}},
		},
		{
			Labels:  map[string]string{"measurement": "mem", "field": "used", "hostname": "host_1"},
			Samples: []Sample{{T: 150, V: 5}},
		},
	}}); err != nil {
		t.Fatal(err)
	}

	q, err := client.Query(QueryRequest{
		MinT: 0, MaxT: 1000,
		Matchers: []MatcherSpec{{Type: "=", Name: "measurement", Value: "cpu"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	var streamed []QuerySeries
	if err := client.QueryStream(QueryRequest{
		MinT: 0, MaxT: 1000,
		Matchers: []MatcherSpec{{Type: "=", Name: "measurement", Value: "cpu"}},
	}, func(s QuerySeries) error {
		streamed = append(streamed, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// The stream must carry the same series as the materializing endpoint,
	// modulo ordering (streaming emits in evaluation order).
	if len(streamed) != len(q.Series) {
		t.Fatalf("streamed %d series, query returned %d", len(streamed), len(q.Series))
	}
	key := func(s QuerySeries) string { return s.Labels["field"] }
	sort.Slice(streamed, func(i, j int) bool { return key(streamed[i]) < key(streamed[j]) })
	sort.Slice(q.Series, func(i, j int) bool { return key(q.Series[i]) < key(q.Series[j]) })
	for i := range streamed {
		if len(streamed[i].Labels) != len(q.Series[i].Labels) ||
			key(streamed[i]) != key(q.Series[i]) {
			t.Fatalf("series %d labels differ: %v vs %v", i, streamed[i].Labels, q.Series[i].Labels)
		}
		if len(streamed[i].Samples) != len(q.Series[i].Samples) {
			t.Fatalf("series %d: %d samples vs %d", i, len(streamed[i].Samples), len(q.Series[i].Samples))
		}
		for j, s := range streamed[i].Samples {
			if s != q.Series[i].Samples[j] {
				t.Fatalf("series %d sample %d: %+v vs %+v", i, j, s, q.Series[i].Samples[j])
			}
		}
	}

	// Raw NDJSON shape: each line is one standalone JSON series object.
	body, _ := json.Marshal(QueryRequest{
		MinT: 0, MaxT: 1000,
		Matchers: []MatcherSpec{{Type: "=", Name: "measurement", Value: "cpu"}},
	})
	resp, err := http.Post(client.BaseURL+"/api/v1/query_stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 NDJSON lines, got %d: %q", len(lines), raw)
	}
	for _, line := range lines {
		var s QuerySeries
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if len(s.Labels) == 0 || len(s.Samples) == 0 {
			t.Fatalf("line %q decoded empty", line)
		}
	}
}

// TestNonFiniteSampleIsAnError: encoding/json refuses NaN and ±Inf, so a
// query reaching such a sample must fail on both endpoints rather than end
// early with the remaining series silently missing.
func TestNonFiniteSampleIsAnError(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		client, db := newTUServer(t)
		for i, x := range []float64{1, v, 2} {
			if _, err := db.Append(labels.FromStrings("metric", "cpu", "host", fmt.Sprintf("h%d", i)), 10, x); err != nil {
				t.Fatal(err)
			}
		}
		req := QueryRequest{MinT: 0, MaxT: 100, Matchers: []MatcherSpec{{Type: "=", Name: "metric", Value: "cpu"}}}
		n := 0
		err := client.QueryStream(req, func(QuerySeries) error { n++; return nil })
		if err == nil {
			t.Fatalf("%v: QueryStream returned %d series and no error", v, n)
		}
		if _, err := client.Query(req); err == nil || !strings.Contains(err.Error(), "500") {
			t.Fatalf("%v: Query error = %v, want a 500", v, err)
		}
	}

	// Mid-series: the NaN is the second sample of the second series. The
	// stream carries the first series whole, then the error line, and no
	// part of the second series; the materializing endpoint writes no body
	// before its 500.
	client, db := newTUServer(t)
	for i, vals := range [][]float64{{1, 2}, {3, math.NaN()}, {5, 6}} {
		for j, x := range vals {
			if _, err := db.Append(labels.FromStrings("metric", "cpu", "host", fmt.Sprintf("h%d", i)), int64(10*(j+1)), x); err != nil {
				t.Fatal(err)
			}
		}
	}
	body, _ := json.Marshal(QueryRequest{MinT: 0, MaxT: 100, Matchers: []MatcherSpec{{Type: "=", Name: "metric", Value: "cpu"}}})
	post := func(path string) (int, string) {
		resp, err := http.Post(client.BaseURL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(raw)
	}
	status, raw := post("/api/v1/query_stream")
	want := `{"labels":{"host":"h0","metric":"cpu"},"samples":[{"t":10,"v":1},{"t":20,"v":2}]}` + "\n" +
		`{"error":"json: unsupported value: NaN"}` + "\n"
	if status != http.StatusOK || raw != want {
		t.Fatalf("query_stream = %d %q, want 200 %q", status, raw, want)
	}
	status, raw = post("/api/v1/query")
	if want := "json: unsupported value: NaN\n"; status != http.StatusInternalServerError || raw != want {
		t.Fatalf("query = %d %q, want 500 %q", status, raw, want)
	}
}

func TestRegexMatcherOverHTTP(t *testing.T) {
	client, _ := newTUServer(t)
	if _, err := client.Write(WriteRequest{Timeseries: []WriteSeries{
		{Labels: map[string]string{"metric": "disk"}, Samples: []Sample{{T: 1, V: 1}}},
		{Labels: map[string]string{"metric": "diskio"}, Samples: []Sample{{T: 1, V: 1}}},
		{Labels: map[string]string{"metric": "cpu"}, Samples: []Sample{{T: 1, V: 1}}},
	}}); err != nil {
		t.Fatal(err)
	}
	q, err := client.Query(QueryRequest{
		MinT: 0, MaxT: 10,
		Matchers: []MatcherSpec{{Type: "=~", Name: "metric", Value: "disk.*"}},
	})
	if err != nil || len(q.Series) != 2 {
		t.Fatalf("regex query = %d series, %v", len(q.Series), err)
	}
}

func TestBadRequests(t *testing.T) {
	client, _ := newTUServer(t)
	if err := client.WriteFast(FastWriteRequest{Entries: []FastWriteEntry{
		{ID: 999999, Samples: []Sample{{T: 1, V: 1}}},
	}}); err == nil {
		t.Fatal("unknown id accepted")
	}
	if _, err := client.Query(QueryRequest{
		Matchers: []MatcherSpec{{Type: "??", Name: "a", Value: "b"}},
	}); err == nil {
		t.Fatal("bad matcher type accepted")
	}
}

func TestCortexSim(t *testing.T) {
	store := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
	engine, err := tsdb.Open(tsdb.Options{Store: store, BlockSpan: 2000, ChunkSamples: 12})
	if err != nil {
		t.Fatal(err)
	}
	sim := &CortexSim{DB: engine, HopLatency: time.Microsecond}
	srv := httptest.NewServer(NewServer(sim))
	defer srv.Close()
	client := NewClient(srv.URL)

	resp, err := client.Write(WriteRequest{Timeseries: []WriteSeries{
		{Labels: map[string]string{"metric": "cpu", "host": "h1"}, Samples: []Sample{{T: 100, V: 1}, {T: 200, V: 2}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.IDs) != 1 {
		t.Fatalf("ids = %v", resp.IDs)
	}
	q, err := client.Query(QueryRequest{
		MinT: 0, MaxT: 1000,
		Matchers: []MatcherSpec{{Type: "=", Name: "metric", Value: "cpu"}},
	})
	if err != nil || len(q.Series) != 1 || len(q.Series[0].Samples) != 2 {
		t.Fatalf("cortex query = %+v, %v", q, err)
	}
	if sim.Hops() == 0 {
		t.Fatal("no hops simulated")
	}
	// Group writes degrade to individual series (no group model).
	if _, err := client.WriteGroup(GroupWriteRequest{
		GroupTags:  map[string]string{"host": "h2"},
		UniqueTags: []map[string]string{{"metric": "mem"}},
		Times:      []int64{100},
		Values:     [][]float64{{5}},
	}); err != nil {
		t.Fatal(err)
	}
	q, err = client.Query(QueryRequest{
		MinT: 0, MaxT: 1000,
		Matchers: []MatcherSpec{{Type: "=", Name: "metric", Value: "mem"}},
	})
	if err != nil || len(q.Series) != 1 {
		t.Fatalf("cortex group write = %+v, %v", q, err)
	}
	if q.Series[0].Labels["host"] != "h2" {
		t.Fatalf("merged labels = %v", q.Series[0].Labels)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	client, _ := newTUServer(t)
	resp, err := client.HTTP.Get(client.BaseURL + "/api/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}
}

func TestMalformedJSON(t *testing.T) {
	client, _ := newTUServer(t)
	resp, err := client.HTTP.Post(client.BaseURL+"/api/v1/write", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad JSON status = %d, want 400", resp.StatusCode)
	}
}

func TestGroupTimesValuesMismatch(t *testing.T) {
	client, _ := newTUServer(t)
	if _, err := client.WriteGroup(GroupWriteRequest{
		GroupTags:  map[string]string{"a": "b"},
		UniqueTags: []map[string]string{{"m": "x"}},
		Times:      []int64{1, 2},
		Values:     [][]float64{{1}},
	}); err == nil {
		t.Fatal("mismatched times/values accepted")
	}
}
