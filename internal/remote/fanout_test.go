package remote

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"timeunion/internal/cloud"
	"timeunion/internal/core"
	"timeunion/internal/labels"
)

// newReplicaPair opens a writer and a replica on shared in-memory tiers
// and serves the replica over HTTP.
func newReplicaPair(t *testing.T) (*core.DB, *core.DB, *Client) {
	t.Helper()
	fast := cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})
	slow := cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{})
	db, err := core.Open(core.Options{
		Fast:              fast,
		Slow:              slow,
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
	rep, err := core.OpenReplica(core.Options{
		Fast:                   fast,
		Slow:                   slow,
		ReplicaRefreshInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	srv := httptest.NewServer(NewServer(&TimeUnionBackend{DB: rep}))
	t.Cleanup(srv.Close)
	return db, rep, NewClient(srv.URL)
}

// TestReplicaMutationsForbiddenOverHTTP: every write endpoint against a
// replica-backed server must come back 403 Forbidden (a routing mistake,
// not a server fault), while queries keep working.
func TestReplicaMutationsForbiddenOverHTTP(t *testing.T) {
	db, rep, client := newReplicaPair(t)
	id, err := db.Append(labels.FromStrings("m", "x"), 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Refresh(); err != nil {
		t.Fatal(err)
	}

	mutations := []struct {
		name string
		call func() error
	}{
		{"write", func() error {
			_, err := client.Write(WriteRequest{Timeseries: []WriteSeries{
				{Labels: map[string]string{"m": "y"}, Samples: []Sample{{T: 1, V: 1}}},
			}})
			return err
		}},
		{"write_fast", func() error {
			return client.WriteFast(FastWriteRequest{Entries: []FastWriteEntry{
				{ID: id, Samples: []Sample{{T: 200, V: 8}}},
			}})
		}},
		{"write_group", func() error {
			_, err := client.WriteGroup(GroupWriteRequest{
				GroupTags:  map[string]string{"g": "G"},
				UniqueTags: []map[string]string{{"s": "0"}},
				Times:      []int64{1},
				Values:     [][]float64{{1}},
			})
			return err
		}},
		{"write_group by gid", func() error {
			_, err := client.WriteGroup(GroupWriteRequest{
				GID: 1<<63 | 1, Slots: []int{0},
				Times:  []int64{1},
				Values: [][]float64{{1}},
			})
			return err
		}},
	}
	for _, m := range mutations {
		err := m.call()
		if err == nil {
			t.Fatalf("%s against a replica succeeded", m.name)
		}
		if !strings.Contains(err.Error(), "403") {
			t.Errorf("%s against a replica: %v, want a 403", m.name, err)
		}
	}

	q, err := client.Query(QueryRequest{
		MinT: 0, MaxT: 1000,
		Matchers: []MatcherSpec{{Type: "=", Name: "m", Value: "x"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Series) != 1 || len(q.Series[0].Samples) != 1 || q.Series[0].Samples[0].V != 7 {
		t.Fatalf("replica query after rejected writes: %+v", q)
	}
}

// countingBackend wraps a Backend and counts queries, for observing the
// fan-out's rotation.
type countingBackend struct {
	Backend
	queries atomic.Int64
}

func (c *countingBackend) Query(mint, maxt int64, matchers ...*labels.Matcher) ([]QuerySeries, error) {
	c.queries.Add(1)
	return c.Backend.Query(mint, maxt, matchers...)
}

func TestFanoutRoundRobin(t *testing.T) {
	_, db := newTUServer(t)
	if _, err := db.Append(labels.FromStrings("m", "rr"), 100, 1); err != nil {
		t.Fatal(err)
	}

	backends := make([]*countingBackend, 3)
	clients := make([]*Client, 3)
	for i := range backends {
		backends[i] = &countingBackend{Backend: &TimeUnionBackend{DB: db}}
		srv := httptest.NewServer(NewServer(backends[i]))
		t.Cleanup(srv.Close)
		clients[i] = NewClient(srv.URL)
	}
	fan := NewFanout(clients...)

	const rounds = 9
	for i := 0; i < rounds; i++ {
		if _, err := fan.Query(QueryRequest{
			MinT: 0, MaxT: 1000,
			Matchers: []MatcherSpec{{Type: "=", Name: "m", Value: "rr"}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i, b := range backends {
		if got := b.queries.Load(); got != rounds/3 {
			t.Errorf("backend %d served %d queries, want %d (round robin)", i, got, rounds/3)
		}
	}
	if f := fan.Failovers(); f != 0 {
		t.Errorf("healthy fan-out recorded %d failovers", f)
	}
}

func TestFanoutFailover(t *testing.T) {
	healthy, db := newTUServer(t)
	if _, err := db.Append(labels.FromStrings("m", "fo"), 100, 1); err != nil {
		t.Fatal(err)
	}
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(dead.Close)

	fan := NewFanout(NewClient(dead.URL), healthy)
	req := QueryRequest{MinT: 0, MaxT: 1000,
		Matchers: []MatcherSpec{{Type: "=", Name: "m", Value: "fo"}}}
	for i := 0; i < 4; i++ {
		q, err := fan.Query(req)
		if err != nil {
			t.Fatalf("query %d with one dead replica: %v", i, err)
		}
		if len(q.Series) != 1 {
			t.Fatalf("query %d: %+v", i, q)
		}
		var streamed int
		if err := fan.QueryStream(req, func(QuerySeries) error { streamed++; return nil }); err != nil {
			t.Fatalf("stream %d with one dead replica: %v", i, err)
		}
		if streamed != 1 {
			t.Fatalf("stream %d delivered %d series", i, streamed)
		}
	}
	if fan.Failovers() == 0 {
		t.Error("no failovers recorded despite a dead replica")
	}

	// Every replica dead: the final error names the fleet size.
	allDead := NewFanout(NewClient(dead.URL), NewClient(dead.URL))
	if _, err := allDead.Query(req); err == nil || !strings.Contains(err.Error(), "all 2 replicas failed") {
		t.Errorf("all-dead fan-out error = %v", err)
	}
}

// midStreamBackend streams one series, then dies — the failure mode where
// retrying on another replica would duplicate the delivered series.
type midStreamBackend struct {
	Backend
}

type midStreamCursor struct{ sent bool }

func (c *midStreamCursor) Next() (QuerySeries, bool, error) {
	if c.sent {
		return QuerySeries{}, false, errors.New("backend lost mid-stream")
	}
	c.sent = true
	return QuerySeries{Labels: map[string]string{"m": "partial"},
		Samples: []Sample{{T: 1, V: 1}}}, true, nil
}

func (b *midStreamBackend) QueryStream(ctx context.Context, mint, maxt int64, matchers ...*labels.Matcher) (SeriesCursor, error) {
	return &midStreamCursor{}, nil
}

func TestFanoutNoRetryMidStream(t *testing.T) {
	flaky := httptest.NewServer(NewServer(&midStreamBackend{}))
	t.Cleanup(flaky.Close)
	healthy, db := newTUServer(t)
	if _, err := db.Append(labels.FromStrings("m", "ms"), 100, 1); err != nil {
		t.Fatal(err)
	}

	fan := NewFanout(NewClient(flaky.URL), healthy)
	var delivered int
	err := fan.QueryStream(QueryRequest{MinT: 0, MaxT: 1000,
		Matchers: []MatcherSpec{{Type: "=", Name: "m", Value: "ms"}}},
		func(QuerySeries) error { delivered++; return nil })
	if err == nil {
		t.Fatal("mid-stream failure was silently retried (risking duplicated series)")
	}
	if delivered != 1 {
		t.Fatalf("delivered %d series before the mid-stream failure, want 1", delivered)
	}
	if fan.Failovers() != 0 {
		t.Fatalf("mid-stream failure counted as a failover (%d)", fan.Failovers())
	}
}
