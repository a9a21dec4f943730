package remote

import (
	"net/http/httptest"
	"strings"
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
