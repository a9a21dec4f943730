//go:build !race

// The race detector makes sync.Pool drop items at random, so allocation
// counts mean nothing under it.

package core

import (
	"context"
	"testing"

	"timeunion/internal/cloud"
	"timeunion/internal/labels"
	"timeunion/internal/tsbs"
)

// maxQuerySeriesSetAllocs is the allocation count of the query below,
// measured when the pin was introduced; it is exact and stable across runs.
// The pooled streaming path (DESIGN.md §4.10) reuses query scratch, merge
// iterators and decode buffers, so a change that stops reusing any of them
// raises the count above this bound.
const maxQuerySeriesSetAllocs = 510

// TestQuerySeriesSetAllocs pins the allocations of one narrow-range
// streaming query over all 101 series of one TSBS host, reaching both
// flushed chunks and open head chunks, including a full drain of every
// entry's iterator. Samples are counted, not copied, so the figure is the
// read path's own.
func TestQuerySeriesSetAllocs(t *testing.T) {
	const hourMs = 6_000
	db := openTestDB(t, Options{
		Fast:              cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{}),
		Slow:              cloud.NewMemStore(cloud.TierObject, cloud.LatencyModel{}),
		CacheBytes:        1 << 30,
		ChunkSamples:      32,
		SlotsPerRegion:    2048,
		SlotSize:          512,
		MemTableSize:      256 << 10,
		L0PartitionLength: hourMs / 2,
		L2PartitionLength: hourMs * 2,
		BlockSize:         4096,
	})
	hosts := tsbs.Hosts(2, 2022)
	ids := make([][]uint64, len(hosts))
	for hi, h := range hosts {
		ids[hi] = make([]uint64, tsbs.SeriesPerHost)
		for si := range ids[hi] {
			id, err := db.Append(h.SeriesLabels(si), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			ids[hi][si] = id
		}
	}
	const interval = hourMs / 120
	gen := tsbs.NewGenerator(hosts, interval, interval, 2029)
	appendRounds := func(n int) int64 {
		var last int64
		for r := 0; r < n; r++ {
			ts, vals := gen.Round()
			for hi := range vals {
				for si, v := range vals[hi] {
					if err := db.AppendFast(ids[hi][si], ts, v); err != nil {
						t.Fatal(err)
					}
				}
			}
			last = ts
		}
		return last
	}
	flushedT := appendRounds(6 * 120) // six logical hours
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Fewer rounds than a chunk holds: every series keeps an open head chunk.
	maxt := appendRounds(10)

	mint := flushedT - 20*interval
	sel := labels.MustEqual("hostname", hosts[0].Hostname())
	wantSamples := tsbs.SeriesPerHost * 31 // 21 flushed + 10 head rounds
	query := func() {
		set, err := db.QuerySeriesSet(context.Background(), mint, maxt, sel)
		if err != nil {
			t.Fatal(err)
		}
		series, samples := 0, 0
		for set.Next() {
			it := set.At().Iterator
			for it.Next() {
				samples++
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			series++
		}
		if err := set.Err(); err != nil {
			t.Fatal(err)
		}
		if series != tsbs.SeriesPerHost || samples != wantSamples {
			t.Fatalf("query returned %d series, %d samples; want %d, %d", series, samples, tsbs.SeriesPerHost, wantSamples)
		}
	}
	query() // warm the pools

	allocs := testing.AllocsPerRun(20, query)
	t.Logf("QuerySeriesSet + drain: %.0f allocs/op over %d series", allocs, tsbs.SeriesPerHost)
	if allocs > maxQuerySeriesSetAllocs {
		t.Fatalf("QuerySeriesSet + drain allocates %.0f times, want <= %d", allocs, maxQuerySeriesSetAllocs)
	}
}
