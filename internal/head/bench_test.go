package head

import (
	"fmt"
	"testing"

	"timeunion/internal/encoding"
	"timeunion/internal/labels"
	"timeunion/internal/wal"
)

// walModes names the two configurations the append benchmarks run in:
// without a WAL, and with one in the benchmark's temporary directory, as
// a durable deployment runs.
var walModes = []string{"nowal", "wal"}

// newBenchHead returns a head whose flushed chunks go nowhere, logging to a
// WAL in b.TempDir() when mode is "wal".
func newBenchHead(b testing.TB, mode string) *Head {
	b.Helper()
	opts := Options{Sink: func(encoding.Key, []byte) error { return nil }}
	if mode == "wal" {
		w, err := wal.Open(b.TempDir(), wal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { w.Close() })
		opts.WAL = w
	}
	h, err := New(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { h.Close() })
	return h
}

func benchHead(b *testing.B, mode string) (*Head, []uint64) {
	b.Helper()
	h := newBenchHead(b, mode)
	var err error
	ids := make([]uint64, 1000)
	for i := range ids {
		ids[i], err = h.Append(labels.FromStrings(
			"measurement", "cpu", "field", fmt.Sprintf("f%d", i%10),
			"hostname", fmt.Sprintf("host_%d", i/10)), 0, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	return h, ids
}

// BenchmarkAppendFast measures the §3.4 fast-path insert, without and with
// a WAL.
func BenchmarkAppendFast(b *testing.B) {
	for _, mode := range walModes {
		b.Run(mode, func(b *testing.B) {
			h, ids := benchHead(b, mode)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := h.AppendFast(ids[i%len(ids)], int64(i+1)*10, float64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendSlow measures the §3.4 slow-path insert (tag comparison on
// every call).
func BenchmarkAppendSlow(b *testing.B) {
	h, _ := benchHead(b, "nowal")
	ls := labels.FromStrings("measurement", "cpu", "field", "f1", "hostname", "host_1")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Append(ls, int64(i+1)*10, float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendGroupFast measures one 101-member group round, without
// and with a WAL.
func BenchmarkAppendGroupFast(b *testing.B) {
	for _, mode := range walModes {
		b.Run(mode, func(b *testing.B) {
			h, gid, slots, vals := benchGroup(b, mode)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := h.AppendGroupFast(gid, slots, int64(i+1)*10, vals); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchGroup returns a head holding one 101-member group, its ID and
// member slots, and a round's values.
func benchGroup(tb testing.TB, mode string) (*Head, uint64, []int, []float64) {
	h := newBenchHead(tb, mode)
	uniques := make([]labels.Labels, 101)
	vals := make([]float64, 101)
	for i := range uniques {
		uniques[i] = labels.FromStrings("field", fmt.Sprintf("f%d", i))
	}
	gid, slots, err := h.AppendGroup(labels.FromStrings("hostname", "host_0"), uniques, 0, vals)
	if err != nil {
		tb.Fatal(err)
	}
	return h, gid, slots, vals
}

// TestAppendGroupFastWALAllocs pins that logging a group round allocates
// nothing: with the WAL on, AppendGroupFast allocates no more per round
// than with it off.
func TestAppendGroupFastWALAllocs(t *testing.T) {
	allocs := map[string]float64{}
	for _, mode := range walModes {
		h, gid, slots, vals := benchGroup(t, mode)
		ts := int64(0)
		allocs[mode] = testing.AllocsPerRun(200, func() {
			ts += 10
			if err := h.AppendGroupFast(gid, slots, ts, vals); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs["wal"] > allocs["nowal"] {
		t.Errorf("AppendGroupFast allocates %.0f per round with the WAL, %.0f without; logging a round should allocate nothing", allocs["wal"], allocs["nowal"])
	}
}
