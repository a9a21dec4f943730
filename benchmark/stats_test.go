package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {0.95, 10}, {1, 10}, {0.01, 1},
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The highest percentile reported is the one that still has tailSamples
// samples beyond it.
func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 0}, // p50 of 10 leaves 5 beyond
		{20, 0.5},
		{40, 0.75},
		{100, 0.9},   // p95 leaves 5
		{200, 0.95},  // p95 leaves 10, p99 leaves 2
		{999, 0.95},  // p99 leaves 9
		{1000, 0.99}, // p99 leaves 10
	} {
		if got := supported(c.n, 0.99); got != c.want {
			t.Errorf("supported(%d, 0.99) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := supported(1000, 0.95); got != 0.95 {
		t.Errorf("supported(1000, 0.95) = %v: a supported percentile must not be raised", got)
	}
}

// A sample too small for the percentile asked for reports the highest one
// it supports.
func TestTailFallsBackToSupportedPercentile(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := tail(s, 0.95); got != 90 {
		t.Errorf("p95 of 100 samples = %v, want the p90, 90: p95 leaves 5 beyond", got)
	}
	if got := tail(s, 0.5); got != 50 {
		t.Errorf("p50 of 100 samples = %v, want 50", got)
	}
	if got := tail(s[:10], 0.5); got != 1 {
		t.Errorf("10 samples support no percentile; got %v, want the smallest", got)
	}
}

// The open loop times a request from when it was due, not from when the
// connection got round to sending it, and reports how late it was sent.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	sent := due.Add(30 * time.Millisecond) // the connection was busy
	end := sent.Add(25 * time.Millisecond)
	s := openLoopSample(kindWrite, due, sent, end, false)
	if s.ms != 55 || s.lagMs != 30 {
		t.Errorf("latency %v ms, lag %v ms; want 55 and 30", s.ms, s.lagMs)
	}
	if !s.over || s.failed {
		t.Errorf("55 ms against the %v write limit: over=%v failed=%v, want over only", writeLimit, s.over, s.failed)
	}
	q := openLoopSample(kindQuery, due, sent, end, false)
	if q.over {
		t.Errorf("55 ms is inside the %v query limit", queryLimit)
	}
	if early := openLoopSample(kindWrite, due, due.Add(-time.Millisecond), due.Add(time.Millisecond), false); early.lagMs != 0 {
		t.Errorf("a request sent early has lag %v, want 0", early.lagMs)
	}
	if f := openLoopSample(kindQuery, due, due, due.Add(time.Millisecond), true); !f.over || !f.failed {
		t.Errorf("a failed request must count as over its limit")
	}
}

func TestSpanSelfTime(t *testing.T) {
	plain := func(start, end int64) span { return span{Start: start, End: end, Busy: end - start} }
	parent := plain(0, 100)
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{plain(10, 40)}, 70},
		{"disjoint children", []span{plain(10, 40), plain(50, 60)}, 60},
		{"overlapping children are covered once", []span{plain(10, 40), plain(30, 60)}, 50},
		{"nested children", []span{plain(10, 60), plain(20, 30)}, 50},
		{"a child is clipped to its parent", []span{plain(90, 150)}, 90},
		{"an aggregate child covers its busy time", []span{{Start: 0, End: 100, Busy: 25, Calls: 1000}}, 75},
		{"aggregate and plain together", []span{{Start: 0, End: 100, Busy: 25}, plain(50, 60)}, 65},
		{"children cannot cover more than the parent", []span{{Start: 0, End: 100, Busy: 80}, {Start: 0, End: 100, Busy: 80}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRecorderTotals(t *testing.T) {
	r := newRecorder()
	child := span{ID: 2, Parent: 1, Name: "core.append", Start: 10, End: 90, Busy: 30, Calls: 1010}
	r.record(span{ID: 1, Name: "remote.handler.write", Start: 0, End: 100, Busy: 100}, []span{child})
	r.record(child, nil)
	if got := r.total("remote.handler.write"); got.Busy != 100 || got.Self != 70 || got.Count != 1 {
		t.Errorf("handler total %+v", got)
	}
	if got := r.total("core.append"); got.Busy != 30 || got.Self != 30 || got.Calls != 1010 {
		t.Errorf("append total %+v", got)
	}
}
