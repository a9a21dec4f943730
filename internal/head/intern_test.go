package head

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"timeunion/internal/labels"
	"timeunion/internal/wal"
)

// freshLabels builds a label set whose every string is its own allocation,
// as a JSON body or a WAL record decodes them.
func freshLabels(pairs ...string) labels.Labels {
	cloned := make([]string, len(pairs))
	for i, p := range pairs {
		cloned[i] = strings.Clone(p)
	}
	return labels.FromStrings(cloned...)
}

// sharedStrings fails unless every equal name or value in the given sets
// is one string in memory.
func sharedStrings(t *testing.T, sets ...labels.Labels) {
	t.Helper()
	canon := map[string]*byte{}
	see := func(s string) {
		if s == "" {
			return
		}
		p := unsafe.StringData(s)
		if first, ok := canon[s]; ok && first != p {
			t.Fatalf("%q is held twice", s)
		}
		canon[s] = p
	}
	for _, ls := range sets {
		for _, l := range ls {
			see(l.Name)
			see(l.Value)
		}
	}
}

// TestDefinitionsShareLabelStrings: names and values repeated across
// series, groups and members share storage however the definition arrives
// — append, explicit Define* (a replica's catalog refresh), WAL replay —
// and the accounted bytes per series do not move.
func TestDefinitionsShareLabelStrings(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, _ := newTestHead(t, w)
	var ids []uint64
	var tagBytes int64
	for i := 0; i < 8; i++ {
		ls := freshLabels("measurement", "cpu", "field", fmt.Sprintf("usage_%d", i), "hostname", "host_0", "region", "eu-west-1")
		tagBytes += int64(ls.SizeBytes())
		id, err := h.Append(ls, 100, 1)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if got := h.Footprint().TagBytes; got != tagBytes {
		t.Fatalf("accounted tag bytes %d, the sets' own size %d", got, tagBytes)
	}
	if err := h.DefineSeries(100, freshLabels("measurement", "cpu", "field", "usage_0", "hostname", "host_1")); err != nil {
		t.Fatal(err)
	}
	gid, _, err := h.AppendGroup(freshLabels("hostname", "host_0", "region", "eu-west-1"),
		[]labels.Labels{freshLabels("measurement", "cpu", "field", "usage_0"), freshLabels("measurement", "cpu", "field", "usage_1")},
		100, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	collect := func(h *Head) []labels.Labels {
		var sets []labels.Labels
		for _, id := range append(ids, 100) {
			ls, ok := h.SeriesLabels(id)
			if !ok {
				t.Fatalf("series %d missing", id)
			}
			sets = append(sets, ls)
		}
		gt, members, ok := h.GroupInfo(gid)
		if !ok {
			t.Fatal("group missing")
		}
		return append(append(sets, gt), members...)
	}
	sharedStrings(t, collect(h)...)

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	h.Close()
	w2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	h2, _ := newTestHead(t, w2)
	if err := h2.Recover(); err != nil {
		t.Fatal(err)
	}
	ids = ids[:8] // series 100 was defined without a WAL record
	if _, ok := h2.SeriesLabels(100); ok {
		t.Fatal("setup: DefineSeries is not expected to log")
	}
	if err := h2.DefineSeries(100, freshLabels("measurement", "cpu", "hostname", "host_1")); err != nil {
		t.Fatal(err)
	}
	sharedStrings(t, collect(h2)...)
}

// TestPurgeForgetsInternedStrings: the intern table does not outlive the
// definitions that filled it, so label churn cannot grow it without bound.
func TestPurgeForgetsInternedStrings(t *testing.T) {
	h, _ := newTestHead(t, nil)
	id, err := h.Append(freshLabels("pod", "p1"), 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	purged, _ := h.SeriesLabels(id)
	if h.PurgeBefore(1000) != 1 {
		t.Fatal("setup: nothing purged")
	}
	a, err := h.Append(freshLabels("pod", "p1", "zone", "z"), 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Append(freshLabels("pod", "p2", "zone", "z"), 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	la, _ := h.SeriesLabels(a)
	lb, _ := h.SeriesLabels(b)
	sharedStrings(t, la, lb)
	if unsafe.StringData(la[0].Value) == unsafe.StringData(purged[0].Value) {
		t.Fatal("a purged series' strings are still the canonical ones")
	}
}
