package index

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"timeunion/internal/cloud"
	"timeunion/internal/labels"
	"timeunion/internal/tsdb"
)

func newTestIndex(t *testing.T) *Index {
	t.Helper()
	ix, err := New(Options{SlotsPerRegion: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

func TestAddAndPostings(t *testing.T) {
	ix := newTestIndex(t)
	if err := ix.Add(1, labels.FromStrings("metric", "cpu", "host", "h1")); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(2, labels.FromStrings("metric", "cpu", "host", "h2")); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(3, labels.FromStrings("metric", "mem", "host", "h1")); err != nil {
		t.Fatal(err)
	}
	if got := ix.Postings("metric", "cpu"); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("postings(metric=cpu) = %v", got)
	}
	if got := ix.Postings("host", "h1"); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("postings(host=h1) = %v", got)
	}
	if got := ix.Postings("host", "h9"); got != nil {
		t.Fatalf("postings(host=h9) = %v", got)
	}
}

func TestAddIdempotent(t *testing.T) {
	ix := newTestIndex(t)
	ls := labels.FromStrings("metric", "cpu")
	for i := 0; i < 3; i++ {
		if err := ix.Add(7, ls); err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.Postings("metric", "cpu"); len(got) != 1 {
		t.Fatalf("postings = %v", got)
	}
	if s := ix.Stats(); s.NumTagPairs != 1 || s.NumIDs != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSelectEqual(t *testing.T) {
	ix := newTestIndex(t)
	for i := uint64(1); i <= 10; i++ {
		metric := "cpu"
		if i%2 == 0 {
			metric = "mem"
		}
		if err := ix.Add(i, labels.FromStrings("metric", metric, "host", fmt.Sprintf("h%d", i%3))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ix.Select(labels.MustEqual("metric", "cpu"), labels.MustEqual("host", "h1"))
	if err != nil {
		t.Fatal(err)
	}
	// cpu ids: 1,3,5,7,9 ; host h1: 1,4,7,10 → 1,7
	if len(got) != 2 || got[0] != 1 || got[1] != 7 {
		t.Fatalf("select = %v", got)
	}
}

func TestSelectRegex(t *testing.T) {
	ix := newTestIndex(t)
	mustAdd := func(id uint64, m string) {
		if err := ix.Add(id, labels.FromStrings("metric", m)); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(1, "disk")
	mustAdd(2, "diskio")
	mustAdd(3, "cpu")
	mustAdd(4, "disk_total")
	got, err := ix.Select(labels.MustMatcher(labels.MatchRegexp, "metric", "disk.*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("regex select = %v", got)
	}
}

func TestSelectNegative(t *testing.T) {
	ix := newTestIndex(t)
	for i := uint64(1); i <= 6; i++ {
		m := "cpu"
		if i > 4 {
			m = "mem"
		}
		if err := ix.Add(i, labels.FromStrings("metric", m, "host", fmt.Sprintf("h%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ix.Select(
		labels.MustEqual("metric", "cpu"),
		labels.MustMatcher(labels.MatchNotEqual, "host", "h2"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("negative select = %v", got)
	}

	// Only negative matchers: subtract from the universe.
	got, err = ix.Select(labels.MustMatcher(labels.MatchNotRegexp, "metric", "cpu"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("all-negative select = %v", got)
	}
}

func TestSelectNoMatchers(t *testing.T) {
	ix := newTestIndex(t)
	if _, err := ix.Select(); err == nil {
		t.Fatal("empty select accepted")
	}
}

func TestSelectEmptyResult(t *testing.T) {
	ix := newTestIndex(t)
	if err := ix.Add(1, labels.FromStrings("metric", "cpu")); err != nil {
		t.Fatal(err)
	}
	got, err := ix.Select(labels.MustEqual("metric", "nope"))
	if err != nil || got != nil {
		t.Fatalf("select missing = %v, %v", got, err)
	}
}

func TestLabelValues(t *testing.T) {
	ix := newTestIndex(t)
	for i := 0; i < 5; i++ {
		if err := ix.Add(uint64(i+1), labels.FromStrings("region", fmt.Sprintf("r%d", i%3))); err != nil {
			t.Fatal(err)
		}
	}
	vals := ix.LabelValues("region")
	if len(vals) != 3 || !sort.StringsAreSorted(vals) {
		t.Fatalf("LabelValues = %v", vals)
	}
	if vals := ix.LabelValues("missing"); vals != nil {
		t.Fatalf("LabelValues(missing) = %v", vals)
	}
}

func TestRemove(t *testing.T) {
	ix := newTestIndex(t)
	ls := labels.FromStrings("metric", "cpu", "host", "h1")
	if err := ix.Add(1, ls); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(2, labels.FromStrings("metric", "cpu", "host", "h2")); err != nil {
		t.Fatal(err)
	}
	ix.Remove(1, ls)
	if got := ix.Postings("metric", "cpu"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("postings after remove = %v", got)
	}
	if got := ix.Postings("host", "h1"); len(got) != 0 {
		t.Fatalf("postings(host=h1) after remove = %v", got)
	}
	// h1 must disappear from label values (empty postings are skipped).
	for _, v := range ix.LabelValues("host") {
		if v == "h1" {
			t.Fatal("h1 still visible after remove")
		}
	}
	if s := ix.Stats(); s.NumIDs != 1 {
		t.Fatalf("NumIDs after remove = %d", s.NumIDs)
	}
	// Removing again is harmless.
	ix.Remove(1, ls)
}

func TestGroupIDSpace(t *testing.T) {
	gid := GroupIDFlag | 5
	if !IsGroupID(gid) || IsGroupID(5) {
		t.Fatal("group flag wrong")
	}
	ix := newTestIndex(t)
	// Group indexed under shared tags; member series under unique tags with
	// the same group ID as postings ID (paper §3.1).
	if err := ix.Add(gid, labels.FromStrings("region", "1", "device", "1")); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(gid, labels.FromStrings("metric", "cpu")); err != nil {
		t.Fatal(err)
	}
	got, err := ix.Select(labels.MustEqual("region", "1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != gid {
		t.Fatalf("group select = %v", got)
	}
	// Grouping shrinks postings: one entry regardless of member count.
	if s := ix.Stats(); s.NumTagPairs != 3 {
		t.Fatalf("NumTagPairs = %d", s.NumTagPairs)
	}
}

// TestSelectAgainstBruteForce checks Select against a filter over each
// series' labels, and against the tsdb baseline given the same label sets.
// rack is missing from a third of the series: a positive matcher selects
// only series carrying the tag, and a negative one reads a missing tag as
// "", so rack!="" and rack!~".*" drop the series without a rack.
func TestSelectAgainstBruteForce(t *testing.T) {
	ix := newTestIndex(t)
	db, err := tsdb.Open(tsdb.Options{Store: cloud.NewMemStore(cloud.TierBlock, cloud.LatencyModel{})})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(11))
	type entry struct {
		id uint64
		ls labels.Labels
	}
	var entries []entry
	byID := map[uint64]labels.Labels{}
	for i := uint64(1); i <= 400; i++ {
		pairs := []string{
			"metric", fmt.Sprintf("m%d", rnd.Intn(8)),
			"host", fmt.Sprintf("h%d", rnd.Intn(20)),
			"dc", fmt.Sprintf("dc%d", rnd.Intn(3)),
		}
		if r := rnd.Intn(6); r < 4 {
			pairs = append(pairs, "rack", fmt.Sprintf("r%d", r))
		}
		ls := labels.FromStrings(pairs...)
		if _, err := db.Append(ls, 0, float64(i)); err != nil {
			continue // a label set drawn twice: tsdb has it already
		}
		entries = append(entries, entry{i, ls})
		byID[i] = ls
		if err := ix.Add(i, ls); err != nil {
			t.Fatal(err)
		}
	}
	re := labels.MustMatcher
	queries := [][]*labels.Matcher{
		{labels.MustEqual("metric", "m3")},
		{labels.MustEqual("metric", "m1"), labels.MustEqual("dc", "dc0")},
		{re(labels.MatchRegexp, "host", "h1.*")},
		{re(labels.MatchRegexp, "metric", "m[0-3]"), re(labels.MatchNotEqual, "dc", "dc1")},
		{re(labels.MatchNotRegexp, "metric", "m.*")},
		{re(labels.MatchRegexp, "host", "h3|h7|h11|h3")},
		{re(labels.MatchRegexp, "rack", "r1|"), labels.MustEqual("dc", "dc2")},
		{re(labels.MatchRegexp, "rack", ".*")},
		{labels.MustEqual("metric", "m2"), re(labels.MatchNotEqual, "rack", "")},
		{labels.MustEqual("metric", "m2"), re(labels.MatchNotEqual, "rack", "r1")},
		{re(labels.MatchNotRegexp, "rack", ".*")},
		{re(labels.MatchNotRegexp, "rack", "r[01]|"), re(labels.MatchRegexp, "host", "h1.*")},
		{re(labels.MatchNotRegexp, "rack", "r[01]"), re(labels.MatchRegexp, "host", "h1.*")},
	}
	wantSets := make([][]string, len(queries))
	for qi, ms := range queries {
		got, err := ix.Select(ms...)
		if err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for _, e := range entries {
			match := true
			for _, m := range ms {
				if m.Inverse() == nil && !e.ls.Has(m.Name) || !m.Matches(e.ls.Get(m.Name)) {
					match = false
					break
				}
			}
			if match {
				want = append(want, e.id)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: got %v, want %v", qi, got, want)
		}
		for _, id := range got {
			wantSets[qi] = append(wantSets[qi], byID[id].String())
		}
		slices.Sort(wantSets[qi])
	}
	// The tsdb baseline, from its head and then from a flushed block.
	for pass := 0; pass < 2; pass++ {
		for qi, ms := range queries {
			res, err := db.Query(0, 0, ms...)
			if err != nil {
				t.Fatal(err)
			}
			var gotSets []string
			for _, r := range res {
				gotSets = append(gotSets, r.Labels.String())
			}
			slices.Sort(gotSets)
			if !slices.Equal(gotSets, wantSets[qi]) {
				t.Fatalf("query %d pass %d: tsdb selects %d series, TimeUnion %d", qi, pass, len(gotSets), len(wantSets[qi]))
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if db.NumBlocks() != 1 {
			t.Fatalf("%d tsdb blocks after Flush, want 1", db.NumBlocks())
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	ix := newTestIndex(t)
	for i := uint64(1); i <= 100; i++ {
		if err := ix.Add(i, labels.FromStrings("metric", "cpu", "host", fmt.Sprintf("h%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s := ix.Stats()
	if s.NumIDs != 100 {
		t.Fatalf("NumIDs = %d", s.NumIDs)
	}
	if s.NumTagPairs != 200 {
		t.Fatalf("NumTagPairs = %d", s.NumTagPairs)
	}
	if s.NumTagKeys != 101 { // metric=cpu + 100 host values
		t.Fatalf("NumTagKeys = %d", s.NumTagKeys)
	}
	if s.PostingBytes != 1600 {
		t.Fatalf("PostingBytes = %d", s.PostingBytes)
	}
	if s.SizeBytes() <= s.PostingBytes {
		t.Fatal("SizeBytes must include trie")
	}
}

func TestIndexConcurrentAccess(t *testing.T) {
	ix := newTestIndex(t)
	done := make(chan error, 6)
	for g := 0; g < 3; g++ {
		go func(g int) {
			for i := 0; i < 300; i++ {
				err := ix.Add(uint64(g*1000+i), labels.FromStrings(
					"metric", fmt.Sprintf("m%d", i%7),
					"writer", fmt.Sprintf("g%d", g)))
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 3; g++ {
		go func() {
			for i := 0; i < 200; i++ {
				if _, err := ix.Select(labels.MustEqual("metric", "m1")); err != nil {
					done <- err
					return
				}
				ix.LabelValues("metric")
			}
			done <- nil
		}()
	}
	for i := 0; i < 6; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s := ix.Stats(); s.NumIDs != 900 {
		t.Fatalf("NumIDs = %d", s.NumIDs)
	}
}
