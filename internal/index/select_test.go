package index

import (
	"math/rand"
	"regexp"
	"slices"
	"testing"

	"timeunion/internal/labels"
	"timeunion/internal/tsbs"
)

// tsbsIndex indexes 20 TSBS hosts × 101 series: 2,020 series of 12 labels
// (10 host tags, measurement, field), the benchmark's query_hot index.
func tsbsIndex(tb testing.TB) *Index {
	tb.Helper()
	ix, err := New(Options{SlotsPerRegion: 1 << 14})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ix.Close() })
	id := uint64(1)
	for _, h := range tsbs.Hosts(20, 7) {
		for s := 0; s < tsbs.SeriesPerHost; s++ {
			if err := ix.Add(id, h.SeriesLabels(s)); err != nil {
				tb.Fatal(err)
			}
			id++
		}
	}
	return ix
}

var (
	hosts8  = labels.MustMatcher(labels.MatchRegexp, "hostname", "host_3|host_7|host_11|host_12|host_15|host_16|host_18|host_19")
	fields5 = labels.MustMatcher(labels.MatchRegexp, "field", "usage_user|usage_system|usage_idle|usage_nice|usage_iowait")
	// tsbsQuery is the benchmark's 5-8-1 selector.
	tsbsQuery = []*labels.Matcher{labels.MustEqual("measurement", "cpu"), fields5, hosts8}
)

func BenchmarkSelect(b *testing.B) {
	ix := tsbsIndex(b)
	for _, bc := range []struct {
		name string
		ms   []*labels.Matcher
		want int
	}{
		{"hosts8", []*labels.Matcher{hosts8}, 8 * tsbs.SeriesPerHost},
		{"fields5", []*labels.Matcher{fields5}, 5 * 20},
		{"equal", []*labels.Matcher{labels.MustEqual("hostname", "host_3")}, tsbs.SeriesPerHost},
		{"tsbs5-8-1", tsbsQuery, 5 * 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ids, err := ix.Select(bc.ms...)
				if err != nil || len(ids) != bc.want {
					b.Fatalf("%d ids, %v; want %d", len(ids), err, bc.want)
				}
			}
		})
	}
}

// oracle is Select's specification over the pairs each ID carries: the
// union of its Adds minus its Removes, so a group ID carries the tags of
// all its members. It compiles its own regexps, independent of the shapes
// labels.NewMatcher resolves.
type oracle struct {
	pairs map[uint64]map[labels.Label]bool
	live  map[uint64]bool // Index.all: added and not removed since
}

func newOracle() *oracle {
	return &oracle{pairs: map[uint64]map[labels.Label]bool{}, live: map[uint64]bool{}}
}

func (o *oracle) add(id uint64, ls labels.Labels) {
	if o.pairs[id] == nil {
		o.pairs[id] = map[labels.Label]bool{}
	}
	for _, l := range ls {
		o.pairs[id][l] = true
	}
	o.live[id] = true
}

func (o *oracle) remove(id uint64, ls labels.Labels) {
	for _, l := range ls {
		delete(o.pairs[id], l)
	}
	delete(o.live, id)
}

func (o *oracle) selectIDs(ms []*labels.Matcher) []uint64 {
	var out []uint64
	for id := range o.pairs {
		if o.matches(id, ms) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

func (o *oracle) matches(id uint64, ms []*labels.Matcher) bool {
	positive := false
	for _, m := range ms {
		accepts := func(v string) bool { return v == m.Value }
		if m.Type == labels.MatchRegexp || m.Type == labels.MatchNotRegexp {
			accepts = regexp.MustCompile("^(?:" + m.Value + ")$").MatchString
		}
		carried, accepted := false, false
		for p := range o.pairs[id] {
			if p.Name == m.Name {
				carried = true
				accepted = accepted || accepts(p.Value)
			}
		}
		switch m.Type {
		case labels.MatchEqual, labels.MatchRegexp:
			positive = true
			if !accepted {
				return false
			}
		default:
			// No carried value may be accepted, and a missing tag reads
			// as "" (tsdb's semantics).
			if accepted || (!carried && accepts("")) {
				return false
			}
		}
	}
	// Without a positive matcher the universe is the live IDs.
	return positive || o.live[id]
}

// fuzzValues are the tag values FuzzSelect draws label sets from.
var fuzzValues = []string{"", "h0", "h1", "h2", "h10", "host_1", "host_12", "a", "ab", "a.b", "axb", "a\nb", "H1"}

// fuzzPatterns are matcher values of every shape NewMatcher resolves:
// literal sets (single, duplicates, empty alternatives), prefixes, and
// regexes only the regexp answers.
var fuzzPatterns = []string{
	"h1", "", "h1|h1", "a|", "|", "h0|h2|h10|zz", "a.b", "a\nb",
	"host_.*", ".*", "h.*", "a\n.*", "h[0-3]", "(?i)H1", "a.b|h1", ".+", "h1.*|a",
}

var fuzzNames = []string{"host", "dc", "m"}

// FuzzSelect checks Select against the oracle over random label sets with
// missing tags, empty values, group IDs, multi-Add IDs and removed IDs,
// and random mixes of all four matcher types.
func FuzzSelect(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 11} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rnd := rand.New(rand.NewSource(seed))
		ix, err := New(Options{SlotsPerRegion: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		o := newOracle()
		randLabels := func() labels.Labels {
			var ls labels.Labels
			for _, n := range fuzzNames {
				if rnd.Intn(3) > 0 {
					ls = append(ls, labels.Label{Name: n, Value: fuzzValues[rnd.Intn(len(fuzzValues))]})
				}
			}
			return labels.New(ls...)
		}
		var added []uint64
		var sets []labels.Labels
		for i, n := 0, 1+rnd.Intn(40); i < n; i++ {
			id := uint64(1 + rnd.Intn(30))
			if rnd.Intn(4) == 0 {
				id |= GroupIDFlag
			}
			ls := randLabels()
			if err := ix.Add(id, ls); err != nil {
				t.Fatal(err)
			}
			o.add(id, ls)
			added, sets = append(added, id), append(sets, ls)
		}
		for i := 0; i < len(added)/5; i++ {
			j := rnd.Intn(len(added))
			ix.Remove(added[j], sets[j])
			o.remove(added[j], sets[j])
		}
		for q := 0; q < 20; q++ {
			ms := make([]*labels.Matcher, 1+rnd.Intn(3))
			for i := range ms {
				typ := labels.MatchType(rnd.Intn(4))
				v := fuzzPatterns[rnd.Intn(len(fuzzPatterns))]
				if typ == labels.MatchEqual || typ == labels.MatchNotEqual {
					v = fuzzValues[rnd.Intn(len(fuzzValues))]
				}
				ms[i] = labels.MustMatcher(typ, fuzzNames[rnd.Intn(len(fuzzNames))], v)
			}
			got, err := ix.Select(ms...)
			if err != nil {
				t.Fatal(err)
			}
			if want := o.selectIDs(ms); !slices.Equal(got, want) {
				t.Fatalf("Select(%v) = %v, want %v", ms, got, want)
			}
		}
	})
}
