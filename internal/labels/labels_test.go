package labels

import (
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewSorts(t *testing.T) {
	ls := New(Label{"z", "1"}, Label{"a", "2"}, Label{"m", "3"})
	if !sort.IsSorted(ls) {
		t.Fatalf("New did not sort: %v", ls)
	}
	if ls[0].Name != "a" || ls[2].Name != "z" {
		t.Fatalf("order wrong: %v", ls)
	}
}

func TestFromStrings(t *testing.T) {
	ls := FromStrings("metric", "cpu", "host", "h1")
	if ls.Get("metric") != "cpu" || ls.Get("host") != "h1" {
		t.Fatalf("FromStrings = %v", ls)
	}
	if ls.Get("missing") != "" {
		t.Fatal("Get(missing) != \"\"")
	}
	if !ls.Has("host") || ls.Has("nope") {
		t.Fatal("Has wrong")
	}
}

func TestFromStringsOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on odd argument count")
		}
	}()
	FromStrings("only-name")
}

func TestEqualCompare(t *testing.T) {
	a := FromStrings("a", "1", "b", "2")
	b := FromStrings("b", "2", "a", "1")
	if !a.Equal(b) {
		t.Fatal("equal sets not Equal")
	}
	c := FromStrings("a", "1", "b", "3")
	if a.Equal(c) {
		t.Fatal("different sets Equal")
	}
	if a.Compare(c) >= 0 {
		t.Fatal("a should sort before c")
	}
	if c.Compare(a) <= 0 {
		t.Fatal("c should sort after a")
	}
	d := FromStrings("a", "1")
	if d.Compare(a) >= 0 || a.Compare(d) <= 0 {
		t.Fatal("prefix should sort before longer set")
	}
}

func TestKeyUnique(t *testing.T) {
	a := FromStrings("a", "1", "b", "2")
	b := FromStrings("a", "1b", "", "2") // would collide under naive concat
	if a.Key() == b.Key() {
		t.Fatalf("key collision: %q", a.Key())
	}
}

func TestBytesRoundTrip(t *testing.T) {
	f := func(names, values []string) bool {
		n := len(names)
		if len(values) < n {
			n = len(values)
		}
		ls := make(Labels, 0, n)
		for i := 0; i < n; i++ {
			ls = append(ls, Label{Name: names[i], Value: values[i]})
		}
		sort.Sort(ls)
		enc := ls.Bytes(nil)
		dec, rest, err := DecodeLabels(enc)
		if err != nil || len(rest) != 0 {
			return false
		}
		return dec.Equal(ls)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeLabelsTruncated(t *testing.T) {
	ls := FromStrings("metric", "cpu", "host", "h1")
	enc := ls.Bytes(nil)
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeLabels(enc[:i]); err == nil && i < len(enc) {
			// Some prefixes decode as shorter valid sets only if the count
			// byte allows it; a full-length prefix must never succeed
			// except the exact encoding.
			if i == 0 {
				continue
			}
		}
	}
	if _, _, err := DecodeLabels([]byte{0x80}); err == nil {
		t.Fatal("truncated uvarint accepted")
	}
}

func TestSplitGroup(t *testing.T) {
	full := FromStrings("region", "1", "device", "1", "metric", "cpu", "core", "0")
	group, unique := SplitGroup(full, []string{"region", "device"})
	if len(group) != 2 || group.Get("region") != "1" || group.Get("device") != "1" {
		t.Fatalf("group = %v", group)
	}
	if len(unique) != 2 || unique.Get("metric") != "cpu" || unique.Get("core") != "0" {
		t.Fatalf("unique = %v", unique)
	}
	merged := Merge(group, unique)
	if !merged.Equal(full) {
		t.Fatalf("merge(split) != full: %v", merged)
	}
}

func TestMatchers(t *testing.T) {
	eq := MustEqual("metric", "cpu")
	if !eq.Matches("cpu") || eq.Matches("disk") {
		t.Fatal("equal matcher wrong")
	}
	ne := MustMatcher(MatchNotEqual, "metric", "cpu")
	if ne.Matches("cpu") || !ne.Matches("disk") {
		t.Fatal("not-equal matcher wrong")
	}
	re := MustMatcher(MatchRegexp, "metric", "disk.*")
	if !re.Matches("disk") || !re.Matches("diskio") || re.Matches("cpu") || re.Matches("mydisk") {
		t.Fatal("regexp matcher wrong (must be anchored)")
	}
	nre := MustMatcher(MatchNotRegexp, "metric", "disk.*")
	if nre.Matches("diskio") || !nre.Matches("cpu") {
		t.Fatal("not-regexp matcher wrong")
	}
}

// TestMatcherShapes pins the shape NewMatcher resolves for each kind of
// pattern, and that Matches on the resolved shape agrees with the anchored
// regexp on values that probe the edges: "", newlines, case, invalid UTF-8
// and U+FFFD.
func TestMatcherShapes(t *testing.T) {
	for _, tc := range []struct {
		value  string
		set    []string
		prefix string
	}{
		{"cpu", []string{"cpu"}, ""},
		{"host_3|host_7|host_3", []string{"host_3", "host_7"}, ""},
		{"a|", []string{"", "a"}, ""},
		{"", []string{""}, ""},
		{"a\nb", []string{"a\nb"}, ""},
		{"host_.*", nil, "host_"},
		{".*", nil, ""},
		{"a.b", nil, ""},
		{"h[0-3]", nil, ""},
		{"(?i)H1", nil, ""},
		{"a|b.*", nil, ""},
		{`a\.*`, nil, ""},
		{"�", nil, ""},
		{"�.*", nil, ""},
	} {
		m := MustMatcher(MatchRegexp, "n", tc.value)
		if !slices.Equal(m.SetMatches(), tc.set) || m.Prefix() != tc.prefix {
			t.Errorf("%q: set %q prefix %q, want %q %q", tc.value, m.SetMatches(), m.Prefix(), tc.set, tc.prefix)
		}
		re := regexp.MustCompile("^(?:" + tc.value + ")$")
		not := MustMatcher(MatchNotRegexp, "n", tc.value)
		if not.Inverse() == nil || not.Inverse().Type != MatchRegexp || not.SetMatches() != nil {
			t.Errorf("%q: !~ not resolved to its =~ form", tc.value)
		}
		for _, v := range []string{"", "a", "b", "a\nb", "cpu", "CPU", "host_3", "host_3\n", "host_", "h1", "H1", "axb", "a.b", "\xff", "�", "�x"} {
			if m.Matches(v) != re.MatchString(v) || not.Matches(v) == re.MatchString(v) {
				t.Errorf("%q on %q: =~ %v, !~ %v, regexp %v", tc.value, v, m.Matches(v), not.Matches(v), re.MatchString(v))
			}
		}
	}
	eq, ne := MustEqual("n", "v"), MustMatcher(MatchNotEqual, "n", "v")
	if !slices.Equal(eq.SetMatches(), []string{"v"}) || eq.Inverse() != nil || ne.Inverse().Type != MatchEqual {
		t.Fatal("= / != shapes wrong")
	}
	if _, err := NewMatcher(MatchType(9), "n", "v"); err == nil {
		t.Fatal("unknown match type accepted")
	}
}

func TestMatcherBadRegex(t *testing.T) {
	if _, err := NewMatcher(MatchRegexp, "m", "("); err == nil {
		t.Fatal("bad regex accepted")
	}
}

func TestMatcherString(t *testing.T) {
	m := MustMatcher(MatchRegexp, "metric", "disk.*")
	if got := m.String(); got != `metric=~"disk.*"` {
		t.Fatalf("String = %s", got)
	}
}

func TestLabelsStringer(t *testing.T) {
	ls := FromStrings("b", "2", "a", "1")
	if got := ls.String(); got != `{a="1", b="2"}` {
		t.Fatalf("String = %s", got)
	}
}

func TestSizeBytes(t *testing.T) {
	ls := FromStrings("ab", "cde")
	if ls.SizeBytes() != 5 {
		t.Fatalf("SizeBytes = %d", ls.SizeBytes())
	}
}

func TestCopyIndependent(t *testing.T) {
	a := FromStrings("a", "1")
	b := a.Copy()
	b[0].Value = "2"
	if a.Get("a") != "1" {
		t.Fatal("Copy aliases original")
	}
}

func TestInternerSharesAndClones(t *testing.T) {
	var in Interner
	big := strings.Repeat("x", 1<<16) + "host_0"
	a := in.Intern(Labels{{Name: "hostname", Value: big[1<<16:]}})
	b := in.Intern(Labels{{Name: strings.Clone("hostname"), Value: strings.Clone("host_0")}})
	if !a.Equal(b) {
		t.Fatalf("interned sets differ: %v vs %v", a, b)
	}
	if unsafe.StringData(a[0].Name) != unsafe.StringData(b[0].Name) || unsafe.StringData(a[0].Value) != unsafe.StringData(b[0].Value) {
		t.Fatal("equal strings interned twice")
	}
	if unsafe.StringData(a[0].Value) == unsafe.StringData(big[1<<16:]) {
		t.Fatal("interned value pins the buffer it was sliced from")
	}
	if len(in.strs) != 2 {
		t.Fatalf("%d strings held, want 2", len(in.strs))
	}
	in.Forget()
	c := in.Intern(Labels{{Name: strings.Clone("hostname"), Value: strings.Clone("host_0")}})
	if !c.Equal(a) {
		t.Fatalf("Intern after Forget = %v", c)
	}
	if unsafe.StringData(c[0].Name) == unsafe.StringData(a[0].Name) {
		t.Fatal("Forget kept the canonical strings")
	}
}
