// Package labels implements the tag-pair identifier model of TimeUnion's
// unified data model (paper §3.1). A timeseries identifier is a sorted set
// of tag pairs; a group identifier is the shared subset of tag pairs of its
// members, with each member keeping only its unique tags.
package labels

import (
	"fmt"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"
)

// Label is a single tag pair.
type Label struct {
	Name  string
	Value string
}

// Labels is a set of tag pairs sorted by name (then value). Callers should
// construct Labels through New or FromMap to maintain the sort invariant.
type Labels []Label

// New returns a sorted Labels from the given pairs.
func New(ls ...Label) Labels {
	set := make(Labels, len(ls))
	copy(set, ls)
	sort.Sort(set)
	return set
}

// FromStrings constructs Labels from alternating name/value strings.
// It panics if given an odd number of arguments: that is a programming
// error, not a data error.
func FromStrings(ss ...string) Labels {
	if len(ss)%2 != 0 {
		panic("labels: FromStrings with odd argument count")
	}
	ls := make(Labels, 0, len(ss)/2)
	for i := 0; i < len(ss); i += 2 {
		ls = append(ls, Label{Name: ss[i], Value: ss[i+1]})
	}
	sort.Sort(ls)
	return ls
}

// FromMap constructs sorted Labels from a map.
func FromMap(m map[string]string) Labels {
	ls := make(Labels, 0, len(m))
	for k, v := range m {
		ls = append(ls, Label{Name: k, Value: v})
	}
	sort.Sort(ls)
	return ls
}

func (ls Labels) Len() int      { return len(ls) }
func (ls Labels) Swap(i, j int) { ls[i], ls[j] = ls[j], ls[i] }
func (ls Labels) Less(i, j int) bool {
	if ls[i].Name != ls[j].Name {
		return ls[i].Name < ls[j].Name
	}
	return ls[i].Value < ls[j].Value
}

// Get returns the value of the label with the given name, or "".
func (ls Labels) Get(name string) string {
	for _, l := range ls {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// Has reports whether a label with the given name exists.
func (ls Labels) Has(name string) bool {
	for _, l := range ls {
		if l.Name == name {
			return true
		}
	}
	return false
}

// Equal reports whether two label sets are identical.
func (ls Labels) Equal(o Labels) bool {
	if len(ls) != len(o) {
		return false
	}
	for i, l := range ls {
		if l != o[i] {
			return false
		}
	}
	return true
}

// Compare lexicographically compares two sorted label sets.
func (ls Labels) Compare(o Labels) int {
	for i := 0; i < len(ls) && i < len(o); i++ {
		if c := strings.Compare(ls[i].Name, o[i].Name); c != 0 {
			return c
		}
		if c := strings.Compare(ls[i].Value, o[i].Value); c != 0 {
			return c
		}
	}
	switch {
	case len(ls) < len(o):
		return -1
	case len(ls) > len(o):
		return 1
	}
	return 0
}

// Copy returns an independent copy of ls.
func (ls Labels) Copy() Labels {
	c := make(Labels, len(ls))
	copy(c, ls)
	return c
}

// Interner hands out copies of label sets whose name and value strings
// share storage with every equal string interned before. A catalog of N
// series repeats the same few names and values N times; held as decoded —
// one string per occurrence — the duplicates were a third of the label
// heap on the TSBS host set. The zero value is ready to use, and safe for
// concurrent use.
type Interner struct {
	mu   sync.Mutex
	strs map[string]string
}

// Intern returns a copy of ls built from canonical strings. The strings
// are cloned on first sight, so a set decoded out of a larger buffer (a
// WAL record, a request body) does not pin that buffer.
func (in *Interner) Intern(ls Labels) Labels {
	out := make(Labels, len(ls))
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.strs == nil {
		in.strs = make(map[string]string)
	}
	for i, l := range ls {
		out[i] = Label{Name: in.canonical(l.Name), Value: in.canonical(l.Value)}
	}
	return out
}

func (in *Interner) canonical(s string) string {
	if c, ok := in.strs[s]; ok {
		return c
	}
	s = strings.Clone(s)
	in.strs[s] = s
	return s
}

// Forget drops the table of canonical strings; sets already handed out
// keep theirs. An owner whose label sets come and go calls it when sets
// are dropped, which bounds the table by the strings of one generation of
// sets instead of every string ever seen.
func (in *Interner) Forget() {
	in.mu.Lock()
	in.strs = nil
	in.mu.Unlock()
}

// String renders the label set as {a="1", b="2"}.
func (ls Labels) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Key returns a canonical string key for the full label set, usable as a
// map key. The separator bytes cannot appear in tag names or values
// produced by TSBS workloads.
func (ls Labels) Key() string {
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Name)
		b.WriteByte(0xff)
		b.WriteString(l.Value)
		b.WriteByte(0xfe)
	}
	return b.String()
}

// Bytes appends a deterministic binary encoding of ls to dst: a uvarint
// count followed by length-prefixed name/value pairs.
func (ls Labels) Bytes(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(len(ls)))
	for _, l := range ls {
		dst = appendUvarint(dst, uint64(len(l.Name)))
		dst = append(dst, l.Name...)
		dst = appendUvarint(dst, uint64(len(l.Value)))
		dst = append(dst, l.Value...)
	}
	return dst
}

// SizeBytes returns the approximate in-memory footprint of the tag strings.
func (ls Labels) SizeBytes() int {
	n := 0
	for _, l := range ls {
		n += len(l.Name) + len(l.Value)
	}
	return n
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// DecodeLabels decodes Labels encoded by Bytes, returning the remainder.
func DecodeLabels(p []byte) (Labels, []byte, error) {
	n, p, err := readUvarint(p)
	if err != nil {
		return nil, nil, err
	}
	ls := make(Labels, 0, n)
	for i := uint64(0); i < n; i++ {
		var name, value string
		name, p, err = readString(p)
		if err != nil {
			return nil, nil, err
		}
		value, p, err = readString(p)
		if err != nil {
			return nil, nil, err
		}
		ls = append(ls, Label{Name: name, Value: value})
	}
	return ls, p, nil
}

func readUvarint(p []byte) (uint64, []byte, error) {
	var v uint64
	var shift uint
	for i, c := range p {
		if shift >= 64 {
			return 0, nil, fmt.Errorf("labels: uvarint overflow")
		}
		if c < 0x80 {
			return v | uint64(c)<<shift, p[i+1:], nil
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, nil, fmt.Errorf("labels: truncated uvarint")
}

func readString(p []byte) (string, []byte, error) {
	n, p, err := readUvarint(p)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(p)) {
		return "", nil, fmt.Errorf("labels: truncated string")
	}
	return string(p[:n]), p[n:], nil
}

// SplitGroup splits a member's full tag set into (groupTags, uniqueTags)
// given the group's shared tag names (paper §3.1, Figure 6): tags whose
// names appear in groupNames are extracted as group tags; the rest uniquely
// identify the member inside the group.
func SplitGroup(full Labels, groupNames []string) (group, unique Labels) {
	isGroup := make(map[string]bool, len(groupNames))
	for _, n := range groupNames {
		isGroup[n] = true
	}
	for _, l := range full {
		if isGroup[l.Name] {
			group = append(group, l)
		} else {
			unique = append(unique, l)
		}
	}
	return group, unique
}

// Merge returns the union of two disjoint sorted label sets.
func Merge(a, b Labels) Labels {
	out := make(Labels, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Sort(out)
	return out
}

// MatchType is the kind of a tag selector.
type MatchType int

const (
	// MatchEqual selects series whose tag value equals the matcher value.
	MatchEqual MatchType = iota
	// MatchRegexp selects series whose tag value matches an anchored
	// regular expression (paper §3.4: metric="disk.*").
	MatchRegexp
	// MatchNotEqual selects series whose tag value differs.
	MatchNotEqual
	// MatchNotRegexp selects series whose tag value does not match.
	MatchNotRegexp
)

func (t MatchType) String() string {
	switch t {
	case MatchEqual:
		return "="
	case MatchRegexp:
		return "=~"
	case MatchNotEqual:
		return "!="
	case MatchNotRegexp:
		return "!~"
	}
	return "?"
}

// Matcher is a single tag selector used in queries. NewMatcher resolves
// its shape once, so an index can answer it by lookup: an equality or a
// regex of |-separated literals is a value set, a literal followed by .*
// is a prefix, and only the remaining regexes need the compiled regexp.
type Matcher struct {
	Type  MatchType
	Name  string
	Value string

	set    []string       // = and literal-set =~: every accepted value, sorted, deduplicated
	prefix string         // other =~: a literal every accepted value starts with ("" if none)
	re     *regexp.Regexp // =~ that is not a literal set
	inv    *Matcher       // != and !~: the positive form
}

// NewMatcher builds a matcher; regex values are anchored.
func NewMatcher(t MatchType, name, value string) (*Matcher, error) {
	m := &Matcher{Type: t, Name: name, Value: value}
	switch t {
	case MatchEqual:
		m.set = []string{value}
	case MatchRegexp:
		alts := strings.Split(value, "|")
		if !slices.ContainsFunc(alts, func(p string) bool { return !isLiteral(p) }) {
			slices.Sort(alts)
			m.set = slices.Compact(alts)
			break
		}
		re, err := regexp.Compile("^(?:" + value + ")$")
		if err != nil {
			return nil, fmt.Errorf("labels: bad matcher regex %q: %w", value, err)
		}
		m.re = re
		if lit, ok := strings.CutSuffix(value, ".*"); ok && isLiteral(lit) {
			m.prefix = lit
		}
	case MatchNotEqual, MatchNotRegexp:
		pos := MatchEqual
		if t == MatchNotRegexp {
			pos = MatchRegexp
		}
		inv, err := NewMatcher(pos, name, value)
		if err != nil {
			return nil, err
		}
		m.inv = inv
	default:
		return nil, fmt.Errorf("labels: unknown match type %d", t)
	}
	return m, nil
}

// isLiteral reports whether the regex p matches exactly the string p: it
// has no metacharacter, and no U+FFFD or invalid UTF-8, which the regexp
// package would match against any invalid byte of a value.
func isLiteral(p string) bool {
	return regexp.QuoteMeta(p) == p && !strings.ContainsRune(p, utf8.RuneError)
}

// MustMatcher is NewMatcher that panics on a bad regex, for tests/examples.
func MustMatcher(t MatchType, name, value string) *Matcher {
	m, err := NewMatcher(t, name, value)
	if err != nil {
		panic(err)
	}
	return m
}

// MustEqual returns an equality matcher.
func MustEqual(name, value string) *Matcher {
	return MustMatcher(MatchEqual, name, value)
}

// Matches reports whether the matcher accepts value v.
func (m *Matcher) Matches(v string) bool {
	if m.inv != nil {
		return !m.inv.Matches(v)
	}
	if m.set != nil {
		_, ok := slices.BinarySearch(m.set, v)
		return ok
	}
	return m.re.MatchString(v)
}

// Inverse returns the positive form of a != or !~ matcher (= or =~ with
// the same name and value), built once by NewMatcher, and nil for = and =~.
func (m *Matcher) Inverse() *Matcher { return m.inv }

// SetMatches returns every value an = or literal-set =~ matcher accepts,
// sorted; nil for any other matcher. The caller must not modify it.
func (m *Matcher) SetMatches() []string { return m.set }

// Prefix returns the literal of a `literal.*` =~ matcher, which starts
// every value it accepts, and "" for any other matcher.
func (m *Matcher) Prefix() string { return m.prefix }

// String renders the matcher as name=~"value".
func (m *Matcher) String() string {
	return fmt.Sprintf("%s%s%q", m.Name, m.Type, m.Value)
}
