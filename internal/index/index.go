// Package index implements TimeUnion's single global in-memory inverted
// index (paper §3.2). Unlike Prometheus tsdb, which builds one index per
// time partition and keeps every partition's index in memory, TimeUnion
// maintains exactly one index for the lifetime of the database: tag pairs
// are stored in a double-array trie (compact, mmap-backed, prefix
// searchable), and each trie value points at a postings list of series and
// group IDs.
package index

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"timeunion/internal/labels"
	"timeunion/internal/trie"
)

// Sep joins a tag name and value into a single trie key. 0xff cannot occur
// in UTF-8 text, so names and values never collide across the separator.
const Sep = 0xff

// GroupIDFlag marks group IDs in the shared 64-bit ID space: postings lists
// store both individual series IDs and group IDs, distinguished by the top
// bit (paper §3.1: "the group ID is utilized as the postings ID").
const GroupIDFlag uint64 = 1 << 63

// IsGroupID reports whether id addresses a group.
func IsGroupID(id uint64) bool { return id&GroupIDFlag != 0 }

// Options configures the index.
type Options struct {
	// Dir holds the trie's mmap region files; empty means heap-backed.
	Dir string
	// SlotsPerRegion is passed to the trie arrays (0 = 1<<20).
	SlotsPerRegion int
}

// Index is the global inverted index. Safe for concurrent use.
type Index struct {
	mu       sync.RWMutex
	trie     *trie.Trie
	postings []postingsList // trie value -> postings
	all      postingsList   // every indexed ID
	numPairs int            // live (tag pair, id) entries, for accounting
}

type postingsList struct {
	ids []uint64 // sorted
}

func (p *postingsList) add(id uint64) {
	i := sort.Search(len(p.ids), func(i int) bool { return p.ids[i] >= id })
	if i < len(p.ids) && p.ids[i] == id {
		return
	}
	p.ids = append(p.ids, 0)
	copy(p.ids[i+1:], p.ids[i:])
	p.ids[i] = id
}

func (p *postingsList) remove(id uint64) bool {
	i := sort.Search(len(p.ids), func(i int) bool { return p.ids[i] >= id })
	if i >= len(p.ids) || p.ids[i] != id {
		return false
	}
	p.ids = append(p.ids[:i], p.ids[i+1:]...)
	return true
}

// New creates an empty index.
func New(opts Options) (*Index, error) {
	tr, err := trie.New(trie.Options{Dir: opts.Dir, SlotsPerRegion: opts.SlotsPerRegion})
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	return &Index{trie: tr}, nil
}

// Close releases the trie's mapped regions.
func (ix *Index) Close() error { return ix.trie.Close() }

// appendKey appends the trie key of tag pair name=value to dst.
func appendKey(dst []byte, name, value string) []byte {
	dst = append(dst, name...)
	dst = append(dst, Sep)
	return append(dst, value...)
}

// Add indexes id under every tag pair in ls.
func (ix *Index) Add(id uint64, ls labels.Labels) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var key []byte
	for _, l := range ls {
		key = appendKey(key[:0], l.Name, l.Value)
		pid, ok := ix.trie.Get(key)
		if !ok {
			pid = int32(len(ix.postings))
			ix.postings = append(ix.postings, postingsList{})
			if _, _, err := ix.trie.Insert(key, pid); err != nil {
				return fmt.Errorf("index: add tag %s: %w", l.Name, err)
			}
		}
		before := len(ix.postings[pid].ids)
		ix.postings[pid].add(id)
		if len(ix.postings[pid].ids) > before {
			ix.numPairs++
		}
	}
	ix.all.add(id)
	return nil
}

// Remove drops id from the postings of every tag pair in ls (data
// retention, paper §3.3: purge memory objects of expired timeseries). Trie
// keys are kept; empty postings lists cost nothing to queries.
func (ix *Index) Remove(id uint64, ls labels.Labels) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var key []byte
	for _, l := range ls {
		key = appendKey(key[:0], l.Name, l.Value)
		if pid, ok := ix.trie.Get(key); ok {
			if ix.postings[pid].remove(id) {
				ix.numPairs--
			}
		}
	}
	ix.all.remove(id)
}

// Postings returns the sorted IDs indexed under an exact tag pair.
func (ix *Index) Postings(name, value string) []uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	pid, ok := ix.trie.Get(appendKey(nil, name, value))
	if !ok {
		return nil
	}
	return append([]uint64(nil), ix.postings[pid].ids...)
}

// LabelValues returns all values recorded for a tag name with non-empty
// postings, via a prefix scan of the trie.
func (ix *Index) LabelValues(name string) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	prefix := append([]byte(name), Sep)
	var out []string
	ix.trie.IteratePrefix(prefix, func(key []byte, pid int32) bool {
		if len(ix.postings[pid].ids) > 0 {
			out = append(out, string(key[len(prefix):]))
		}
		return true
	})
	return out
}

// Select evaluates tag selectors and returns the matching IDs, sorted.
// Each matcher costs what it names (DESIGN.md §4.4): a value set (= or a
// regex of literal alternatives) is one trie lookup per value; any other
// regex is one prefix scan of its tag's values (paper §3.4), bounded by the
// literal of a `literal.*` pattern, with the regexp confirming each value.
// Positive matchers intersect smallest first; a query with only negative
// matchers starts from every indexed ID. A negative matcher drops the IDs
// carrying a value its positive form accepts and, when that form accepts
// "", also the IDs lacking the tag, as tsdb's label-set filter does.
func (ix *Index) Select(matchers ...*labels.Matcher) ([]uint64, error) {
	if len(matchers) == 0 {
		return nil, fmt.Errorf("index: select needs at least one matcher")
	}
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ids := ix.selectLocked(sc, matchers); len(ids) > 0 {
		return slices.Clone(ids), nil
	}
	return nil, nil
}

// scratch is one Select's working memory, pooled so that the returned
// slice is the only allocation Select itself makes.
type scratch struct {
	key   []byte     // trie key under construction
	lists [][]uint64 // postings of the matchers, read in place under the RLock
	other [][]uint64 // postings a negative matcher's positive form rejects
	terms []term     // the positive matchers, as spans of lists
	ids   []uint64   // the running result
}

// term is one positive matcher: the union of lists[lo:hi], at most size IDs.
type term struct{ lo, hi, size int }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release returns sc to the pool without the postings it aliased, so a
// pooled scratch never pins a list that a later Add has reallocated.
func (sc *scratch) release() {
	clear(sc.lists[:cap(sc.lists)])
	clear(sc.other[:cap(sc.other)])
	scratchPool.Put(sc)
}

func (ix *Index) selectLocked(sc *scratch, matchers []*labels.Matcher) []uint64 {
	lists, terms := sc.lists[:0], sc.terms[:0]
	for _, m := range matchers {
		if m.Inverse() != nil {
			continue
		}
		lo, size := len(lists), 0
		lists = ix.postingsOf(sc, m, lists)
		if len(lists) == lo {
			return nil
		}
		for _, l := range lists[lo:] {
			size += len(l)
		}
		terms = append(terms, term{lo, len(lists), size})
	}
	ids := sc.ids[:0]
	if len(terms) == 0 {
		ids = append(ids, ix.all.ids...)
	} else {
		// Smallest first: the result only shrinks.
		slices.SortFunc(terms, func(a, b term) int { return a.size - b.size })
		ids = union(ids, lists[terms[0].lo:terms[0].hi])
		for _, t := range terms[1:] {
			ids = retain(ids, lists[t.lo:t.hi], true)
		}
	}
	for _, m := range matchers {
		inv := m.Inverse()
		if inv == nil || len(ids) == 0 {
			continue
		}
		if inv.Matches("") {
			// An ID lacking the tag reads as "", which inv accepts.
			sc.other = ix.scan(sc, inv, "", false, sc.other[:0])
			ids = retain(ids, sc.other, true)
		}
		lists = ix.postingsOf(sc, inv, lists[:0])
		ids = retain(ids, lists, false)
	}
	sc.lists, sc.terms, sc.ids = lists, terms, ids
	return ids
}

// postingsOf appends the non-empty postings lists of every value of m's tag
// that the positive matcher m accepts.
func (ix *Index) postingsOf(sc *scratch, m *labels.Matcher, lists [][]uint64) [][]uint64 {
	vals := m.SetMatches()
	if vals == nil {
		return ix.scan(sc, m, m.Prefix(), true, lists)
	}
	for _, v := range vals {
		sc.key = appendKey(sc.key[:0], m.Name, v)
		if pid, ok := ix.trie.Get(sc.key); ok && len(ix.postings[pid].ids) > 0 {
			lists = append(lists, ix.postings[pid].ids)
		}
	}
	return lists
}

// scan appends the non-empty postings lists of every value of m's tag that
// starts with prefix and that m accepts (want) or rejects (!want).
func (ix *Index) scan(sc *scratch, m *labels.Matcher, prefix string, want bool, lists [][]uint64) [][]uint64 {
	sc.key = appendKey(sc.key[:0], m.Name, prefix)
	n := len(m.Name) + 1
	ix.trie.IteratePrefix(sc.key, func(key []byte, pid int32) bool {
		if ids := ix.postings[pid].ids; len(ids) > 0 && m.Matches(string(key[n:])) == want {
			lists = append(lists, ids)
		}
		return true
	})
	return lists
}

// union appends the sorted union of lists to dst: a k-way merge over a
// min-heap of the lists ordered by their heads. The lists must be non-empty
// and are consumed.
func union(dst []uint64, lists [][]uint64) []uint64 {
	if len(lists) == 1 {
		return append(dst, lists[0]...)
	}
	h := lists
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(h, i)
	}
	for len(h) > 0 {
		if v := h[0][0]; len(dst) == 0 || dst[len(dst)-1] != v {
			dst = append(dst, v)
		}
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(h, 0)
	}
	return dst
}

func down(h [][]uint64, i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(h) && h[l][0] < h[m][0] {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h[r][0] < h[m][0] {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// retain keeps, in place, the IDs that are (want) or are not (!want) in any
// of lists. It walks each list forward once and consumes it.
func retain(ids []uint64, lists [][]uint64, want bool) []uint64 {
	out := ids[:0]
	for _, id := range ids {
		found := false
		for i, l := range lists {
			for len(l) > 0 && l[0] < id {
				l = l[1:]
			}
			lists[i] = l
			if len(l) > 0 && l[0] == id {
				found = true
				break
			}
		}
		if found == want {
			out = append(out, id)
		}
	}
	return out
}

// Stats reports the index's memory accounting, used by the Figure 3 / 16 /
// Table 3 experiments.
type Stats struct {
	NumTagPairs  int   // live (tag pair, id) posting entries
	NumTagKeys   int   // distinct tag pairs in the trie
	NumIDs       int   // distinct indexed IDs
	TrieBytes    int64 // touched bytes of the mmap-backed trie
	PostingBytes int64 // heap postings size (8 B per entry)
}

// SizeBytes returns the total accounted index size.
func (s Stats) SizeBytes() int64 { return s.TrieBytes + s.PostingBytes }

// Stats returns current accounting counters.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return Stats{
		NumTagPairs:  ix.numPairs,
		NumTagKeys:   ix.trie.Len(),
		NumIDs:       len(ix.all.ids),
		TrieBytes:    ix.trie.UsedBytes(),
		PostingBytes: int64(ix.numPairs) * 8,
	}
}
