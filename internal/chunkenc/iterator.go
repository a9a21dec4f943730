package chunkenc

// SampleIterator is the streaming read contract of the query path (DESIGN.md
// §4.8). Every layer — chunk decoders, the LSM's lazy per-chunk readers, the
// head overlay, and the k-way merge — speaks this interface, so a query
// decodes tuples only when its cursor actually reaches them.
//
// Usage: call Next (or Seek) to position the iterator; while it returns
// true, At returns the current sample. After the first false, check Err:
// nil means the stream is exhausted, non-nil means decoding failed and the
// samples returned so far must be considered incomplete.
//
// Seek advances to the first sample with timestamp >= t and returns whether
// such a sample exists. Seek never moves backwards: if the iterator is
// already positioned at a sample with timestamp >= t it stays put and
// returns true. After a false from either Next or Seek the iterator is
// exhausted and every further call returns false.
type SampleIterator interface {
	// Next advances to the next sample.
	Next() bool
	// Seek advances to the first sample with timestamp >= t.
	Seek(t int64) bool
	// At returns the current sample. Only valid after a true Next/Seek.
	At() (int64, float64)
	// Err returns the first decoding error, or nil on clean exhaustion.
	Err() error
}

// Seek implements SampleIterator for XORIterator by linear forward decode
// (the chunk is delta-compressed, so there is no in-chunk random access;
// skipping whole chunks is the caller's job via chunk time bounds).
func (it *XORIterator) Seek(t int64) bool {
	if it.err != nil || it.done {
		return false
	}
	for it.numRead == 0 || it.t < t {
		if !it.Next() {
			return false
		}
	}
	return true
}

// emptyIterator yields nothing, optionally carrying an error.
type emptyIterator struct{ err error }

func (emptyIterator) Next() bool           { return false }
func (emptyIterator) Seek(int64) bool      { return false }
func (emptyIterator) At() (int64, float64) { return 0, 0 }
func (e emptyIterator) Err() error         { return e.err }

// Empty returns an iterator over no samples.
func Empty() SampleIterator { return emptyIterator{} }

// ErrIterator returns an exhausted iterator surfacing err.
func ErrIterator(err error) SampleIterator { return emptyIterator{err: err} }

// SliceIterator iterates a sorted, deduplicated sample slice (the adapter
// that lets materialized runs participate in iterator pipelines).
type SliceIterator struct {
	s []Sample
	i int
}

// NewSliceIterator returns an iterator over s, which must be sorted by
// timestamp. The slice is not copied.
func NewSliceIterator(s []Sample) *SliceIterator { return &SliceIterator{s: s, i: -1} }

// Next implements SampleIterator.
func (it *SliceIterator) Next() bool {
	if it.i+1 >= len(it.s) {
		it.i = len(it.s)
		return false
	}
	it.i++
	return true
}

// Seek implements SampleIterator via binary search over the remainder
// (hand-rolled rather than sort.Search: the closure would allocate per
// call, and this runs inside the merge's hot loop).
func (it *SliceIterator) Seek(t int64) bool {
	if it.i >= len(it.s) {
		return false
	}
	if it.i >= 0 && it.s[it.i].T >= t {
		return true // never move backwards
	}
	lo, hi := it.i+1, len(it.s)
	if lo < 0 {
		lo = 0
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if it.s[mid].T < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	it.i = lo
	return it.i < len(it.s)
}

// At implements SampleIterator.
func (it *SliceIterator) At() (int64, float64) { return it.s[it.i].T, it.s[it.i].V }

// Err implements SampleIterator.
func (it *SliceIterator) Err() error { return nil }

// RankedIterator pairs a sample source with its recency rank for merging.
// When two sources produce the same timestamp the sample from the higher
// rank wins (paper §3.3: "keep the data sample from the newest SSTable").
type RankedIterator struct {
	Iter SampleIterator
	Rank uint64
}

// mergeSource is one live heap entry of a MergeIterator.
type mergeSource struct {
	it   SampleIterator
	rank uint64
	t    int64
	v    float64
}

// MergeIterator is a k-way deduplicating merge over ranked sources: output
// is sorted by timestamp, and on duplicate timestamps only the sample from
// the highest-rank source is emitted; the duplicates from lower ranks are
// consumed silently. Sources are advanced lazily — a source whose next
// sample lies beyond the current cursor is never decoded past it.
type MergeIterator struct {
	h        []*mergeSource // min-heap by (t asc, rank desc)
	srcs     []mergeSource  // every source, for releaseSources
	inited   bool
	lastT    int64
	haveLast bool
	err      error

	// Inline storage for the common few-source case (one or two overlapping
	// chunks plus the head overlay), so small merges cost one allocation —
	// zero when the MergeIterator itself is embedded in a pooled owner.
	s0 [4]mergeSource
	p0 [4]*mergeSource
	// Spilled storage from a previous reset, kept for reuse across queries
	// when the merge is wider than the inline arrays.
	spill  []mergeSource
	hspill []*mergeSource
}

// NewMergeIterator merges the given sources. Sources are not advanced until
// the first Next/Seek, so constructing the iterator performs no decoding.
func NewMergeIterator(sources []RankedIterator) *MergeIterator {
	m := &MergeIterator{}
	m.reset(sources)
	return m
}

// reset re-initializes m over sources, reusing the inline arrays and any
// previously spilled storage, so pooled owners (QueryIterator) build merges
// without allocating in steady state.
func (m *MergeIterator) reset(sources []RankedIterator) {
	m.inited, m.haveLast = false, false
	m.lastT = 0
	m.err = nil
	n := 0
	for _, s := range sources {
		if s.Iter != nil {
			n++
		}
	}
	backing := m.s0[:0]
	h := m.p0[:0]
	if n > len(m.s0) {
		if cap(m.spill) >= n {
			backing, h = m.spill[:0], m.hspill[:0]
		} else {
			backing = make([]mergeSource, 0, n)
			h = make([]*mergeSource, 0, n)
			m.spill, m.hspill = backing, h
		}
	}
	for _, s := range sources {
		if s.Iter == nil {
			continue
		}
		backing = append(backing, mergeSource{it: s.Iter, rank: s.Rank})
	}
	for i := range backing {
		h = append(h, &backing[i])
	}
	m.srcs = backing
	m.h = h
}

// releaseSources releases every pooled source exactly once (exhausted
// sources popped from the heap are still in srcs) and drops all source
// references. Only owners that were handed their sources (QueryIterator)
// may call it; afterwards the merge must not be used until the next reset.
func (m *MergeIterator) releaseSources() {
	for i := range m.srcs {
		if it := m.srcs[i].it; it != nil {
			ReleaseIterator(it)
			m.srcs[i].it = nil
		}
	}
	m.h = nil
	m.srcs = nil
}

func (m *MergeIterator) less(i, j int) bool {
	if m.h[i].t != m.h[j].t {
		return m.h[i].t < m.h[j].t
	}
	return m.h[i].rank > m.h[j].rank
}

func (m *MergeIterator) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(m.h) && m.less(l, smallest) {
			smallest = l
		}
		if r < len(m.h) && m.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		m.h[i], m.h[smallest] = m.h[smallest], m.h[i]
		i = smallest
	}
}

func (m *MergeIterator) heapify() {
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
}

// pop removes heap entry i (used when a source is exhausted).
func (m *MergeIterator) pop(i int) {
	last := len(m.h) - 1
	m.h[i] = m.h[last]
	m.h = m.h[:last]
	if i < len(m.h) {
		m.siftDown(i)
	}
}

// advanceTop moves the top source one sample forward (or past t when seek
// is true), removing it when exhausted. Returns false on source error.
func (m *MergeIterator) advanceTop(seek bool, t int64) bool {
	top := m.h[0]
	var ok bool
	if seek {
		ok = top.it.Seek(t)
	} else {
		ok = top.it.Next()
	}
	if !ok {
		if err := top.it.Err(); err != nil {
			m.err = err
			return false
		}
		m.pop(0)
		return true
	}
	top.t, top.v = top.it.At()
	m.siftDown(0)
	return true
}

// init positions every source at its first sample (at or after *seekTo when
// non-nil) and builds the heap.
func (m *MergeIterator) init(seekTo *int64) bool {
	live := m.h[:0]
	for _, s := range m.h {
		var ok bool
		if seekTo != nil {
			ok = s.it.Seek(*seekTo)
		} else {
			ok = s.it.Next()
		}
		if !ok {
			if err := s.it.Err(); err != nil {
				m.err = err
				return false
			}
			continue
		}
		s.t, s.v = s.it.At()
		live = append(live, s)
	}
	m.h = live
	m.heapify()
	m.inited = true
	return true
}

// settle skips heap tops that duplicate the last emitted timestamp, then
// records the new cursor position. Returns whether a sample is available.
func (m *MergeIterator) settle() bool {
	for len(m.h) > 0 && m.haveLast && m.h[0].t == m.lastT {
		if !m.advanceTop(true, m.lastT+1) {
			return false
		}
	}
	if len(m.h) == 0 {
		return false
	}
	m.lastT = m.h[0].t
	m.haveLast = true
	return true
}

// Next implements SampleIterator.
func (m *MergeIterator) Next() bool {
	if m.err != nil {
		return false
	}
	if !m.inited {
		if !m.init(nil) {
			return false
		}
		return m.settle()
	}
	if len(m.h) == 0 {
		return false
	}
	if !m.advanceTop(false, 0) {
		return false
	}
	return m.settle()
}

// Seek implements SampleIterator. Only sources whose cursor lies before t
// are advanced, each via its own Seek — so a lazy source that can prove it
// has no samples >= t is dropped without ever decoding.
func (m *MergeIterator) Seek(t int64) bool {
	if m.err != nil {
		return false
	}
	if !m.inited {
		if !m.init(&t) {
			return false
		}
		return m.settle()
	}
	if m.haveLast && m.lastT >= t {
		return len(m.h) > 0 // already positioned at or past t
	}
	live := m.h[:0]
	for _, s := range m.h {
		if s.t < t {
			if !s.it.Seek(t) {
				if err := s.it.Err(); err != nil {
					m.err = err
					return false
				}
				continue
			}
			s.t, s.v = s.it.At()
		}
		// live aliases m.h at length 0 and receives at most len(m.h)
		// elements, so this append can never grow the backing array.
		//lint:ignore allochot no-grow filter append into m.h's own backing
		live = append(live, s)
	}
	m.h = live
	m.heapify()
	return m.settle()
}

// At implements SampleIterator.
func (m *MergeIterator) At() (int64, float64) {
	top := m.h[0]
	return top.t, top.v
}

// Err implements SampleIterator.
func (m *MergeIterator) Err() error { return m.err }
