package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"timeunion/internal/chunkenc"
	"timeunion/internal/index"
	"timeunion/internal/labels"
	"timeunion/internal/lsm"
	"timeunion/internal/obs"
)

// OverlayRank is the merge rank of the head's open chunk. It is higher than
// any sequence a stored chunk can carry, so on duplicate timestamps the
// head sample — always the newest write — wins.
const OverlayRank = math.MaxUint64

// SeriesEntry is one timeseries of a streaming query result: its full tag
// set and a lazy sample iterator over the query range. The iterator decodes
// chunks only as it is consumed; dropping it early skips the remaining
// decode work entirely.
type SeriesEntry struct {
	Labels   labels.Labels
	Iterator chunkenc.SampleIterator
}

// SeriesSet streams a query result one series at a time (DESIGN.md §4.8).
// Series arrive in index order (groups expand to their members in slot
// order), not sorted by labels — the materializing Query sorts, the
// streaming path does not.
//
// The entry returned by At — including its Iterator — is valid only until
// the following Next call: the set recycles the previous entry's pooled
// decode buffers when it advances (DESIGN.md §4.10). Drain or drop an
// entry's iterator before advancing; to retain samples, copy them out.
type SeriesSet interface {
	// Next advances to the next non-empty series.
	Next() bool
	// At returns the current series. Only valid after a true Next, and
	// only until the following Next.
	At() SeriesEntry
	// Err returns the error that terminated iteration, if any.
	Err() error
}

// queryScratch pools the per-query gather buffers of the read pipeline:
// the located chunk list and the ranked merge sources built from it. The
// backing arrays are reused across series within one set; their elements
// are copied or handed off before the next reuse, never retained.
type queryScratch struct {
	chunks []lsm.ChunkRef
	srcs   []chunkenc.RankedIterator
}

var queryScratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func getQueryScratch() *queryScratch { return queryScratchPool.Get().(*queryScratch) }

// putQueryScratch clears the scratch before pooling it: ChunkRef Values
// alias cache-resident blocks, and a pooled scratch must not pin evicted
// blocks (or released iterators) in memory between queries.
func putQueryScratch(sc *queryScratch) {
	chunks := sc.chunks[:cap(sc.chunks)]
	for i := range chunks {
		chunks[i] = lsm.ChunkRef{}
	}
	srcs := sc.srcs[:cap(sc.srcs)]
	for i := range srcs {
		srcs[i] = chunkenc.RankedIterator{}
	}
	sc.chunks, sc.srcs = chunks[:0], srcs[:0]
	queryScratchPool.Put(sc)
}

// queryRun is one query: its matched ids, the cursor that hands them out to
// the query's series sets, and its accounting. startQuery opens it and
// finish closes it, once.
type queryRun struct {
	db       *DB
	ctx      context.Context
	tr       *obs.Trace
	ids      []uint64
	next     atomic.Int64 // index into ids of the next unclaimed id
	mint     int64
	maxt     int64
	matchers []*labels.Matcher
	start    time.Time
	// Tier and cache counters at the start, read only when traced.
	fast0, slow0, hits0, miss0 uint64
}

// startQuery counts the query, resolves its selectors through the inverted
// index and, when ctx carries a trace, snapshots the stores' read counters
// that finish charges the trace from. A failed select finishes the run.
func (db *DB) startQuery(r *queryRun, ctx context.Context, mint, maxt int64, matchers []*labels.Matcher) error {
	r.db, r.ctx, r.tr = db, ctx, obs.TraceFrom(ctx)
	r.mint, r.maxt, r.matchers = mint, maxt, matchers
	r.start = time.Now()
	if db.m != nil {
		db.m.queries.Inc()
	}
	if r.tr != nil {
		r.fast0 = db.opts.Fast.Stats().BytesRead
		r.slow0 = db.opts.Slow.Stats().BytesRead
		r.hits0, r.miss0 = db.cache.HitRate()
	}
	sel := r.tr.StartSpan("index_select")
	ids, err := db.head.Index().Select(matchers...)
	sel.End()
	if err != nil {
		r.finish(err)
		return err
	}
	r.ids = ids
	return nil
}

// finish records the query's latency and error, and charges an attached
// trace with the tier bytes and cache hits and misses since startQuery.
// The stores' counters are global, so the attribution is exact for a lone
// query; concurrent queries' reads land in whichever trace is open, which
// is the documented approximation (DESIGN.md §4.7).
func (r *queryRun) finish(err error) {
	db := r.db
	if db.m != nil {
		db.m.queryLat.Observe(time.Since(r.start))
		if err != nil {
			db.m.queryErrs.Inc()
		}
	}
	if r.tr != nil {
		r.tr.SetTierBytes("fast", int64(db.opts.Fast.Stats().BytesRead-r.fast0))
		r.tr.SetTierBytes("slow", int64(db.opts.Slow.Stats().BytesRead-r.slow0))
		hits, misses := db.cache.HitRate()
		r.tr.SetCache(hits-r.hits0, misses-r.miss0)
	}
}

// QuerySeriesSet evaluates tag selectors over [mint, maxt] as a lazy
// stream: the inverted index resolves the selectors up front, but chunks
// are located per series as the caller advances and decoded only as each
// series' iterator is consumed. Query/QueryContext/QueryWorkers drain sets
// of the same kind.
//
// The query is accounted (latency histogram, error counter, an attached
// trace's tier bytes and cache deltas) once, when the set ends by
// exhaustion or by error. A set the caller abandons before either is never
// accounted.
func (db *DB) QuerySeriesSet(ctx context.Context, mint, maxt int64, matchers ...*labels.Matcher) (SeriesSet, error) {
	s := new(querySeriesSet)
	if err := db.startQuery(&s.own, ctx, mint, maxt, matchers); err != nil {
		return nil, err
	}
	s.init(&s.own, db.onDecode(nil))
	return s, nil
}

// querySeriesSet is the one per-id evaluation loop. Each Next claims ids
// from its run's shared cursor until one yields a non-empty series, so
// several sets over one run split its ids between them (QueryWorkers).
type querySeriesSet struct {
	run     *queryRun
	own     queryRun // a standalone set's run (run == &own); the set finishes it
	id      uint64   // the id the pending and current entries belong to
	idx     int      // id's position in run.ids
	pending []SeriesEntry
	buf     []SeriesEntry // reusable entriesFor backing; pending drains before reuse
	sc      *queryScratch // gather buffers; nil once the set has ended
	onDec   func(int)
	decoded int64 // payload bytes decoded, when onDec counts into it
	cur     SeriesEntry
	err     error
}

func (s *querySeriesSet) init(run *queryRun, onDec func(int)) {
	s.run, s.onDec, s.sc = run, onDec, getQueryScratch()
}

func (s *querySeriesSet) Next() bool {
	if s.sc == nil {
		return false
	}
	// The previous entry's iterator expires now (see SeriesSet): recycle
	// its pooled buffers.
	s.releaseCur()
	r := s.run
	for {
		// Drain entries already located, peeking one sample so empty
		// series (all samples clipped or superseded) are dropped.
		for len(s.pending) > 0 {
			e := s.pending[0]
			s.pending[0] = SeriesEntry{}
			s.pending = s.pending[1:]
			q := e.Iterator.(*chunkenc.QueryIterator) // entriesFor builds no other kind
			if q.PeekNonEmpty() {
				s.cur = e
				return true
			}
			err := q.Err()
			q.Release()
			if err != nil {
				s.end(s.idError(err))
				return false
			}
		}
		i := int(r.next.Add(1) - 1)
		if i >= len(r.ids) {
			s.end(nil)
			return false
		}
		if err := r.ctx.Err(); err != nil {
			s.end(err)
			return false
		}
		s.id, s.idx = r.ids[i], i
		entries, err := r.db.entriesFor(r.tr, r.ids[i:], r.mint, r.maxt, r.matchers, s.onDec, s.buf[:0], s.sc)
		if err != nil {
			s.end(err)
			return false
		}
		s.pending = entries
		s.buf = entries
	}
}

// drainInto materializes the rest of the set: each series goes to
// perID[idx] under the position of the id it came from, so any number of
// sets sharing one run fill perID identically. The decode span brackets
// each series' drain and carries its decoded bytes.
func (s *querySeriesSet) drainInto(perID [][]Series) error {
	for s.Next() {
		sp := s.run.tr.StartSpan("decode")
		samples, err := drainPairs(s.cur.Iterator)
		sp.AddBytes(s.decoded)
		sp.End()
		s.decoded = 0
		if err != nil {
			s.end(s.idError(err))
			break
		}
		perID[s.idx] = append(perID[s.idx], Series{Labels: s.cur.Labels, Samples: samples})
	}
	return s.err
}

func (s *querySeriesSet) idError(err error) error {
	return fmt.Errorf("core: query id %d: %w", s.id, err)
}

func (s *querySeriesSet) releaseCur() {
	if s.cur.Iterator != nil {
		chunkenc.ReleaseIterator(s.cur.Iterator)
		s.cur = SeriesEntry{}
	}
}

// end stops the set for good: it records err, releases every pooled buffer
// the set still holds and, for a standalone set, accounts the query.
func (s *querySeriesSet) end(err error) {
	s.err = err
	s.releaseCur()
	for i, e := range s.pending {
		chunkenc.ReleaseIterator(e.Iterator)
		s.pending[i] = SeriesEntry{}
	}
	s.pending = nil
	putQueryScratch(s.sc)
	s.sc = nil
	if s.run == &s.own {
		s.run.finish(err)
	}
}

func (s *querySeriesSet) At() SeriesEntry { return s.cur }

func (s *querySeriesSet) Err() error { return s.err }

// entriesFor locates the series entries of ids[0], a matched id, wrapping
// any failure with the id so a multi-series query reports which series or
// group broke. ids[1:] are the query's later ids, the store's read-ahead
// hint (ChunkStore.ChunksForInto). decoded (optional) accumulates payload
// bytes as the entries' iterators lazily decode them. sc holds the reusable
// gather buffers; each returned entry's iterator owns pooled decode state
// (release with chunkenc.ReleaseIterator after draining it).
func (db *DB) entriesFor(tr *obs.Trace, ids []uint64, mint, maxt int64, matchers []*labels.Matcher, onDec func(int), buf []SeriesEntry, sc *queryScratch) ([]SeriesEntry, error) {
	id := ids[0]
	if index.IsGroupID(id) {
		entries, err := db.groupEntries(tr, ids, mint, maxt, matchers, onDec, buf, sc)
		if err != nil {
			return nil, fmt.Errorf("core: query group %d: %w", id, err)
		}
		return entries, nil
	}
	entries, err := db.seriesEntries(tr, ids, mint, maxt, onDec, buf, sc)
	if err != nil {
		return nil, fmt.Errorf("core: query series %d: %w", id, err)
	}
	return entries, nil
}

// onDecode builds the lazy-decode hook charging the db counters and the
// caller's accumulator. The returned hook runs on whichever goroutine
// consumes the iterator; the db counters are atomic, decoded must be owned
// by that consumer.
func (db *DB) onDecode(decoded *int64) func(int) {
	return func(n int) {
		if db.m != nil {
			db.m.decodedBytes.Add(uint64(n))
			db.m.decodedChunks.Inc()
		}
		if decoded != nil {
			*decoded += int64(n)
		}
	}
}

// seriesEntries builds the lazy read pipeline for the individual series
// ids[0] (ids[1:] is the read-ahead hint): lazy LSM chunk sources and the
// head's open chunk merged rank-aware, clipped to [mint, maxt]. No payload
// is decoded here. The chunk list and source list live in sc's reused
// backing arrays; the returned iterator owns copies of the sources, so sc
// may be reused on the next call.
func (db *DB) seriesEntries(tr *obs.Trace, ids []uint64, mint, maxt int64, onDec func(int), buf []SeriesEntry, sc *queryScratch) ([]SeriesEntry, error) {
	id := ids[0]
	lbls, ok := db.head.SeriesLabels(id)
	if !ok {
		return buf, nil
	}
	sp := tr.StartSpan("lsm_read")
	chunks, err := db.store.ChunksForInto(sc.chunks[:0], ids, mint, maxt)
	if chunks != nil {
		sc.chunks = chunks
	}
	for _, c := range chunks {
		sp.AddBytes(int64(len(c.Value)))
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	sources := lsm.SeriesSourcesInto(sc.srcs[:0], chunks, mint, maxt, onDec)
	sp = tr.StartSpan("head_scan")
	head := db.head.HeadIterator(id, mint, maxt)
	sp.End()
	if head != nil {
		sources = append(sources, chunkenc.RankedIterator{Iter: head, Rank: OverlayRank})
	}
	it := chunkenc.GetQueryIterator(sources, mint, maxt)
	sc.srcs = sources[:0]
	return append(buf, SeriesEntry{Labels: lbls, Iterator: it}), nil
}

// groupEntries expands the matched group ids[0] (ids[1:] is the read-ahead
// hint) into its matching member timeseries (second-level index, §2.4
// challenge 3), each member a lazy merge of its group-tuple columns and the
// head's open group chunk.
func (db *DB) groupEntries(tr *obs.Trace, ids []uint64, mint, maxt int64, matchers []*labels.Matcher, onDec func(int), buf []SeriesEntry, sc *queryScratch) ([]SeriesEntry, error) {
	groupTags, members, ok := db.head.GroupInfo(ids[0])
	if !ok {
		return buf, nil
	}
	sp := tr.StartSpan("lsm_read")
	chunks, err := db.store.ChunksForInto(sc.chunks[:0], ids, mint, maxt)
	if chunks != nil {
		sc.chunks = chunks
	}
	for _, c := range chunks {
		sp.AddBytes(int64(len(c.Value)))
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	sources, err := lsm.GroupSources(chunks, mint, maxt, onDec)
	if err != nil {
		return nil, err
	}
	sp = tr.StartSpan("head_scan")
	headBySlot := db.head.HeadGroupIterators(ids[0], mint, maxt)
	sp.End()
	// Walk slots in order (not map order) so the assembled result is
	// deterministic before any final label sort.
	out := buf
	for slot := uint32(0); int(slot) < len(members); slot++ {
		srcs := sources[slot]
		if h, ok := headBySlot[slot]; ok {
			srcs = append(srcs, chunkenc.RankedIterator{Iter: h, Rank: OverlayRank})
		}
		if len(srcs) == 0 {
			continue
		}
		full := labels.Merge(groupTags, members[slot])
		if !matchAll(full, matchers) {
			// No iterator takes ownership of an unmatched slot's pooled
			// sources; recycle them here.
			for _, src := range srcs {
				chunkenc.ReleaseIterator(src.Iter)
			}
			continue
		}
		it := chunkenc.GetQueryIterator(srcs, mint, maxt)
		out = append(out, SeriesEntry{Labels: full, Iterator: it})
	}
	return out, nil
}
