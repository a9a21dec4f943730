package main

import (
	"context"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"timeunion/internal/cloud"
	"timeunion/internal/labels"
	"timeunion/internal/obs"
	"timeunion/internal/remote"
)

// spanHeader carries the client span's id, which is also the request id
// every span of the request shares.
const spanHeader = "X-Bench-Span"

// tracing is what the traced run installs at the program's public
// boundaries: an http.Handler in front of the API, a remote.Backend in
// front of the engine and a cloud.Store in front of each tier. All three
// pass calls straight through while the recorder is off.
type tracing struct {
	rec *recorder

	mu sync.Mutex
	// lanes maps the goroutine serving a request to that request's lane, so
	// a store call can tell whether it runs for a request or in the
	// background.
	lanes map[uint64]*lane
	// handled holds each finished handler span until the client, which
	// needs it to compute its own self time, collects it.
	handled map[uint64]span

	// What traced queries handed back to the handler.
	series, samples atomic.Int64
}

func newTracing() *tracing {
	return &tracing{rec: newRecorder(), lanes: map[uint64]*lane{}, handled: map[uint64]span{}}
}

// goid returns the calling goroutine's id, parsed from the first line of
// its stack ("goroutine 123 [running]:"). It costs about a microsecond and
// is only called around store operations and once per request.
func goid() uint64 {
	var buf [48]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	id := uint64(0)
	for i := prefix; i < n && buf[i] >= '0' && buf[i] <= '9'; i++ {
		id = id*10 + uint64(buf[i]-'0')
	}
	return id
}

func (t *tracing) takeHandled(req uint64) (span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.handled[req]
	delete(t.handled, req)
	return s, ok
}

// lane is the state of one in-flight request. A request holds its lane
// exclusively, which is how backend calls, which carry no request identity,
// are attributed: each lane has its own API handler over its own backend.
type lane struct {
	api http.Handler
	be  *tracedBackend
	// handler is the id of the request's handler span; cloud holds the
	// store calls made on the request's goroutine.
	handler int64
	req     uint64
	cloud   []span
}

// tracedAPI is the http.Handler the traced run serves the data API through.
type tracedAPI struct {
	tr    *tracing
	inner *remote.TimeUnionBackend

	mu   sync.Mutex
	free []*lane
}

func (a *tracedAPI) acquire() *lane {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.free); n > 0 {
		ln := a.free[n-1]
		a.free = a.free[:n-1]
		return ln
	}
	be := &tracedBackend{inner: a.inner}
	return &lane{api: remote.NewServer(be), be: be}
}

func (a *tracedAPI) release(ln *lane) {
	a.mu.Lock()
	a.free = append(a.free, ln)
	a.mu.Unlock()
}

func (a *tracedAPI) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ln := a.acquire()
	defer a.release(ln)
	req, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	if err != nil || !a.tr.rec.enabled() {
		ln.api.ServeHTTP(w, r)
		return
	}
	rec := a.tr.rec
	ln.handler, ln.req, ln.cloud = rec.newID(), req, ln.cloud[:0]
	ln.be.begin()
	g := goid()
	a.tr.mu.Lock()
	a.tr.lanes[g] = ln
	a.tr.mu.Unlock()

	start := time.Now()
	ln.api.ServeHTTP(w, r)
	end := time.Now()

	a.tr.mu.Lock()
	delete(a.tr.lanes, g)
	a.tr.mu.Unlock()
	ln.be.active = false

	kind := "write"
	if ln.be.queryCalls > 0 {
		kind = "query"
	}
	h := span{ID: ln.handler, Parent: int64(req), Req: req, Name: "remote.handler." + kind,
		Start: rec.since(start), End: rec.since(end)}
	h.Busy = h.End - h.Start
	children := ln.be.spans(rec, ln.handler, req, ln.cloud)
	a.tr.series.Add(ln.be.series)
	a.tr.samples.Add(ln.be.samples)
	rec.record(h, children)
	for _, c := range ln.cloud {
		rec.record(c, nil)
	}
	a.tr.mu.Lock()
	a.tr.handled[req] = h
	a.tr.mu.Unlock()
}

// tracedBackend times the engine calls of one request at a time. It
// implements ContextBackend and StreamingBackend like the backend it wraps,
// so the server takes the same path with and without it.
type tracedBackend struct {
	inner  *remote.TimeUnionBackend
	active bool

	appendCalls, appendBusy int64
	appendFirst, appendLast time.Time
	queryCalls, queryBusy   int64
	queryFirst, queryLast   time.Time
	series, samples         int64
	trace                   *obs.Trace
}

func (b *tracedBackend) begin() {
	*b = tracedBackend{inner: b.inner, active: true}
}

func (b *tracedBackend) noteAppend(start time.Time) {
	end := time.Now()
	if b.appendCalls == 0 {
		b.appendFirst = start
	}
	b.appendLast = end
	b.appendCalls++
	b.appendBusy += int64(end.Sub(start))
}

func (b *tracedBackend) noteQuery(start time.Time) {
	end := time.Now()
	if b.queryCalls == 0 {
		b.queryFirst = start
	}
	b.queryLast = end
	b.queryCalls++
	b.queryBusy += int64(end.Sub(start))
}

// spans turns the request's accumulators into the handler's child spans and
// records them and the query stages beneath them. Store calls made on the
// request's goroutine happen inside the engine call, under lsm_read when
// the request is a query: they are charged there, not to the handler.
func (b *tracedBackend) spans(rec *recorder, handler int64, req uint64, cloudSpans []span) []span {
	var out []span
	if b.appendCalls > 0 {
		s := span{ID: rec.newID(), Parent: handler, Req: req, Name: "core.append",
			Start: rec.since(b.appendFirst), End: rec.since(b.appendLast), Busy: b.appendBusy, Calls: b.appendCalls}
		rec.record(s, cloudSpans)
		out = append(out, s)
	}
	if b.queryCalls > 0 {
		s := span{ID: rec.newID(), Parent: handler, Req: req, Name: "core.query",
			Start: rec.since(b.queryFirst), End: rec.since(b.queryLast), Busy: b.queryBusy, Calls: b.queryCalls}
		var stages []span
		for _, st := range b.trace.Stages() {
			c := span{ID: rec.newID(), Parent: s.ID, Req: req, Name: "core.query." + st.Name,
				Start: s.Start, End: s.End, Busy: int64(st.Total), Calls: int64(st.Count)}
			if st.Name == "lsm_read" {
				rec.record(c, cloudSpans)
			} else {
				rec.record(c, nil)
			}
			stages = append(stages, c)
		}
		rec.record(s, stages)
		out = append(out, s)
	}
	return out
}

func (b *tracedBackend) Append(ls labels.Labels, t int64, v float64) (uint64, error) {
	if !b.active {
		return b.inner.Append(ls, t, v)
	}
	start := time.Now()
	id, err := b.inner.Append(ls, t, v)
	b.noteAppend(start)
	return id, err
}

func (b *tracedBackend) AppendFast(id uint64, t int64, v float64) error {
	if !b.active {
		return b.inner.AppendFast(id, t, v)
	}
	start := time.Now()
	err := b.inner.AppendFast(id, t, v)
	b.noteAppend(start)
	return err
}

func (b *tracedBackend) AppendGroup(g labels.Labels, u []labels.Labels, t int64, vals []float64) (uint64, []int, error) {
	if !b.active {
		return b.inner.AppendGroup(g, u, t, vals)
	}
	start := time.Now()
	gid, slots, err := b.inner.AppendGroup(g, u, t, vals)
	b.noteAppend(start)
	return gid, slots, err
}

func (b *tracedBackend) AppendGroupFast(gid uint64, slots []int, t int64, vals []float64) error {
	if !b.active {
		return b.inner.AppendGroupFast(gid, slots, t, vals)
	}
	start := time.Now()
	err := b.inner.AppendGroupFast(gid, slots, t, vals)
	b.noteAppend(start)
	return err
}

func (b *tracedBackend) Query(mint, maxt int64, ms ...*labels.Matcher) ([]remote.QuerySeries, error) {
	return b.QueryContext(context.Background(), mint, maxt, ms...)
}

func (b *tracedBackend) QueryContext(ctx context.Context, mint, maxt int64, ms ...*labels.Matcher) ([]remote.QuerySeries, error) {
	if !b.active {
		return b.inner.QueryContext(ctx, mint, maxt, ms...)
	}
	b.trace = obs.NewTrace("query")
	start := time.Now()
	res, err := b.inner.QueryContext(obs.ContextWithTrace(ctx, b.trace), mint, maxt, ms...)
	b.noteQuery(start)
	b.series += int64(len(res))
	for _, s := range res {
		b.samples += int64(len(s.Samples))
	}
	return res, err
}

func (b *tracedBackend) QueryStream(ctx context.Context, mint, maxt int64, ms ...*labels.Matcher) (remote.SeriesCursor, error) {
	if !b.active {
		return b.inner.QueryStream(ctx, mint, maxt, ms...)
	}
	b.trace = obs.NewTrace("query_stream")
	start := time.Now()
	cur, err := b.inner.QueryStream(obs.ContextWithTrace(ctx, b.trace), mint, maxt, ms...)
	b.noteQuery(start)
	if err != nil {
		return nil, err
	}
	return &tracedCursor{inner: cur, be: b}, nil
}

// tracedCursor charges each Next to the request's core.query span. It hands
// the series on as it got it and keeps nothing of it.
type tracedCursor struct {
	inner remote.SeriesCursor
	be    *tracedBackend
}

func (c *tracedCursor) Next() (remote.QuerySeries, bool, error) {
	start := time.Now()
	qs, ok, err := c.inner.Next()
	c.be.noteQuery(start)
	if ok {
		c.be.series++
		c.be.samples += int64(len(qs.Samples))
	}
	return qs, ok, err
}

// tracedStore times every call into one storage tier. It embeds the store
// it wraps, so accounting (Stats, TotalBytes, Tier) is the inner store's.
type tracedStore struct {
	cloud.Store
	tier string
	tr   *tracing
}

// Instrument keeps the wrapped store reachable for the latency histograms
// core installs through cloud.InstrumentStore.
func (s *tracedStore) Instrument(read, write *obs.Histogram) {
	cloud.InstrumentStore(s.Store, read, write)
}

// note records one store call: under the request whose goroutine made it,
// or as background work (flush, compaction, query workers).
func (s *tracedStore) note(op string, start time.Time) {
	end := time.Now()
	rec := s.tr.rec
	sp := span{ID: rec.newID(), Parent: backgroundParent, Name: "cloud." + s.tier + "." + op,
		Start: rec.since(start), End: rec.since(end)}
	sp.Busy = sp.End - sp.Start
	g := goid()
	s.tr.mu.Lock()
	ln := s.tr.lanes[g]
	s.tr.mu.Unlock()
	if ln == nil {
		rec.record(sp, nil)
		return
	}
	// The lane belongs to this goroutine until its handler returns.
	sp.Parent, sp.Req = ln.handler, ln.req
	ln.cloud = append(ln.cloud, sp)
}

func (s *tracedStore) Put(key string, data []byte) error {
	if !s.tr.rec.enabled() {
		return s.Store.Put(key, data)
	}
	start := time.Now()
	err := s.Store.Put(key, data)
	s.note("put", start)
	return err
}

func (s *tracedStore) Get(key string) ([]byte, error) {
	if !s.tr.rec.enabled() {
		return s.Store.Get(key)
	}
	start := time.Now()
	data, err := s.Store.Get(key)
	s.note("get", start)
	return data, err
}

func (s *tracedStore) GetRange(key string, off, length int64) ([]byte, error) {
	if !s.tr.rec.enabled() {
		return s.Store.GetRange(key, off, length)
	}
	start := time.Now()
	data, err := s.Store.GetRange(key, off, length)
	s.note("get_range", start)
	return data, err
}

func (s *tracedStore) Delete(key string) error {
	if !s.tr.rec.enabled() {
		return s.Store.Delete(key)
	}
	start := time.Now()
	err := s.Store.Delete(key)
	s.note("delete", start)
	return err
}

func (s *tracedStore) List(prefix string) ([]string, error) {
	if !s.tr.rec.enabled() {
		return s.Store.List(prefix)
	}
	start := time.Now()
	keys, err := s.Store.List(prefix)
	s.note("list", start)
	return keys, err
}
