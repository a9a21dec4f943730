// Package remote implements the end-to-end HTTP layer of the Figure 13
// evaluation: a batch insert/query API over TimeUnion (the paper uses the
// Prometheus remote-write API with 10,000-sample batches), and a Cortex
// simulator — the same HTTP surface over the tsdb engine with an injected
// internal RPC hop per batch, modelling the distributor→ingester gRPC
// communication the paper identifies as Cortex's insert-path overhead.
//
// Substitution note: real remote write is snappy-compressed protobuf; this
// reproduction uses JSON (stdlib only). TimeUnion and the Cortex simulator
// decode the same slow-path body (/api/v1/write) with encoding/json, so that
// comparison is like for like. The fast-path bodies (/api/v1/write_fast and
// /api/v1/write_group by gid), which Cortex lacks (§4.2), go through a
// reflection-free decoder (decode.go) whatever the backend, so the TU-fast
// and TU-Group rows of Figure 13 also gain a cheaper decoder, on top of the
// tag serialization the paper credits them with.
package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"timeunion/internal/core"
	"timeunion/internal/labels"
	"timeunion/internal/tsdb"
)

// Sample is one wire-format data point.
type Sample struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// WriteSeries is one timeseries' batch in a slow-path write.
type WriteSeries struct {
	Labels  map[string]string `json:"labels"`
	Samples []Sample          `json:"samples"`
}

// WriteRequest is the slow-path insert body (Prometheus remote write
// shape: full tag sets with every batch).
type WriteRequest struct {
	Timeseries []WriteSeries `json:"timeseries"`
}

// WriteResponse returns the series IDs assigned to each batch entry, in
// order, enabling fast-path writes afterwards.
type WriteResponse struct {
	IDs []uint64 `json:"ids,omitempty"`
}

// FastWriteEntry is one series' batch in a fast-path write.
type FastWriteEntry struct {
	ID      uint64   `json:"id"`
	Samples []Sample `json:"samples"`
}

// FastWriteRequest is the fast-path insert body (§3.4 second API).
type FastWriteRequest struct {
	Entries []FastWriteEntry `json:"entries"`
}

// GroupWriteRequest inserts shared-timestamp rounds into one group.
type GroupWriteRequest struct {
	GroupTags  map[string]string   `json:"group_tags,omitempty"`
	UniqueTags []map[string]string `json:"unique_tags,omitempty"`
	// Fast path: group ID + slots instead of tags.
	GID   uint64  `json:"gid,omitempty"`
	Slots []int   `json:"slots,omitempty"`
	Times []int64 `json:"times"`
	// Values[i] are the member values at Times[i].
	Values [][]float64 `json:"values"`
}

// GroupWriteResponse returns the group ID and slots for fast-path use.
type GroupWriteResponse struct {
	GID   uint64 `json:"gid"`
	Slots []int  `json:"slots"`
}

// MatcherSpec is a wire-format tag selector.
type MatcherSpec struct {
	Type  string `json:"type"` // "=", "!=", "=~", "!~"
	Name  string `json:"name"`
	Value string `json:"value"`
}

// QueryRequest is the query body.
type QueryRequest struct {
	MinT     int64         `json:"min_t"`
	MaxT     int64         `json:"max_t"`
	Matchers []MatcherSpec `json:"matchers"`
}

// QuerySeries is one result series.
type QuerySeries struct {
	Labels  map[string]string `json:"labels"`
	Samples []Sample          `json:"samples"`
}

// QueryResponse is the query result body.
type QueryResponse struct {
	Series []QuerySeries `json:"series"`
}

func (m MatcherSpec) compile() (*labels.Matcher, error) {
	var t labels.MatchType
	switch m.Type {
	case "=", "":
		t = labels.MatchEqual
	case "!=":
		t = labels.MatchNotEqual
	case "=~":
		t = labels.MatchRegexp
	case "!~":
		t = labels.MatchNotRegexp
	default:
		return nil, fmt.Errorf("remote: unknown matcher type %q", m.Type)
	}
	return labels.NewMatcher(t, m.Name, m.Value)
}

// Backend is the engine behind a server.
type Backend interface {
	Append(ls labels.Labels, t int64, v float64) (uint64, error)
	AppendFast(id uint64, t int64, v float64) error
	AppendGroup(groupTags labels.Labels, uniqueTags []labels.Labels, t int64, vals []float64) (uint64, []int, error)
	AppendGroupFast(gid uint64, slots []int, t int64, vals []float64) error
	Query(mint, maxt int64, matchers ...*labels.Matcher) ([]QuerySeries, error)
}

// BatchBackend is optionally implemented by backends that apply a whole
// fast-path write request as one batch: validated in full before anything
// is applied, and logged as one WAL record before the response is sent.
// Backends without it are served one AppendFast/AppendGroupFast call per
// sample or round.
type BatchBackend interface {
	AppendBatch(*core.Batch) error
}

var batchPool = sync.Pool{New: func() any { return new(core.Batch) }}

// appendBatch fills a pooled batch, applies it and recycles it.
func appendBatch(bb BatchBackend, fill func(*core.Batch)) error {
	batch := batchPool.Get().(*core.Batch)
	fill(batch)
	err := bb.AppendBatch(batch)
	batch.Reset()
	batchPool.Put(batch)
	return err
}

// ContextBackend is optionally implemented by backends whose queries accept
// a context — the server then forwards the request context, which carries
// cancellation and any obs.Trace a middleware attached.
type ContextBackend interface {
	QueryContext(ctx context.Context, mint, maxt int64, matchers ...*labels.Matcher) ([]QuerySeries, error)
}

// SeriesCursor yields a query result one series at a time. Next returns
// the next series, false on exhaustion, or an error that terminates the
// stream.
type SeriesCursor interface {
	Next() (QuerySeries, bool, error)
}

// StreamingBackend is optionally implemented by backends that can evaluate
// a query lazily (TimeUnion's QuerySeriesSet). Backends without it are
// served by materializing Query and replaying the slice.
type StreamingBackend interface {
	QueryStream(ctx context.Context, mint, maxt int64, matchers ...*labels.Matcher) (SeriesCursor, error)
}

// NewServer builds an http.Handler exposing the batch API over a backend.
func NewServer(b Backend) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/write", func(w http.ResponseWriter, r *http.Request) {
		var req WriteRequest
		if !decode(w, r, &req) {
			return
		}
		resp := WriteResponse{IDs: make([]uint64, 0, len(req.Timeseries))}
		for _, ts := range req.Timeseries {
			ls := labels.FromMap(ts.Labels)
			var id uint64
			for _, s := range ts.Samples {
				var err error
				id, err = b.Append(ls, s.T, s.V)
				if err != nil {
					httpError(w, err)
					return
				}
			}
			resp.IDs = append(resp.IDs, id)
		}
		reply(w, resp)
	})
	mux.HandleFunc("/api/v1/write_fast", func(w http.ResponseWriter, r *http.Request) {
		if !isPost(w, r) {
			return
		}
		f := getFastWrite()
		defer putFastWrite(f)
		if err := f.decode(r.Body, r.ContentLength); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var err error
		if bb, ok := b.(BatchBackend); ok {
			err = appendBatch(bb, func(batch *core.Batch) {
				for _, s := range f.samples {
					batch.Add(s.id, s.t, s.v)
				}
			})
		} else {
			for _, s := range f.samples {
				if err = b.AppendFast(s.id, s.t, s.v); err != nil {
					break
				}
			}
		}
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, fastWriteReply)
	})
	mux.HandleFunc("/api/v1/write_group", func(w http.ResponseWriter, r *http.Request) {
		if !isPost(w, r) {
			return
		}
		g := getGroupWrite()
		defer putGroupWrite(g)
		if err := g.decode(r.Body, r.ContentLength); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(g.times) != len(g.ends) {
			http.Error(w, "remote: times/values mismatch", http.StatusBadRequest)
			return
		}
		gid, slots, hasSlots := g.gid, g.slots, g.hasSlots
		var err error
		switch bb, batched := b.(BatchBackend); {
		case gid != 0 && batched:
			err = appendBatch(bb, func(batch *core.Batch) {
				for i, t := range g.times {
					batch.AddGroup(gid, slots, t, g.row(i))
				}
			})
		case gid != 0:
			for i, t := range g.times {
				if err = b.AppendGroupFast(gid, slots, t, g.row(i)); err != nil {
					break
				}
			}
		default:
			gTags := labels.FromMap(g.groupTags)
			uniques := make([]labels.Labels, len(g.uniqueTags))
			for i, m := range g.uniqueTags {
				uniques[i] = labels.FromMap(m)
			}
			slots = nil
			for i, t := range g.times {
				if gid, slots, err = b.AppendGroup(gTags, uniques, t, g.row(i)); err != nil {
					break
				}
			}
			hasSlots = slots != nil
		}
		if err != nil {
			httpError(w, err)
			return
		}
		g.body = appendGroupReply(g.body[:0], gid, slots, hasSlots)
		writeJSON(w, g.body)
	})
	mux.HandleFunc("/api/v1/query", func(w http.ResponseWriter, r *http.Request) {
		var req QueryRequest
		if !decode(w, r, &req) {
			return
		}
		ms := make([]*labels.Matcher, 0, len(req.Matchers))
		for _, spec := range req.Matchers {
			m, err := spec.compile()
			if err != nil {
				httpError(w, err)
				return
			}
			ms = append(ms, m)
		}
		var series []QuerySeries
		var err error
		if cb, ok := b.(ContextBackend); ok {
			series, err = cb.QueryContext(r.Context(), req.MinT, req.MaxT, ms...)
		} else {
			series, err = b.Query(req.MinT, req.MaxT, ms...)
		}
		if err != nil {
			httpError(w, err)
			return
		}
		// The whole body is encoded before anything is written, so a value
		// JSON cannot carry (a NaN or ±Inf sample) is a 500, not a 200.
		buf := getLineBuf()
		defer putLineBuf(buf)
		*buf, err = appendQueryBody(*buf, series)
		if err != nil {
			httpError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(*buf)
	})
	// query_stream is the NDJSON streaming variant: one QuerySeries JSON
	// object per line, encoded as each series is evaluated, so a client can
	// process early series while the backend is still decoding later ones.
	// The handler does not flush per series: lines reach the client in
	// net/http's 4 KiB chunks and at the end of the response. Series arrive
	// in the backend's evaluation order, not sorted by labels. A mid-stream
	// failure — headers may already be out — is reported as a final
	// {"error": "..."} line after the last complete series; a series that
	// fails part-way writes none of its line.
	mux.HandleFunc("/api/v1/query_stream", func(w http.ResponseWriter, r *http.Request) {
		var req QueryRequest
		if !decode(w, r, &req) {
			return
		}
		ms := make([]*labels.Matcher, 0, len(req.Matchers))
		for _, spec := range req.Matchers {
			m, err := spec.compile()
			if err != nil {
				httpError(w, err)
				return
			}
			ms = append(ms, m)
		}
		cursor, err := queryCursor(r.Context(), b, req.MinT, req.MaxT, ms)
		if err != nil {
			httpError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		buf := getLineBuf()
		defer putLineBuf(buf)
		for {
			line, ok, err := appendNextLine((*buf)[:0], cursor)
			*buf = line
			if err != nil {
				// Nothing of the failed series is written: the error line
				// follows the last complete one. If the client went away,
				// this write fails too.
				*buf = appendErrorLine(line[:0], err)
				_, _ = w.Write(*buf)
				return
			}
			if !ok {
				return
			}
			if _, err := w.Write(line); err != nil {
				return // the client went away
			}
		}
	})
	return mux
}

// queryCursor picks the backend's best streaming capability.
func queryCursor(ctx context.Context, b Backend, mint, maxt int64, ms []*labels.Matcher) (SeriesCursor, error) {
	if sb, ok := b.(StreamingBackend); ok {
		return sb.QueryStream(ctx, mint, maxt, ms...)
	}
	var series []QuerySeries
	var err error
	if cb, ok := b.(ContextBackend); ok {
		series, err = cb.QueryContext(ctx, mint, maxt, ms...)
	} else {
		series, err = b.Query(mint, maxt, ms...)
	}
	if err != nil {
		return nil, err
	}
	return &sliceCursor{series: series}, nil
}

// appendNextLine appends the cursor's next series and a newline to dst,
// straight from the engine's iterator when the cursor can, otherwise by
// encoding the QuerySeries its Next returns.
func appendNextLine(dst []byte, cursor SeriesCursor) ([]byte, bool, error) {
	var ok bool
	var err error
	if a, direct := cursor.(lineAppender); direct {
		dst, ok, err = a.appendNext(dst)
	} else {
		var qs QuerySeries
		if qs, ok, err = cursor.Next(); ok && err == nil {
			dst, err = appendQuerySeries(dst, qs)
		}
	}
	if err != nil || !ok {
		return dst, false, err
	}
	return append(dst, '\n'), true, nil
}

type sliceCursor struct{ series []QuerySeries }

func (c *sliceCursor) Next() (QuerySeries, bool, error) {
	if len(c.series) == 0 {
		return QuerySeries{}, false, nil
	}
	qs := c.series[0]
	c.series = c.series[1:]
	return qs, true, nil
}

func isPost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if !isPost(w, r) {
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// reply answers /api/v1/write. It encodes v before writing anything, so an
// encoding failure is a 500, not an empty 200.
func reply(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, append(body, '\n'))
}

func writeJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

func httpError(w http.ResponseWriter, err error) {
	switch {
	// A mutation against a read replica is the caller's routing mistake,
	// not a server fault: 403 tells the client to redirect writes to the
	// writer instead of retrying here.
	case errors.Is(err, core.ErrReadOnly):
		http.Error(w, err.Error(), http.StatusForbidden)
	// A batch that failed validation had nothing applied and fails the
	// same way every time: 400 tells the client not to retry it.
	case errors.Is(err, core.ErrInvalidBatch):
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// TimeUnionBackend adapts core.DB to the Backend interface.
type TimeUnionBackend struct {
	DB *core.DB
}

// Append implements Backend.
func (b *TimeUnionBackend) Append(ls labels.Labels, t int64, v float64) (uint64, error) {
	return b.DB.Append(ls, t, v)
}

// AppendFast implements Backend.
func (b *TimeUnionBackend) AppendFast(id uint64, t int64, v float64) error {
	return b.DB.AppendFast(id, t, v)
}

// AppendGroup implements Backend.
func (b *TimeUnionBackend) AppendGroup(g labels.Labels, u []labels.Labels, t int64, vals []float64) (uint64, []int, error) {
	return b.DB.AppendGroup(g, u, t, vals)
}

// AppendGroupFast implements Backend.
func (b *TimeUnionBackend) AppendGroupFast(gid uint64, slots []int, t int64, vals []float64) error {
	return b.DB.AppendGroupFast(gid, slots, t, vals)
}

// AppendBatch implements BatchBackend.
func (b *TimeUnionBackend) AppendBatch(batch *core.Batch) error {
	return b.DB.AppendBatch(batch)
}

// Query implements Backend.
func (b *TimeUnionBackend) Query(mint, maxt int64, ms ...*labels.Matcher) ([]QuerySeries, error) {
	return b.QueryContext(context.Background(), mint, maxt, ms...)
}

// QueryStream implements StreamingBackend over the engine's lazy
// QuerySeriesSet: each series' chunks decode only when the cursor reaches
// it, so early series reach the wire while later ones are still cold.
func (b *TimeUnionBackend) QueryStream(ctx context.Context, mint, maxt int64, ms ...*labels.Matcher) (SeriesCursor, error) {
	set, err := b.DB.QuerySeriesSet(ctx, mint, maxt, ms...)
	if err != nil {
		return nil, err
	}
	return &seriesSetCursor{set: set}, nil
}

type seriesSetCursor struct{ set core.SeriesSet }

// lineAppender is implemented by cursors that can write their next series
// straight into the response's line buffer. The query_stream handler
// prefers it to Next, which builds a QuerySeries only to encode it.
type lineAppender interface {
	// appendNext appends the next series' JSON object to dst. It reports
	// false on exhaustion; on error, dst may hold part of the series.
	appendNext(dst []byte) ([]byte, bool, error)
}

// Next builds the series as a QuerySeries, for callers that wrap the
// cursor; the query_stream handler itself uses appendNext.
func (c *seriesSetCursor) Next() (QuerySeries, bool, error) {
	if !c.set.Next() {
		return QuerySeries{}, false, c.set.Err()
	}
	e := c.set.At()
	qs := QuerySeries{Labels: map[string]string{}}
	for _, l := range e.Labels {
		qs.Labels[l.Name] = l.Value
	}
	for e.Iterator.Next() {
		t, v := e.Iterator.At()
		qs.Samples = append(qs.Samples, Sample{T: t, V: v})
	}
	if err := e.Iterator.Err(); err != nil {
		return QuerySeries{}, false, err
	}
	return qs, true, nil
}

func (c *seriesSetCursor) appendNext(dst []byte) ([]byte, bool, error) {
	if !c.set.Next() {
		return dst, false, c.set.Err()
	}
	e := c.set.At()
	dst, err := appendEntry(dst, e.Labels, e.Iterator)
	return dst, err == nil, err
}

// QueryContext implements ContextBackend, forwarding cancellation and any
// attached trace down to the engine.
func (b *TimeUnionBackend) QueryContext(ctx context.Context, mint, maxt int64, ms ...*labels.Matcher) ([]QuerySeries, error) {
	res, err := b.DB.QueryContext(ctx, mint, maxt, ms...)
	if err != nil {
		return nil, err
	}
	out := make([]QuerySeries, 0, len(res))
	for _, s := range res {
		qs := QuerySeries{Labels: map[string]string{}}
		for _, l := range s.Labels {
			qs.Labels[l.Name] = l.Value
		}
		for _, p := range s.Samples {
			qs.Samples = append(qs.Samples, Sample{T: p.T, V: p.V})
		}
		out = append(out, qs)
	}
	return out, nil
}

// CortexSim is the Cortex stand-in: the tsdb engine behind the same HTTP
// API, with an internal hop latency added to every operation batch (the
// gRPC communication of Cortex's distributor→ingester path, which the
// paper names as the reason Cortex's insert throughput trails TU by 26.6%).
// Cortex has no fast-path or group APIs (§4.2: "Cortex does not support
// fast-path insertion"): those calls fall back to the slow path.
type CortexSim struct {
	DB *tsdb.DB
	// HopLatency is the injected per-request internal RPC cost.
	HopLatency time.Duration

	hopCount atomic.Int64
}

func (c *CortexSim) hop() {
	c.hopCount.Add(1)
	if c.HopLatency > 0 {
		time.Sleep(c.HopLatency)
	}
}

// Hops returns how many internal RPC hops were simulated.
func (c *CortexSim) Hops() int64 { return c.hopCount.Load() }

// Append implements Backend.
func (c *CortexSim) Append(ls labels.Labels, t int64, v float64) (uint64, error) {
	c.hop()
	return c.DB.Append(ls, t, v)
}

// AppendFast implements Backend. Cortex has no fast path; it re-resolves
// by ID through the engine, paying the hop regardless.
func (c *CortexSim) AppendFast(id uint64, t int64, v float64) error {
	c.hop()
	return c.DB.AppendFast(id, t, v)
}

// AppendGroup implements Backend: no group model — every member is written
// as an individual series with the union of tags.
func (c *CortexSim) AppendGroup(g labels.Labels, u []labels.Labels, t int64, vals []float64) (uint64, []int, error) {
	c.hop()
	for i, unique := range u {
		if _, err := c.DB.Append(labels.Merge(g, unique), t, vals[i]); err != nil {
			return 0, nil, err
		}
	}
	return 0, nil, nil
}

// AppendGroupFast implements Backend; unsupported in Cortex.
func (c *CortexSim) AppendGroupFast(gid uint64, slots []int, t int64, vals []float64) error {
	return fmt.Errorf("remote: cortex-sim has no group fast path")
}

// Query implements Backend.
func (c *CortexSim) Query(mint, maxt int64, ms ...*labels.Matcher) ([]QuerySeries, error) {
	c.hop()
	res, err := c.DB.Query(mint, maxt, ms...)
	if err != nil {
		return nil, err
	}
	out := make([]QuerySeries, 0, len(res))
	for _, s := range res {
		qs := QuerySeries{Labels: map[string]string{}}
		for _, l := range s.Labels {
			qs.Labels[l.Name] = l.Value
		}
		for _, p := range s.Samples {
			qs.Samples = append(qs.Samples, Sample{T: p.T, V: p.V})
		}
		out = append(out, qs)
	}
	return out, nil
}
