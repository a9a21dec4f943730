package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"
)

type reqKind uint8

const (
	kindWrite reqKind = iota
	kindQuery
)

func (k reqKind) String() string {
	if k == kindWrite {
		return "write"
	}
	return "query"
}

// sample is one request as the client saw it.
type sample struct {
	kind   reqKind
	ms     float64 // round trip; in the open loop, from when the request was due
	lagMs  float64 // open loop: how long after its due time the request was sent
	failed bool    // transport error, bad status or wrong answer
	over   bool    // open loop: failed, or answered later than its limit allows
	traced bool    // sent while the recorder was on
}

// client is one connection of the load generator: one goroutine, one
// keep-alive HTTP connection, one request in flight.
type client struct {
	hc      *http.Client
	base    string
	tr      *tracing
	resp    bytes.Buffer
	samples []sample
}

func newClient(base string, tr *tracing) *client {
	return &client{
		base: base,
		tr:   tr,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// recording reports whether a request sent now is recorded as spans.
func (c *client) recording() bool { return c.tr != nil && c.tr.rec.enabled() }

// post sends one pre-encoded body and reads the whole response. The
// returned bytes are valid until the next post. In the traced run it
// records the client.request span and charges it with what the handler
// span does not cover: transport, kernel, net/http and scheduling.
func (c *client) post(kind reqKind, path string, body []byte) (resp []byte, start, end time.Time, err error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, start, end, err
	}
	req.Header.Set("Content-Type", "application/json")
	traced := c.recording()
	var id int64
	if traced {
		id = c.tr.rec.newID()
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	start = time.Now()
	r, err := c.hc.Do(req)
	if err == nil {
		c.resp.Reset()
		_, err = io.Copy(&c.resp, r.Body)
		if cerr := r.Body.Close(); err == nil {
			err = cerr
		}
		if err == nil && r.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s: %s: %s", path, r.Status, bytes.TrimSpace(c.resp.Bytes()))
		}
	}
	end = time.Now()
	if traced {
		rec := c.tr.rec
		s := span{ID: id, Req: uint64(id), Name: "client.request." + kind.String(),
			Start: rec.since(start), End: rec.since(end)}
		s.Busy = s.End - s.Start
		var children []span
		if h, ok := c.tr.takeHandled(uint64(id)); ok {
			children = append(children, h)
		}
		rec.record(s, children)
	}
	return c.resp.Bytes(), start, end, err
}

// closedLoop sends the next request as soon as the previous one completes.
// next returns the i-th request of this connection, or ok=false to stop;
// check judges the response. A failed request is counted, not fatal.
func (c *client) closedLoop(next func(i int) (kind reqKind, path string, body []byte, ok bool), check func(i int, resp []byte) error) {
	for i := 0; ; i++ {
		kind, path, body, ok := next(i)
		if !ok {
			return
		}
		traced := c.recording()
		resp, start, end, err := c.post(kind, path, body)
		if err == nil && check != nil {
			err = check(i, resp)
		}
		if err != nil {
			logf("%s request %d failed: %v", kind, i, err)
		}
		c.samples = append(c.samples, sample{kind: kind, ms: millis(end.Sub(start)), failed: err != nil, traced: traced})
	}
}

// op is one scheduled request of the open loop.
type op struct {
	due   time.Duration // offset from the start of the run
	kind  reqKind
	path  string
	body  []byte
	check func(resp []byte) error
}

// openLoop sends each request at its due time, or as soon after as the
// connection is free, and times it from when it was due: a stall then
// counts against every request it delayed. A request that fails or exceeds
// its limit is over the limit.
func (c *client) openLoop(start time.Time, ops []op) {
	for i := range ops {
		o := &ops[i]
		due := start.Add(o.due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		traced := c.recording()
		resp, sent, end, err := c.post(o.kind, o.path, o.body)
		if err == nil && o.check != nil {
			err = o.check(resp)
		}
		if err != nil {
			logf("%s request due at %v failed: %v", o.kind, o.due, err)
		}
		s := openLoopSample(o.kind, due, sent, end, err != nil)
		s.traced = traced
		c.samples = append(c.samples, s)
	}
}

// openLoopSample times one open-loop request from its due time.
func openLoopSample(kind reqKind, due, sent, end time.Time, failed bool) sample {
	limit := writeLimit
	if kind == kindQuery {
		limit = queryLimit
	}
	lat := end.Sub(due)
	lag := sent.Sub(due)
	if lag < 0 {
		lag = 0
	}
	return sample{kind: kind, ms: millis(lat), lagMs: millis(lag), failed: failed, over: failed || lat > limit}
}

// runClients runs fn once per connection, each on its own goroutine, and
// waits for all of them.
func runClients(clients []*client, fn func(i int, c *client)) {
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			fn(i, c)
		}(i, c)
	}
	wg.Wait()
}

// latencies summarises the samples of one kind over the whole run. Each
// percentile falls back to the highest one that still has tailSamples
// samples beyond it when the sample is too small.
type latencies struct {
	n, failed int
	over      int // open loop: requests that failed or missed their limit

	p50, p90, p95, p99 float64
	max                float64
	maxLag             float64
	tracedP50          float64 // requests sent while the recorder was on
	untracedP50        float64
}

// summarise folds the connections' samples of one kind (or of both when
// kinds is nil) into latencies.
func summarise(clients []*client, kinds ...reqKind) latencies {
	var l latencies
	var ms, traced, untraced []float64
	for _, c := range clients {
		for _, s := range c.samples {
			if len(kinds) > 0 && !slices.Contains(kinds, s.kind) {
				continue
			}
			l.n++
			if s.failed {
				l.failed++
			}
			if s.over {
				l.over++
			}
			ms = append(ms, s.ms)
			l.maxLag = max(l.maxLag, s.lagMs)
			if s.traced {
				traced = append(traced, s.ms)
			} else {
				untraced = append(untraced, s.ms)
			}
		}
	}
	sort.Float64s(ms)
	l.p50, l.p90 = tail(ms, 0.50), tail(ms, 0.90)
	l.p95, l.p99 = tail(ms, 0.95), tail(ms, 0.99)
	l.max = percentile(ms, 1)
	l.tracedP50, l.untracedP50 = median(traced), median(untraced)
	return l
}
