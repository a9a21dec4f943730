package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. An aggregate span stands
// for many short calls made inside its parent (1010 appends of one write
// request, the lsm_read stage of one query): its start and end bracket the
// calls and busy is the time actually spent in them. For a plain span busy
// equals end minus start.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: no parent; backgroundParent: background work
	Req    uint64 `json:"req"`    // request id shared by every span of one request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Calls  int64  `json:"calls,omitempty"` // aggregate spans: calls folded in
}

// backgroundParent is the parent of store calls made off any request's
// goroutine: flush, compaction and query workers.
const backgroundParent = -1

// maxSpansWritten bounds the span file; totals always cover every span.
const maxSpansWritten = 100_000

// recorder keeps spans in memory while tracing is on and writes them out
// when the workload ends. Totals per span name are folded as spans arrive
// so the metrics do not depend on how many spans the file keeps.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	next  atomic.Int64

	mu     sync.Mutex
	spans  []span
	totals map[string]*spanTotal
}

// spanTotal sums every span of one name.
type spanTotal struct {
	Count int64 `json:"count"`
	Calls int64 `json:"calls"`
	Busy  int64 `json:"busy_ns"`
	Self  int64 `json:"self_ns"`
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), totals: map[string]*spanTotal{}}
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) newID() int64 { return r.next.Add(1) }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// record keeps one finished span, charging it only for the time the spans
// it directly caused do not cover. The children are recorded by their own
// record calls.
func (r *recorder) record(s span, children []span) {
	self := selfTime(s, children)
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.totals[s.Name]
	if t == nil {
		t = &spanTotal{}
		r.totals[s.Name] = t
	}
	t.Count++
	t.Calls += s.Calls
	t.Busy += s.Busy
	t.Self += self
	if len(r.spans) < maxSpansWritten {
		r.spans = append(r.spans, s)
	}
}

func (r *recorder) total(name string) spanTotal {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.totals[name]; t != nil {
		return *t
	}
	return spanTotal{}
}

// selfTime is the parent's busy time minus what its children cover. Plain
// children cover the union of their intervals, clipped to the parent, so
// two children that overlap (parallel query workers) are not charged twice;
// aggregate children are sums of disjoint calls and cover their busy time.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var plain []iv
	covered := int64(0)
	for _, c := range children {
		if c.Busy != c.End-c.Start {
			covered += c.Busy
			continue
		}
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			plain = append(plain, iv{lo, hi})
		}
	}
	sort.Slice(plain, func(i, j int) bool { return plain[i].lo < plain[j].lo })
	end := int64(-1 << 62)
	for _, p := range plain {
		if p.lo > end {
			covered += p.hi - p.lo
			end = p.hi
		} else if p.hi > end {
			covered += p.hi - end
			end = p.hi
		}
	}
	if self := parent.Busy - covered; self > 0 {
		return self
	}
	return 0
}

// write dumps the kept spans and the per-name totals as one JSON document.
func (r *recorder) write(path, workload string, seed int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := int64(0)
	for _, t := range r.totals {
		total += t.Count
	}
	doc := struct {
		Workload  string                `json:"workload"`
		Seed      int64                 `json:"seed"`
		Spans     int64                 `json:"spans_recorded"`
		Truncated bool                  `json:"truncated"`
		Totals    map[string]*spanTotal `json:"totals"`
		Kept      []span                `json:"spans"`
	}{workload, seed, total, total > int64(len(r.spans)), r.totals, r.spans}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		_ = f.Close() // the encode error is the one to report
		return fmt.Errorf("span file %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span file %s: %w", path, err)
	}
	return nil
}
