package remote

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"timeunion/internal/lsm"
	"timeunion/internal/obs"
)

// OpsConfig configures the operational endpoints served next to the data
// API.
type OpsConfig struct {
	// Metrics backs GET /metrics (Prometheus text exposition). Nil
	// disables the endpoint (404).
	Metrics *obs.Registry
	// Journal backs GET /api/v1/events (NDJSON operational event stream,
	// DESIGN.md §4.12). Nil disables the endpoint (404).
	Journal *obs.Journal
	// Tree backs GET /api/v1/lsmtree (live table inventory). The callback
	// returns ok=false when no time-partitioned tree is running (the
	// endpoint answers 404). Nil disables the endpoint entirely.
	Tree func() (lsm.TreeSnapshot, bool)
	// Debug mounts net/http/pprof under /debug/pprof/ (the tuserve -debug
	// flag); off by default so profiling endpoints are never exposed
	// unintentionally.
	Debug bool
	// SlowQueryLog, when >0, wraps the handler so queries slower than the
	// threshold dump their span tree via Logf.
	SlowQueryLog time.Duration
	// Logf receives slow-query dumps (default: discards them).
	Logf func(format string, args ...any)
}

// NewOpsHandler wraps api with the operational surface:
//
//	GET /metrics        — Prometheus text exposition of cfg.Metrics
//	GET /healthz        — 200 "ok" liveness probe
//	GET /api/v1/events  — NDJSON operational event journal (cfg.Journal)
//	GET /api/v1/lsmtree — live LSM table inventory (cfg.Tree)
//	/debug/pprof/       — stdlib profiling endpoints, only when cfg.Debug
//
// plus (when cfg.SlowQueryLog > 0) per-query tracing: every
// /api/v1/query and /api/v1/query_stream request carries an obs.Trace in
// its context, and requests exceeding the threshold log their span tree.
// HTTP request/error counters are registered on cfg.Metrics when present.
func NewOpsHandler(api http.Handler, cfg OpsConfig) http.Handler {
	mux := http.NewServeMux()
	if cfg.Metrics != nil {
		mux.Handle("/metrics", obs.Handler(cfg.Metrics))
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	if cfg.Journal != nil {
		mux.HandleFunc("/api/v1/events", func(w http.ResponseWriter, r *http.Request) {
			serveEvents(w, r, cfg.Journal)
		})
	}
	if cfg.Tree != nil {
		mux.HandleFunc("/api/v1/lsmtree", func(w http.ResponseWriter, r *http.Request) {
			serveTree(w, r, cfg.Tree)
		})
	}
	if cfg.Debug {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.Handle("/", instrumentAPI(api, cfg))
	return mux
}

// serveEvents streams the journal as NDJSON, one obs.Event per line,
// oldest first. ?since_seq=N resumes after sequence N (a poll cursor);
// ?kind=a,b filters to the named event kinds.
func serveEvents(w http.ResponseWriter, r *http.Request, j *obs.Journal) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var sinceSeq uint64
	if s := r.URL.Query().Get("since_seq"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, "bad since_seq: "+err.Error(), http.StatusBadRequest)
			return
		}
		sinceSeq = v
	}
	var kinds map[string]bool
	if s := r.URL.Query().Get("kind"); s != "" {
		kinds = map[string]bool{}
		for _, k := range strings.Split(s, ",") {
			if k = strings.TrimSpace(k); k != "" {
				kinds[k] = true
			}
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w) // Encode appends the newline NDJSON wants
	for _, e := range j.Events(sinceSeq, kinds) {
		if err := enc.Encode(e); err != nil {
			return // client went away mid-stream
		}
	}
}

// serveTree renders the live LSM table inventory as one JSON document.
func serveTree(w http.ResponseWriter, r *http.Request, tree func() (lsm.TreeSnapshot, bool)) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	snap, ok := tree()
	if !ok {
		http.Error(w, "no time-partitioned LSM-tree running", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snap)
}

// instrumentAPI wraps the data API with request counters and the per-query
// trace / slow-query log.
func instrumentAPI(api http.Handler, cfg OpsConfig) http.Handler {
	var requests, errors *obs.Counter
	if cfg.Metrics != nil {
		requests = cfg.Metrics.Counter("timeunion_http_requests_total", "", "Data-API HTTP requests served.")
		errors = cfg.Metrics.Counter("timeunion_http_errors_total", "", "Data-API HTTP requests answered with status >= 400.")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if cfg.SlowQueryLog > 0 && (r.URL.Path == "/api/v1/query" || r.URL.Path == "/api/v1/query_stream") {
			tr := obs.NewTrace(r.URL.Path)
			api.ServeHTTP(sw, r.WithContext(obs.ContextWithTrace(r.Context(), tr)))
			tr.Finish()
			if tr.Duration() >= cfg.SlowQueryLog {
				logf("slow query (%s >= %s):\n%s", tr.Duration().Round(time.Microsecond), cfg.SlowQueryLog, tr.Render())
			}
		} else {
			api.ServeHTTP(sw, r)
		}
		if sw.status >= 400 {
			errors.Inc()
		}
	})
}

// statusWriter records the response status for the error counter. It does
// not forward http.Flusher, and nothing behind it needs it: query_stream
// leaves its lines to net/http's buffering (see NewServer).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}
