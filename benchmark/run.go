package main

import "path/filepath"

// runConfig is one invocation: one workload, one seed, traced or not.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	outDir   string // benchmark/out: store directories, WAL, span files
}

// outcome is what a workload hands back: its measurements, and how many
// operations (requests and answer checks) it attempted and how many failed.
type outcome struct {
	v                 values
	attempted, failed int
}

// workload pairs a name of BENCHMARK.json, which also says why each exists,
// with the function that runs it.
type workload struct {
	name string
	run  func(cfg runConfig) (outcome, error)
}

var workloads = []workload{
	{"ingest_series", runIngestSeries},
	{"query_hot", runQueryHot},
	{"query_cold", runQueryCold},
	{"mixed_group_rw", runMixedGroupRW},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runDir is where this run's stores and WAL live. It is removed when the
// run ends; a directory a killed run left behind is removed by the next.
func (cfg runConfig) runDir() string {
	return filepath.Join(cfg.outDir, "run-"+cfg.workload)
}

// tracing returns what the traced run installs, or nil.
func (cfg runConfig) tracing() *tracing {
	if cfg.trace {
		return newTracing()
	}
	return nil
}

// tracedShare is the part of the traced run's timed phase that runs with
// the recorder on. The first part runs with the wrappers installed but
// passing through, and gives the untraced latency the tracing overhead is
// measured against in the same process.
const tracedShare = 0.7

// finishTrace fills in the metrics that come from spans and writes the
// span file.
func finishTrace(cfg runConfig, tr *tracing, v values) error {
	tr.rec.on.Store(false)
	spanMetrics(v, tr)
	return tr.rec.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), cfg.workload, cfg.seed)
}

// spanMetrics derives the per-layer timings from the recorder's totals.
func spanMetrics(v values, tr *tracing) {
	rec := tr.rec
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	hw, hq := rec.total("remote.handler.write"), rec.total("remote.handler.query")
	v["remote.write.busy_s"], v["remote.write.self_s"] = sec(hw.Busy), sec(hw.Self)
	v["remote.query.busy_s"], v["remote.query.self_s"] = sec(hq.Busy), sec(hq.Self)
	ca, cq := rec.total("core.append"), rec.total("core.query")
	v["core.append.calls"], v["core.append.busy_s"] = float64(ca.Calls), sec(ca.Busy)
	v["core.query.calls"], v["core.query.busy_s"] = float64(cq.Count), sec(cq.Busy)
	v["core.query.series_returned"] = float64(tr.series.Load())
	v["core.query.samples_returned"] = float64(tr.samples.Load())
	v["index.select.busy_s"] = sec(rec.total("core.query.index_select").Busy)
	v["head.scan.busy_s"] = sec(rec.total("core.query.head_scan").Busy)
	v["lsm.read.busy_s"] = sec(rec.total("core.query.lsm_read").Busy)
	// The materialising path reports a decode stage; the streaming path
	// decodes lazily inside the cursor, outside any stage, so its decode
	// and merge time is what core.query spends outside its stages.
	v["chunkenc.decode.busy_s"] = sec(rec.total("core.query.decode").Busy + cq.Self)
	for _, tier := range []string{"fast", "slow"} {
		var busy int64
		for _, op := range []string{"put", "get", "get_range", "delete", "list"} {
			busy += rec.total("cloud." + tier + "." + op).Busy
		}
		v["cloud."+tier+".busy_s"] = sec(busy)
	}
	cw, cqr := rec.total("client.request.write"), rec.total("client.request.query")
	v["loadgen.http_transport_s"] = sec(cw.Self + cqr.Self)
	v["ledger.write_explained_ratio"] = ratio(float64(cw.Busy-cw.Self), float64(cw.Busy))
	v["ledger.query_explained_ratio"] = ratio(float64(cqr.Busy-cqr.Self), float64(cqr.Busy))
	v["chunkenc.decode_waste_ratio"] = 0 // set by the query workloads, which know what was returned
}

// loadgenMetrics reports what the load generator saw, by request kind.
func loadgenMetrics(v values, clients []*client, primary reqKind) {
	w, q := summarise(clients, kindWrite), summarise(clients, kindQuery)
	all := summarise(clients)
	v["loadgen.write_requests"], v["loadgen.query_requests"] = float64(w.n), float64(q.n)
	v["loadgen.write_p50_ms"], v["loadgen.write_p95_ms"] = w.p50, w.p95
	v["loadgen.write_p99_ms"], v["loadgen.write_max_ms"] = w.p99, w.max
	v["loadgen.query_p50_ms"], v["loadgen.query_p95_ms"] = q.p50, q.p95
	v["loadgen.query_p99_ms"], v["loadgen.query_max_ms"] = q.p99, q.max
	v["loadgen.max_lag_ms"] = all.maxLag
	v["loadgen.over_limit_ratio"] = ratio(float64(all.over), float64(all.n))
	p := summarise(clients, primary)
	v["loadgen.tracing_overhead_ratio"] = ratio(p.tracedP50, p.untracedP50)
}
