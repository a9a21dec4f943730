package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricDef names one metric and its unit. The two lists below are the
// program's side of BENCHMARK.json; manifest_test.go fails when they and
// the manifest differ in either direction.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"samples_per_s", "1/s"},
	{"request_p50_ms", "ms"},
	{"request_p90_ms", "ms"},
	{"stored_bytes_per_sample", "B/sample"},
	{"store_written_bytes_per_sample", "B/sample"},
	{"modelled_store_ms_per_request", "ms"},
	{"live_memory_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	// remote
	{"remote.write.busy_s", "s"},
	{"remote.write.self_s", "s"},
	{"remote.query.busy_s", "s"},
	{"remote.query.self_s", "s"},
	{"remote.requests", "count"},
	{"remote.errors", "count"},
	{"remote.json_decode_ns_per_sample", "ns"},
	{"remote.json_encode_ns_per_sample", "ns"},
	// core
	{"core.append.calls", "count"},
	{"core.append.busy_s", "s"},
	{"core.query.calls", "count"},
	{"core.query.busy_s", "s"},
	{"core.query.series_returned", "count"},
	{"core.query.samples_returned", "count"},
	{"core.reopen_s", "s"},
	// head
	{"head.append_ns_per_sample", "ns"},
	{"head.append_group_ns_per_sample", "ns"},
	{"head.scan.busy_s", "s"},
	{"head.chunks_flushed", "count"},
	{"head.ooo_rewrites", "count"},
	{"head.early_flushes", "count"},
	{"head.bytes_per_series", "B"},
	// index (with trie)
	{"index.select.busy_s", "s"},
	{"index.select_ns_per_op", "ns"},
	{"index.bytes", "B"},
	// wal
	{"wal.log_ns_per_sample", "ns"},
	{"wal.log_group_ns_per_sample", "ns"},
	{"wal.records", "count"},
	{"wal.fsyncs", "count"},
	{"wal.fsync_busy_s", "s"},
	{"wal.segment_rolls", "count"},
	{"wal.purged_segments", "count"},
	{"wal.bytes_per_sample", "B/sample"},
	// memtable
	{"memtable.put_ns_per_chunk", "ns"},
	{"memtable.iter_ns_per_chunk", "ns"},
	// lsm
	{"lsm.flushes", "count"},
	{"lsm.flush_busy_s", "s"},
	{"lsm.compactions_l0l1", "count"},
	{"lsm.compactions_l1l2", "count"},
	{"lsm.compaction_busy_s", "s"},
	{"lsm.compaction_queue_wait_s", "s"},
	{"lsm.compaction_bytes_in", "B"},
	{"lsm.compaction_bytes_out", "B"},
	{"lsm.patches_created", "count"},
	{"lsm.patch_merges", "count"},
	{"lsm.manifest_commits", "count"},
	{"lsm.level_bytes_l0", "B"},
	{"lsm.level_bytes_l1", "B"},
	{"lsm.level_bytes_l2", "B"},
	{"lsm.drain_s", "s"},
	{"lsm.read.busy_s", "s"},
	// sstable
	{"sstable.build_ns_per_entry", "ns"},
	{"sstable.iter_ns_per_entry", "ns"},
	{"sstable.get_ns_hit", "ns"},
	{"sstable.get_ns_miss", "ns"},
	// cloud: stores and LRUCache
	{"cloud.fast.gets", "count"},
	{"cloud.fast.puts", "count"},
	{"cloud.fast.read_bytes", "B"},
	{"cloud.fast.written_bytes", "B"},
	{"cloud.fast.busy_s", "s"},
	{"cloud.slow.gets", "count"},
	{"cloud.slow.puts", "count"},
	{"cloud.slow.read_bytes", "B"},
	{"cloud.slow.written_bytes", "B"},
	{"cloud.slow.busy_s", "s"},
	{"cloud.modelled_read_s", "s"},
	{"cloud.modelled_write_s", "s"},
	{"cloud.slow.gets_per_query", "1/query"},
	{"cloud.cache.hits", "count"},
	{"cloud.cache.misses", "count"},
	{"cloud.cache.hit_ratio", "ratio"},
	{"cloud.cache.evictions", "count"},
	{"cloud.cache.shared_fetches", "count"},
	{"cloud.cache.used_bytes", "B"},
	// chunkenc
	{"chunkenc.decode.busy_s", "s"},
	{"chunkenc.chunks_decoded", "count"},
	{"chunkenc.decoded_bytes", "B"},
	{"chunkenc.decode_waste_ratio", "ratio"},
	{"chunkenc.append_ns_per_sample", "ns"},
	{"chunkenc.iterate_ns_per_sample", "ns"},
	// the benchmark's own accounting
	{"loadgen.write_requests", "count"},
	{"loadgen.query_requests", "count"},
	{"loadgen.write_p50_ms", "ms"},
	{"loadgen.write_p95_ms", "ms"},
	{"loadgen.write_p99_ms", "ms"},
	{"loadgen.write_max_ms", "ms"},
	{"loadgen.query_p50_ms", "ms"},
	{"loadgen.query_p95_ms", "ms"},
	{"loadgen.query_p99_ms", "ms"},
	{"loadgen.query_max_ms", "ms"},
	{"loadgen.max_lag_ms", "ms"},
	{"loadgen.over_limit_ratio", "ratio"},
	{"loadgen.http_transport_s", "s"},
	{"loadgen.tracing_overhead_ratio", "ratio"},
	{"process.cpu_s", "s"},
	{"process.peak_rss_mb", "MB"},
	{"process.gc_pause_ms", "ms"},
	{"ledger.write_explained_ratio", "ratio"},
	{"ledger.query_explained_ratio", "ratio"},
}

// result is what one run prints as the last line of its standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values collects a run's measurements by metric name.
type values map[string]float64

// render keeps exactly the metrics of defs, failing on one that was never
// measured or is not a number: an absent metric must not read as zero.
func (v values) render(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, x)
		}
		out[d.name] = metricValue{Value: x, Unit: d.unit}
	}
	return out, nil
}

func (r result) line() (string, error) {
	b, err := json.Marshal(r)
	return string(b), err
}
