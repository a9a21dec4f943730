package main

import (
	"runtime"
	"syscall"
	"time"

	"timeunion/internal/cloud"
	"timeunion/internal/obs"
)

// counters is a reading of everything the program already exports, taken
// at the edges of the timed window so the metrics are deltas over it.
type counters struct {
	at         time.Time
	reg        map[string]float64
	fast, slow cloud.Stats
	hits, miss uint64
	journalSeq uint64
	cpu        time.Duration
	gcPauseNs  uint64
}

func takeCounters(s *stack) counters {
	c := counters{
		at:         time.Now(),
		reg:        s.db.Metrics().Snapshot(),
		fast:       s.fast.Stats(),
		slow:       s.slow.Stats(),
		journalSeq: s.db.Journal().LastSeq(),
		cpu:        processCPU(),
	}
	c.hits, c.miss = s.db.Cache().HitRate()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.gcPauseNs = ms.PauseTotalNs
	return c
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// modelledStore is what the Fig-1 EBS and S3 models say the two tiers would
// have added between two readings, reads and writes together.
func modelledStore(before, after counters) time.Duration {
	d := func(b, a cloud.Stats) time.Duration {
		return (a.SimReadTime - b.SimReadTime) + (a.SimWriteTime - b.SimWriteTime)
	}
	return d(before.fast, after.fast) + d(before.slow, after.slow)
}

// number reads a journal field, which is a JSON scalar of whatever integer
// or float type the emitter used.
func number(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case uint64:
		return float64(x)
	case uint32:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

// exported fills in every per-layer metric that is a delta of something the
// program exports: the metrics registry, the stores' own accounting, the
// cache counters and the fields of journal events.
func exported(v values, s *stack, before, after counters, queries float64) {
	delta := func(name string) float64 { return after.reg[name] - before.reg[name] }

	v["remote.requests"] = delta("timeunion_http_requests_total")
	v["remote.errors"] = delta("timeunion_http_errors_total")

	v["head.chunks_flushed"] = delta(`timeunion_head_chunks_flushed_total{kind="series"}`) +
		delta(`timeunion_head_chunks_flushed_total{kind="group"}`)
	v["head.ooo_rewrites"] = delta("timeunion_head_ooo_rewrites_total")
	v["head.early_flushes"] = delta("timeunion_head_early_flushes_total")
	st := s.db.Stats()
	series := 0 // individual series plus group members
	for _, def := range s.db.Head().CatalogSnapshot() {
		if def.Kind != "group" {
			series++
		}
	}
	v["head.bytes_per_series"] = ratio(float64(st.Memory.Total()), float64(series))
	v["index.bytes"] = float64(st.Memory.IndexBytes)

	v["wal.records"] = delta("timeunion_wal_records_total")
	v["wal.fsyncs"] = delta("timeunion_wal_fsync_seconds_count")
	v["wal.fsync_busy_s"] = delta("timeunion_wal_fsync_seconds_sum")
	v["wal.segment_rolls"] = delta("timeunion_wal_segment_rolls_total")
	v["wal.purged_segments"] = delta("timeunion_wal_purged_segments_total")

	v["lsm.flushes"] = delta("timeunion_lsm_flushes_total")
	v["lsm.flush_busy_s"] = delta("timeunion_lsm_flush_seconds_sum")
	v["lsm.compactions_l0l1"] = delta(`timeunion_lsm_compactions_total{path="l0l1"}`)
	v["lsm.compactions_l1l2"] = delta(`timeunion_lsm_compactions_total{path="l1l2"}`)
	v["lsm.compaction_busy_s"] = delta("timeunion_lsm_compaction_seconds_sum")
	v["lsm.patches_created"] = delta("timeunion_lsm_patches_created_total")
	v["lsm.patch_merges"] = delta("timeunion_lsm_patch_merges_total")
	v["lsm.manifest_commits"] = delta("timeunion_lsm_manifest_commits_total")
	v["lsm.level_bytes_l0"] = after.reg[`timeunion_lsm_level_bytes{level="0"}`]
	v["lsm.level_bytes_l1"] = after.reg[`timeunion_lsm_level_bytes{level="1"}`]
	v["lsm.level_bytes_l2"] = after.reg[`timeunion_lsm_level_bytes{level="2"}`]
	var queueUs, bytesIn, bytesOut float64
	compactions := map[string]bool{"lsm.compact.l0l1": true, "lsm.compact.l1l2": true}
	for _, e := range journalSince(s.db.Journal(), before.journalSeq, after.journalSeq, compactions) {
		queueUs += number(e.Fields["queue_us"])
		bytesIn += number(e.Fields["bytes_in"])
		bytesOut += number(e.Fields["bytes_out"])
	}
	v["lsm.compaction_queue_wait_s"] = queueUs / 1e6
	v["lsm.compaction_bytes_in"] = bytesIn
	v["lsm.compaction_bytes_out"] = bytesOut

	tier := func(name string, b, a cloud.Stats) {
		v["cloud."+name+".gets"] = float64(a.Gets - b.Gets)
		v["cloud."+name+".puts"] = float64(a.Puts - b.Puts)
		v["cloud."+name+".read_bytes"] = float64(a.BytesRead - b.BytesRead)
		v["cloud."+name+".written_bytes"] = float64(a.BytesWritten - b.BytesWritten)
	}
	tier("fast", before.fast, after.fast)
	tier("slow", before.slow, after.slow)
	v["cloud.modelled_read_s"] = seconds((after.fast.SimReadTime - before.fast.SimReadTime) +
		(after.slow.SimReadTime - before.slow.SimReadTime))
	v["cloud.modelled_write_s"] = seconds((after.fast.SimWriteTime - before.fast.SimWriteTime) +
		(after.slow.SimWriteTime - before.slow.SimWriteTime))
	v["cloud.slow.gets_per_query"] = ratio(float64(after.slow.Gets-before.slow.Gets), queries)
	hits, misses := float64(after.hits-before.hits), float64(after.miss-before.miss)
	v["cloud.cache.hits"] = hits
	v["cloud.cache.misses"] = misses
	v["cloud.cache.hit_ratio"] = ratio(hits, hits+misses)
	v["cloud.cache.evictions"] = delta("timeunion_cache_evictions_total")
	v["cloud.cache.shared_fetches"] = delta("timeunion_cache_shared_fetches_total")
	v["cloud.cache.used_bytes"] = after.reg["timeunion_cache_used_bytes"]

	v["chunkenc.chunks_decoded"] = delta("timeunion_db_chunks_decoded_total")
	v["chunkenc.decoded_bytes"] = delta("timeunion_db_decoded_bytes_total")

	v["process.cpu_s"] = seconds(after.cpu - before.cpu)
	v["process.peak_rss_mb"] = peakRSSMB()
	v["process.gc_pause_ms"] = float64(after.gcPauseNs-before.gcPauseNs) / 1e6
}

// journalSince returns the events of the given kinds with a sequence number
// in (from, to].
func journalSince(j *obs.Journal, from, to uint64, kinds map[string]bool) []obs.Event {
	events := j.Events(from, kinds)
	for i, e := range events {
		if e.Seq > to {
			return events[:i]
		}
	}
	return events
}

// liveMemoryMB is the heap still reachable after a collection plus the
// head's memory-mapped arrays, which the Go heap does not see.
func liveMemoryMB(s *stack) float64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what finalizers and pools held through the first
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := s.db.Stats()
	mapped := s.db.Head().Index().Stats().TrieBytes + st.Memory.ChunkSlotBytes
	return (float64(ms.HeapAlloc) + float64(mapped)) / (1 << 20)
}
