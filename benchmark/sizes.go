package main

import "time"

// Frozen geometry shared by every workload. None of it is scaled to the
// host: the benchmark was sized on a 2-core machine and a later change is
// measured with the same numbers.
const (
	// maxProcs pins GOMAXPROCS. Server and load generator share these.
	maxProcs = 2
	// connections is how many HTTP connections (and client goroutines)
	// carry the load: at most the core count.
	connections = 2

	intervalMs   = 10_000 // TSBS DevOps: one round every 10 s
	chunkSamples = 32     // paper default (§3.2)
	hourRounds   = 64     // a scaled "hour": two full chunks per series
	hourMs       = hourRounds * intervalMs

	l0PartitionMs = hourMs     // R1: one hour per L0/L1 time partition
	l2PartitionMs = 4 * hourMs // R2: four hours per L2 time partition
	memTableBytes = 512 << 10  // small, so flushes and compactions cycle in seconds

	// rewriteOffset is added to every value an out-of-order group rewrite
	// carries, so the read-back can tell the rewrite from the first write.
	rewriteOffset = 1000

	// groupWriteRounds is how many timestamps one write_group request holds.
	groupWriteRounds = 10
	// rewriteBackRounds is how far behind a host's newest round a near
	// out-of-order rewrite lands: two L0 partition lengths, so it merges
	// into tables still on the fast tier. A far rewrite lands in the first
	// L2 partition, which set-up has long moved to the slow tier, and
	// becomes a patch there.
	rewriteBackRounds = 2 * hourRounds

	// Latency limits of the open-loop workload: the tier1-slo objectives.
	writeLimit = 50 * time.Millisecond
	queryLimit = 100 * time.Millisecond

	// fullCheckEvery: one query response in this many is decoded in full and
	// compared sample by sample; the others are checked by sample count.
	fullCheckEvery = 16
)

// sizes are the quantities that differ between the frozen benchmark and the
// -smoke scale the manifest test runs.
type sizes struct {
	hosts int

	// ingest_series: rounds sent per second of --seconds. The run is a fixed
	// amount of work, so that bytes per sample and the number of flushes
	// and compactions repeat; 140 rounds/s is what this stack sustained on
	// the 2-core machine the benchmark was sized on.
	ingestRoundsPerSecond int

	// query_hot and query_cold: hours loaded and flushed during set-up, plus
	// one more hour left un-flushed in head and memtable.
	queryHours int
	// queriesPrepared is the length of the seeded query cycle per connection.
	queriesPrepared int
	// coldRangeHours is the span of the long-range cold query.
	coldRangeHours int
	// coldWarmup is how many cold queries run before timing starts, so the
	// cache is full and evicting when the clock starts.
	coldWarmup int

	// mixed_group_rw: rounds preloaded per host group during set-up, and the
	// open-loop rates. The stack saturated at about 520 writes/s with 52
	// queries/s when the benchmark was sized. At half of that, background
	// compaction starves a tenth of the requests of a core and the 95th
	// percentile lands among them, where it does not repeat within a third
	// from run to run; at a fifth it lands clear of them and does.
	mixedPreloadRounds    int
	mixedWritesPerSecond  int
	mixedQueriesPerSecond int

	// Layer replays in the traced run.
	replaySamples int
	replayQueries int
}

var frozen = sizes{
	hosts:                 20,
	ingestRoundsPerSecond: 140,
	queryHours:            16,
	queriesPrepared:       4096,
	coldRangeHours:        12,
	coldWarmup:            600,
	mixedPreloadRounds:    12 * hourRounds,
	mixedWritesPerSecond:  100,
	mixedQueriesPerSecond: 10,
	replaySamples:         200_000,
	replayQueries:         2_000,
}

var smoke = sizes{
	hosts:                 2,
	ingestRoundsPerSecond: 600,
	queryHours:            12,
	queriesPrepared:       64,
	coldRangeHours:        8,
	coldWarmup:            20,
	mixedPreloadRounds:    12 * hourRounds,
	mixedWritesPerSecond:  100,
	mixedQueriesPerSecond: 10,
	replaySamples:         4_000,
	replayQueries:         50,
}
