package core

import (
	"timeunion/internal/cloud"
	"timeunion/internal/obs"
)

// appendSampleMask picks which appends get a latency measurement: one in 64
// per counter shard. Per-sample time.Now() calls would dominate the
// fast-path append cost; sampling keeps the histogram representative while
// the common append pays only one sharded atomic increment.
const appendSampleMask = 63

// dbMetrics bundles the DB-level instruments. A nil *dbMetrics disables
// all of them (Options.DisableMetrics).
type dbMetrics struct {
	// appends is sharded by series/group id: the per-sample append path is
	// the hottest counter in the system and a single cache line would
	// bounce between the parallel writers.
	appends   obs.ShardedCounter
	appendLat *obs.Histogram

	queries   *obs.Counter
	queryErrs *obs.Counter
	queryLat  *obs.Histogram

	// Streaming read path: compressed payload bytes (and chunk/column
	// opens) actually decoded by queries. Chunks pruned by envelope time
	// bounds or never reached by a Seek don't count — the gap between
	// these and lsm_read bytes is the lazy-decode win.
	decodedBytes  *obs.Counter
	decodedChunks *obs.Counter

	// catalogPruned counts stale catalog/%020d objects the writer deleted
	// after a publish (DESIGN.md §4.13).
	catalogPruned *obs.Counter

	recovery *obs.Gauge
}

// newDBMetrics registers the DB-level instruments on reg. Returns nil for a
// nil registry.
func newDBMetrics(reg *obs.Registry) *dbMetrics {
	if reg == nil {
		return nil
	}
	m := &dbMetrics{
		appendLat:     reg.Histogram("timeunion_db_append_seconds", "", "Append latency: every AppendBatch call once, plus 1 in 64 single-sample appends per shard."),
		queries:       reg.Counter("timeunion_db_queries_total", "", "Queries evaluated."),
		queryErrs:     reg.Counter("timeunion_db_query_errors_total", "", "Queries that returned an error."),
		queryLat:      reg.Histogram("timeunion_db_query_seconds", "", "End-to-end query latency."),
		decodedBytes:  reg.Counter("timeunion_db_decoded_bytes_total", "", "Compressed chunk bytes decoded by queries (lazily; pruned chunks excluded)."),
		decodedChunks: reg.Counter("timeunion_db_chunks_decoded_total", "", "Chunks (or group columns) decoded by queries."),
		catalogPruned: reg.Counter("timeunion_db_catalog_pruned_total", "", "Stale catalog versions deleted by the writer after publishing."),
		recovery:      reg.Gauge("timeunion_db_recovery_duration_ms", "", "Duration of the last WAL recovery in milliseconds."),
	}
	reg.CounterFunc("timeunion_db_appends_total", "", "Samples appended: every single-sample append, and every sample of each batch that passed validation.",
		func() float64 { return float64(m.appends.Value()) })
	return m
}

// registerDBGauges exposes the head/store/cache views that already exist as
// Stats() accessors.
func (db *DB) registerDBGauges(reg *obs.Registry) {
	if reg == nil {
		return
	}
	// In the EBS-only configuration (Figure 17) Slow == Fast: the same
	// store is then exposed under both tier labels, which keeps
	// tier-keyed dashboards working at the cost of duplicate values.
	cloud.RegisterStoreMetrics(reg, "fast", db.opts.Fast)
	cloud.RegisterStoreMetrics(reg, "slow", db.opts.Slow)
	cloud.RegisterCacheMetrics(reg, db.cache)
}

// Metrics returns the DB's registry (nil when DisableMetrics was set).
func (db *DB) Metrics() *obs.Registry { return db.metrics }
