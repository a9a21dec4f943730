// Package timeunion is a Go implementation of TimeUnion, an efficient
// timeseries management system with a unified data model for hybrid cloud
// storage (Wang & Shao, SIGMOD 2022).
//
// TimeUnion stores recent data on a fast cloud block store (EBS-like) and
// older data on a slow cloud object store (S3-like) through an elastic
// time-partitioned LSM-tree; indexes timeseries with a single global
// double-array-trie inverted index backed by memory-mapped file arrays; and
// represents both individual timeseries and timeseries groups (series that
// share timestamps, e.g. all metrics of one host) in one tag-based data
// model.
//
// # Quickstart
//
//	fast, _ := timeunion.NewDirBlockStore("data/fast")
//	slow, _ := timeunion.NewDirObjectStore("data/slow")
//	db, _ := timeunion.Open(timeunion.Options{Dir: "data/local", Fast: fast, Slow: slow})
//	defer db.Close()
//
//	id, _ := db.Append(timeunion.LabelsFromStrings("metric", "cpu", "host", "web-1"), ts, v)
//	_ = db.AppendFast(id, ts2, v2) // fast path: no tag comparisons
//
//	res, _ := db.Query(mint, maxt, timeunion.Equal("metric", "cpu"))
//
// See the examples directory for group-model ingestion, out-of-order
// handling, and dynamic fast-tier budgeting, and DESIGN.md for the full
// architecture.
package timeunion

import (
	"timeunion/internal/cloud"
	"timeunion/internal/core"
	"timeunion/internal/labels"
)

// DB is a TimeUnion database instance. See Open.
type DB = core.DB

// Options configures a database: the two storage tiers, the local directory
// for the write-ahead log and mmap arrays, and the LSM-tree geometry.
type Options = core.Options

// Series is one query result: a full tag set and its samples.
type Series = core.Series

// Batch is one all-or-nothing write for (*DB).AppendBatch: fast-path
// samples by series ID and group rounds by group ID and member slots.
type Batch = core.Batch

// ErrInvalidBatch is wrapped by every (*DB).AppendBatch error found in
// validation, before anything was applied. Test with errors.Is.
var ErrInvalidBatch = core.ErrInvalidBatch

// Stats is a point-in-time resource usage snapshot.
type Stats = core.Stats

// Open creates or recovers a database.
func Open(opts Options) (*DB, error) { return core.Open(opts) }

// OpenReplica opens a read-only replica over the same Fast/Slow stores a
// live writer uses (DESIGN.md §4.13). A replica has no WAL or local state
// (leave Options.Dir empty), serves queries from the writer's committed
// manifests and published series catalog, refreshes its view every
// Options.ReplicaRefreshInterval (default 1s; negative disables the loop —
// drive (*DB).Refresh yourself), and fails every mutation with ErrReadOnly.
func OpenReplica(opts Options) (*DB, error) { return core.OpenReplica(opts) }

// ErrReadOnly is returned (wrapped) by every mutating method of a DB
// opened with OpenReplica. Test with errors.Is.
var ErrReadOnly = core.ErrReadOnly

// Label is one tag pair; Labels is a sorted tag set.
type (
	Label  = labels.Label
	Labels = labels.Labels
)

// Matcher is a tag selector for queries (exact, regex, and negations).
type Matcher = labels.Matcher

// LabelsFromStrings builds a tag set from alternating name/value strings.
func LabelsFromStrings(ss ...string) Labels { return labels.FromStrings(ss...) }

// LabelsFromMap builds a tag set from a map.
func LabelsFromMap(m map[string]string) Labels { return labels.FromMap(m) }

// Equal returns an exact-match tag selector (metric="cpu").
func Equal(name, value string) *Matcher { return labels.MustEqual(name, value) }

// Regexp returns an anchored regular-expression tag selector
// (metric=~"disk.*"). It returns an error for an invalid expression.
func Regexp(name, expr string) (*Matcher, error) {
	return labels.NewMatcher(labels.MatchRegexp, name, expr)
}

// NotEqual returns a negative exact selector (host!="web-1").
func NotEqual(name, value string) *Matcher {
	return labels.MustMatcher(labels.MatchNotEqual, name, value)
}

// Store is a cloud storage tier (block or object).
type Store = cloud.Store

// IsNotFound reports whether err (possibly wrapped) is a storage-tier
// not-found. Replica queries can return one transiently when the writer
// compacts or retires tables out from under the replica's current view;
// the next refresh heals it, so callers should retry rather than fail.
func IsNotFound(err error) bool { return cloud.IsNotFound(err) }

// NewDirBlockStore opens a directory-backed fast tier with an EBS-shaped
// latency model used for accounting (no artificial sleeping).
func NewDirBlockStore(dir string) (Store, error) {
	return cloud.NewDirStore(dir, cloud.TierBlock, cloud.EBSModel(0))
}

// NewDirObjectStore opens a directory-backed slow tier with an S3-shaped
// latency model used for accounting.
func NewDirObjectStore(dir string) (Store, error) {
	return cloud.NewDirStore(dir, cloud.TierObject, cloud.S3Model(0))
}

// NewMemBlockStore returns an in-memory fast tier (tests, benchmarks).
func NewMemBlockStore() Store { return cloud.NewMemStore(cloud.TierBlock, cloud.EBSModel(0)) }

// NewMemObjectStore returns an in-memory slow tier (tests, benchmarks).
func NewMemObjectStore() Store { return cloud.NewMemStore(cloud.TierObject, cloud.S3Model(0)) }
