// Package bench implements the experiment harness: one named experiment per
// figure/table of the paper's evaluation (§4), each regenerating the rows
// the paper reports at a configurable scale. Absolute numbers differ from
// the AWS testbed (the storage tiers are simulated); the harness preserves
// the *shapes* — who wins, by what factor, where crossovers fall.
//
// Latency accounting: real wall time would require sleeping the full
// modelled store latencies. Instead every measurement combines wall-clock
// compute time with the delta of the stores' modelled (simulated) read and
// write time, so an experiment finishes in seconds yet reports latencies in
// the simulated-time domain.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"timeunion/internal/cloud"
	"timeunion/internal/core"
	"timeunion/internal/goleveldb"
	"timeunion/internal/labels"
	"timeunion/internal/tsbs"
	"timeunion/internal/tsdb"
)

// Config scales an experiment run.
type Config struct {
	// HourMs is the logical length of one "hour" in sample-time ms.
	// 3600000 reproduces real time; tests use much smaller values.
	HourMs int64
	// Hosts is the number of TSBS DevOps hosts (101 series each).
	Hosts int
	// SampleIntervalMs between rounds (paper: 30s or 10s => HourMs/120 or
	// HourMs/360 at scale).
	SampleIntervalMs int64
	// SpanHours of data to insert.
	SpanHours int
	// Seed for deterministic workloads.
	Seed int64
	// QueriesPerPattern controls query repetitions for latency medians.
	QueriesPerPattern int
	// FaultProb, when positive, wraps both simulated stores in a
	// cloud.FaultStore injecting transient errors, spurious not-founds,
	// torn writes, and latency spikes at roughly this per-operation rate —
	// resilience runs that exercise the retry and recovery paths under
	// load.
	FaultProb float64
	// CompactionWorkers sets the LSM compaction executor pool size handed
	// to the TimeUnion engines (core.Options.CompactionWorkers). 0 keeps
	// the engine default; the compact experiment compares 1 (serial)
	// against this value.
	CompactionWorkers int
	// FaultSeed pins the fault schedule (0 derives it from Seed).
	FaultSeed int64
}

// withDefaults fills the paper-shaped defaults at a laptop scale.
func (c Config) withDefaults() Config {
	if c.HourMs <= 0 {
		c.HourMs = 60_000 // 1 logical hour = 60s of sample time
	}
	if c.Hosts <= 0 {
		c.Hosts = 8
	}
	if c.SampleIntervalMs <= 0 {
		c.SampleIntervalMs = c.HourMs / 120 // "30 seconds" scaled
	}
	if c.SpanHours <= 0 {
		c.SpanHours = 24
	}
	if c.Seed == 0 {
		c.Seed = 2022
	}
	if c.QueriesPerPattern <= 0 {
		c.QueriesPerPattern = 3
	}
	return c
}

// Report is one experiment's regenerated table/series.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Values holds named numeric results for programmatic shape checks.
	Values map[string]float64
	// Metrics holds each engine's obs registry snapshot taken at the end of
	// its run (histograms expanded to _count/_sum/_p50/_p90/_p99/_max).
	// Only engines with an instrumented core (the TimeUnion variants)
	// appear; baselines have no registry.
	Metrics map[string]map[string]float64 `json:",omitempty"`
}

func newReport(id, title string, header ...string) *Report {
	return &Report{ID: id, Title: title, Header: header, Values: map[string]float64{}}
}

func (r *Report) addRow(cells ...string) { r.Rows = append(r.Rows, cells) }

func (r *Report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Print renders the report as an aligned text table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteJSON renders the report as indented JSON, for machine consumption
// alongside the Print table (tubench -json).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// setMetrics records an engine's end-of-run metrics snapshot.
func (r *Report) setMetrics(engine string, snap map[string]float64) {
	if len(snap) == 0 {
		return
	}
	if r.Metrics == nil {
		r.Metrics = map[string]map[string]float64{}
	}
	r.Metrics[engine] = snap
}

// tiers bundles the two simulated stores of one engine instance.
type tiers struct {
	fast cloud.Store
	slow cloud.Store
}

func newTiers(cfg Config) tiers {
	// TimeScale 0: account modelled latency without sleeping.
	t := tiers{
		fast: cloud.NewMemStore(cloud.TierBlock, cloud.EBSModel(0)),
		slow: cloud.NewMemStore(cloud.TierObject, cloud.S3Model(0)),
	}
	if cfg.FaultProb > 0 {
		seed := cfg.FaultSeed
		if seed == 0 {
			seed = cfg.Seed
		}
		// Retryable fault classes only (no spurious not-founds, which are
		// deliberately never retried), with a RetryStore above the
		// injection so engines without their own retry wiring — the
		// baselines — survive the run and the experiments still complete.
		fc := cloud.FaultConfig{
			Seed:          seed,
			TransientProb: cfg.FaultProb,
			TornWriteProb: cfg.FaultProb / 2,
			LatencyProb:   cfg.FaultProb / 4,
			LatencySpike:  200 * time.Microsecond,
		}
		t.fast = cloud.NewRetryStore(cloud.NewFaultStore(t.fast, fc), cloud.RetryPolicy{})
		fc.Seed = seed + 1
		t.slow = cloud.NewRetryStore(cloud.NewFaultStore(t.slow, fc), cloud.RetryPolicy{})
	}
	return t
}

// simTime returns the total modelled store time so far.
func (t tiers) simTime() time.Duration {
	fs, ss := t.fast.Stats(), t.slow.Stats()
	return fs.SimReadTime + fs.SimWriteTime + ss.SimReadTime + ss.SimWriteTime
}

// measure runs fn and returns wall + modelled-store time.
func (t tiers) measure(fn func() error) (time.Duration, error) {
	before := t.simTime()
	start := time.Now()
	err := fn()
	return time.Since(start) + (t.simTime() - before), err
}

// engine abstracts the five systems of the storage-engine evaluation.
type engine interface {
	name() string
	// insertRound writes one generator round (shared timestamp across all
	// hosts' series) using the engine's fast path.
	insertRound(t int64, vals [][]float64) error
	// insertOutOfOrder writes one old sample for (host, series).
	insertOutOfOrder(host, series int, t int64, v float64) error
	flush() error
	// query runs a TSBS query, returning matched series and sample counts.
	query(q tsbs.Query) (nSeries, nSamples int, err error)
	// memory returns the accounted in-memory footprint.
	memory() int64
	// metrics returns the engine's obs registry snapshot, or nil for
	// engines without one (the baselines).
	metrics() map[string]float64
	// tiers exposes the engine's stores.
	stores() tiers
	close() error
}

// engineConfig builds engines at a common scale.
type engineConfig struct {
	cfg     Config
	hosts   []tsbs.Host
	ebsOnly bool // Figure 17: slow tier == fast tier

	// TimeUnion geometry, scaled from the paper's defaults.
	l0Len, l2Len int64
	memTable     int64
	chunkSamples int

	fastLimit      int64 // > 0 runs Algorithm 1
	patchThreshold int
}

func newEngineConfig(cfg Config, hosts []tsbs.Host) engineConfig {
	return engineConfig{
		cfg:          cfg,
		hosts:        hosts,
		l0Len:        cfg.HourMs / 2, // 30 minutes
		l2Len:        cfg.HourMs * 2, // 2 hours
		memTable:     256 << 10,
		chunkSamples: 32,
	}
}

// --- TimeUnion engines ---

// tuDB is what the three TimeUnion engines share: the database, its
// tiers, and every engine method that does not depend on the data model.
type tuDB struct {
	db *core.DB
	t  tiers
}

func (e *tuDB) flush() error { return e.db.Flush() }

func (e *tuDB) query(q tsbs.Query) (int, int, error) {
	res, err := e.db.Query(q.MinT, q.MaxT, q.Matchers...)
	if err != nil {
		return 0, 0, err
	}
	total := 0
	for _, s := range res {
		total += len(s.Samples)
	}
	return len(res), total, nil
}

func (e *tuDB) memory() int64               { return e.db.Stats().Memory.Total() }
func (e *tuDB) metrics() map[string]float64 { return e.db.Metrics().Snapshot() }
func (e *tuDB) stores() tiers               { return e.t }
func (e *tuDB) close() error                { return e.db.Close() }

// tuEngine is TimeUnion with individual timeseries (TU / TU-fast).
type tuEngine struct {
	tuDB
	ids [][]uint64 // [host][series]
	nm  string
}

func newTUEngine(ec engineConfig, name string) (*tuEngine, error) {
	t := newTiers(ec.cfg)
	var slow cloud.Store = t.slow
	if ec.ebsOnly {
		slow = t.fast
	}
	db, err := core.Open(core.Options{
		Fast:              t.fast,
		Slow:              slow,
		CacheBytes:        1 << 30,
		ChunkSamples:      ec.chunkSamples,
		SlotsPerRegion:    2048,
		SlotSize:          512,
		MemTableSize:      ec.memTable,
		L0PartitionLength: ec.l0Len,
		L2PartitionLength: ec.l2Len,
		FastLimit:         ec.fastLimit,
		PatchThreshold:    ec.patchThreshold,
		BlockSize:         4096,
		CompactionWorkers: ec.cfg.CompactionWorkers,
	})
	if err != nil {
		return nil, err
	}
	e := &tuEngine{tuDB: tuDB{db: db, t: t}, nm: name}
	e.ids = make([][]uint64, len(ec.hosts))
	for hi, h := range ec.hosts {
		e.ids[hi] = make([]uint64, tsbs.SeriesPerHost)
		for si := range e.ids[hi] {
			id, err := db.Append(h.SeriesLabels(si), 0, 0) // registration sample at t=0
			if err != nil {
				db.Close()
				return nil, err
			}
			e.ids[hi][si] = id
		}
	}
	return e, nil
}

func (e *tuEngine) name() string { return e.nm }

func (e *tuEngine) insertRound(t int64, vals [][]float64) error {
	for hi := range vals {
		for si, v := range vals[hi] {
			if err := e.db.AppendFast(e.ids[hi][si], t, v); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *tuEngine) insertOutOfOrder(host, series int, t int64, v float64) error {
	return e.db.AppendFast(e.ids[host][series], t, v)
}

// tuGroupEngine is TimeUnion with one group per host (TU-Group).
type tuGroupEngine struct {
	tuDB
	gids  []uint64
	slots [][]int
}

func newTUGroupEngine(ec engineConfig) (*tuGroupEngine, error) {
	t := newTiers(ec.cfg)
	var slow cloud.Store = t.slow
	if ec.ebsOnly {
		slow = t.fast
	}
	db, err := core.Open(core.Options{
		Fast:              t.fast,
		Slow:              slow,
		CacheBytes:        1 << 30,
		ChunkSamples:      ec.chunkSamples,
		SlotsPerRegion:    2048,
		SlotSize:          512,
		MemTableSize:      ec.memTable,
		L0PartitionLength: ec.l0Len,
		L2PartitionLength: ec.l2Len,
		FastLimit:         ec.fastLimit,
		BlockSize:         4096,
		CompactionWorkers: ec.cfg.CompactionWorkers,
	})
	if err != nil {
		return nil, err
	}
	e := &tuGroupEngine{tuDB: tuDB{db: db, t: t}}
	// One group per host: shared tags = the 10 host tags; unique tags =
	// measurement+field (the paper's "timeseries from the same host form
	// a group").
	uniques := make([]labels.Labels, tsbs.SeriesPerHost)
	zeros := make([]float64, tsbs.SeriesPerHost)
	for si := range uniques {
		uniques[si] = tsbs.SeriesTags(si)
	}
	for _, h := range ec.hosts {
		gid, slots, err := db.AppendGroup(h.Tags, uniques, 0, zeros)
		if err != nil {
			db.Close()
			return nil, err
		}
		e.gids = append(e.gids, gid)
		e.slots = append(e.slots, slots)
	}
	return e, nil
}

func (e *tuGroupEngine) name() string { return "TU-Group" }

func (e *tuGroupEngine) insertRound(t int64, vals [][]float64) error {
	for hi := range vals {
		if err := e.db.AppendGroupFast(e.gids[hi], e.slots[hi], t, vals[hi]); err != nil {
			return err
		}
	}
	return nil
}

func (e *tuGroupEngine) insertOutOfOrder(host, series int, t int64, v float64) error {
	return e.db.AppendGroupFast(e.gids[host], []int{e.slots[host][series]}, t, []float64{v})
}

// tuLdbEngine is TU-LDB: TimeUnion head over the classic leveled LSM.
type tuLdbEngine struct {
	tuEngine
}

func newTULDBEngine(ec engineConfig) (*tuLdbEngine, error) {
	t := newTiers(ec.cfg)
	var slow cloud.Store = t.slow
	if ec.ebsOnly {
		slow = t.fast
	}
	store, err := core.NewTULDBStore(goleveldb.Options{
		Store:               slow,
		FastStore:           t.fast,
		FastLevels:          2,
		MemTableSize:        ec.memTable,
		L0CompactionTrigger: 4,
		BaseLevelBytes:      1 << 20,
		Multiplier:          10,
		MaxLevels:           7,
		BlockSize:           4096,
	})
	if err != nil {
		return nil, err
	}
	db, err := core.Open(core.Options{
		Fast:           t.fast,
		Slow:           slow,
		CacheBytes:     1 << 30,
		ChunkSamples:   ec.chunkSamples,
		SlotsPerRegion: 2048,
		SlotSize:       512,
		Store:          store,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	e := &tuLdbEngine{tuEngine: tuEngine{tuDB: tuDB{db: db, t: t}, nm: "TU-LDB"}}
	e.ids = make([][]uint64, len(ec.hosts))
	for hi, h := range ec.hosts {
		e.ids[hi] = make([]uint64, tsbs.SeriesPerHost)
		for si := range e.ids[hi] {
			id, err := db.Append(h.SeriesLabels(si), 0, 0)
			if err != nil {
				db.Close()
				return nil, err
			}
			e.ids[hi][si] = id
		}
	}
	return e, nil
}

// --- tsdb engines ---

// tsdbEngine is the Prometheus-tsdb baseline; with ldb=true, tsdb-LDB.
type tsdbEngine struct {
	db  *tsdb.DB
	ldb *goleveldb.DB
	t   tiers
	ids [][]uint64
	nm  string
}

func newTsdbEngine(ec engineConfig, ldb bool) (*tsdbEngine, error) {
	t := newTiers(ec.cfg)
	// tsdb writes its blocks to the slow tier (the Cortex deployment
	// model: block files uploaded to object storage), unless EBS-only.
	var blockStore cloud.Store = t.slow
	if ec.ebsOnly {
		blockStore = t.fast
	}
	opts := tsdb.Options{
		Store:        blockStore,
		Cache:        cloud.NewLRUCache(1 << 30),
		BlockSpan:    ec.l2Len, // 2 hours, like Prometheus
		ChunkSamples: 120,
		MergeBlocks:  4,
	}
	name := "tsdb"
	var sdb *goleveldb.DB
	if ldb {
		name = "tsdb-LDB"
		var err error
		sdb, err = goleveldb.Open(goleveldb.Options{
			Store:               blockStore,
			MemTableSize:        ec.memTable,
			L0CompactionTrigger: 4,
			BaseLevelBytes:      1 << 20,
			Multiplier:          10,
			MaxLevels:           7,
			BlockSize:           4096,
			Cache:               opts.Cache,
		})
		if err != nil {
			return nil, err
		}
		opts.SampleDB = sdb
	}
	db, err := tsdb.Open(opts)
	if err != nil {
		if sdb != nil {
			sdb.Close()
		}
		return nil, err
	}
	e := &tsdbEngine{db: db, ldb: sdb, t: t, nm: name}
	e.ids = make([][]uint64, len(ec.hosts))
	for hi, h := range ec.hosts {
		e.ids[hi] = make([]uint64, tsbs.SeriesPerHost)
		for si := range e.ids[hi] {
			id, err := db.Append(h.SeriesLabels(si), 0, 0)
			if err != nil {
				db.Flush()
				return nil, err
			}
			e.ids[hi][si] = id
		}
	}
	return e, nil
}

func (e *tsdbEngine) name() string { return e.nm }

func (e *tsdbEngine) insertRound(t int64, vals [][]float64) error {
	for hi := range vals {
		for si, v := range vals[hi] {
			if err := e.db.AppendFast(e.ids[hi][si], t, v); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *tsdbEngine) insertOutOfOrder(host, series int, t int64, v float64) error {
	// Prometheus tsdb rejects out-of-order data (§2.2).
	return e.db.AppendFast(e.ids[host][series], t, v)
}

func (e *tsdbEngine) flush() error { return e.db.Flush() }

func (e *tsdbEngine) query(q tsbs.Query) (int, int, error) {
	res, err := e.db.Query(q.MinT, q.MaxT, q.Matchers...)
	if err != nil {
		return 0, 0, err
	}
	total := 0
	for _, s := range res {
		total += len(s.Samples)
	}
	return len(res), total, nil
}

func (e *tsdbEngine) memory() int64 {
	m := e.db.Footprint().Total()
	if e.ldb != nil {
		m += e.ldb.MemBytes()
	}
	return m
}

func (e *tsdbEngine) metrics() map[string]float64 { return nil }

func (e *tsdbEngine) stores() tiers { return e.t }

func (e *tsdbEngine) close() error {
	if e.ldb != nil {
		defer e.ldb.Close()
	}
	return e.db.Flush()
}

// buildEngine constructs one of the five systems by name.
func buildEngine(ec engineConfig, name string) (engine, error) {
	switch name {
	case "tsdb":
		return newTsdbEngine(ec, false)
	case "tsdb-LDB":
		return newTsdbEngine(ec, true)
	case "TU", "TU-fast":
		return newTUEngine(ec, name)
	case "TU-Group":
		return newTUGroupEngine(ec)
	case "TU-LDB":
		return newTULDBEngine(ec)
	}
	return nil, fmt.Errorf("bench: unknown engine %q", name)
}

// median returns the median of a duration slice.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.0fµs", float64(d.Nanoseconds())/1000)
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
