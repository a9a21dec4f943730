package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"timeunion/internal/tsbs"
)

// engineEvalOptions parameterizes the shared storage-engine evaluation used
// by Figures 14 (hybrid, DevOps), 15 (big timeseries), 16 (memory
// monitoring), and 17 (EBS only).
type engineEvalOptions struct {
	id, title string
	engines   []string
	patterns  []tsbs.Pattern
	ebsOnly   bool
	// intervalDiv: samples every HourMs/intervalDiv (120 = "30s", 360 = "10s").
	intervalDiv int64
	spanHours   int
	memTrace    bool // record per-engine footprints during insertion
}

var allEngines = []string{"tsdb", "tsdb-LDB", "TU", "TU-Group", "TU-LDB"}

// runEngineEval loads the TSBS DevOps workload into each engine with
// fast-path insertion, then runs every query pattern, reporting insertion
// throughput, per-pattern median latency, and accounted memory.
func runEngineEval(cfg Config, o engineEvalOptions) (*Report, error) {
	cfg = cfg.withDefaults()
	r := newReport(o.id, o.title)
	r.Header = []string{"engine", "metric", "value"}

	hosts := tsbs.Hosts(cfg.Hosts, cfg.Seed)
	interval := cfg.HourMs / o.intervalDiv
	span := int64(o.spanHours) * cfg.HourMs
	rounds := int(span / interval)

	for _, name := range o.engines {
		ec := newEngineConfig(cfg, hosts)
		ec.ebsOnly = o.ebsOnly
		e, err := buildEngine(ec, name)
		if err != nil {
			return nil, err
		}
		gen := tsbs.NewGenerator(hosts, interval, interval, cfg.Seed+7)

		// Insertion phase.
		samples := 0
		traceEvery := rounds / 8
		if traceEvery == 0 {
			traceEvery = 1
		}
		// Collect what the previous engine left behind, so this engine's
		// insert phase does not pay for its garbage.
		runtime.GC()
		elapsed, err := e.stores().measure(func() error {
			for round := 0; round < rounds; round++ {
				t, vals := gen.Round()
				if err := e.insertRound(t, vals); err != nil {
					return err
				}
				samples += len(hosts) * tsbs.SeriesPerHost
				if o.memTrace && round%traceEvery == 0 {
					r.addRow(name, fmt.Sprintf("mem@round %d", round), fmtBytes(e.memory()))
					r.Values[fmt.Sprintf("memtrace:%s:%d", name, round)] = float64(e.memory())
				}
			}
			return e.flush()
		})
		if err != nil {
			e.close()
			return nil, fmt.Errorf("bench: %s insert: %w", name, err)
		}
		tput := float64(samples) / elapsed.Seconds()
		r.addRow(name, "insert tput", fmt.Sprintf("%.0f samples/s", tput))
		r.Values["insert:"+name] = tput
		r.addRow(name, "memory", fmtBytes(e.memory()))
		r.Values["mem:"+name] = float64(e.memory())
		// Chunks handed to the tree per sample, on the TimeUnion engines
		// (the others export no metrics): a group chunk carries every
		// member's values of its rounds, so TU-Group hands over far fewer
		// chunks than TU (§3.1). A count, unlike a throughput, does not
		// move with the machine's load.
		if snap := e.metrics(); snap != nil {
			chunks := snap[`timeunion_head_chunks_flushed_total{kind="series"}`] +
				snap[`timeunion_head_chunks_flushed_total{kind="group"}`]
			perSample := chunks / float64(samples)
			r.addRow(name, "chunks/sample", fmt.Sprintf("%.5f", perSample))
			r.Values["chunks/sample:"+name] = perSample
		}

		// Query phase: median of QueriesPerPattern runs per pattern,
		// identical query seeds across engines.
		env := tsbs.QueryEnv{
			Hosts:   hosts,
			DataMin: 0,
			DataMax: span,
			HourMs:  cfg.HourMs,
		}
		for _, p := range o.patterns {
			rnd := rand.New(rand.NewSource(cfg.Seed + 1000))
			var durs []time.Duration
			for i := 0; i < cfg.QueriesPerPattern; i++ {
				q := tsbs.MakeQuery(p, env, rnd)
				d, err := e.stores().measure(func() error {
					_, _, err := e.query(q)
					return err
				})
				if err != nil {
					e.close()
					return nil, fmt.Errorf("bench: %s query %s: %w", name, p.Name, err)
				}
				durs = append(durs, d)
			}
			m := median(durs)
			r.addRow(name, "q:"+p.Name, fmtDur(m))
			r.Values[fmt.Sprintf("q:%s:%s", p.Name, name)] = m.Seconds()
		}
		r.setMetrics(name, e.metrics())
		if err := e.close(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Fig14 regenerates Figure 14: the storage-engine evaluation on DevOps
// timeseries (30s interval, 24h span) across tsdb, tsdb-LDB, TU, TU-Group,
// and TU-LDB, with all Table 2 query patterns.
func Fig14(cfg Config) (*Report, error) {
	rep, err := runEngineEval(cfg, engineEvalOptions{
		id:          "fig14",
		title:       "Storage-engine evaluation, DevOps timeseries (30s interval, 24h)",
		engines:     allEngines,
		patterns:    tsbs.Patterns,
		intervalDiv: 120,
		spanHours:   cfg.withDefaults().SpanHours,
	})
	if err != nil {
		return nil, err
	}
	rep.note("paper: TU inserts 24.8%%/13.2%% faster than tsdb/tsdb-LDB; TU-Group 2.4x TU; recent queries ~30-41%% faster on TU; long-range (x-1-24) orders of magnitude faster; TU-LDB worst on recent data")
	return rep, nil
}

// Fig15 regenerates Figure 15: big DevOps timeseries (10s interval, longer
// span) with the whole-span query patterns added.
func Fig15(cfg Config) (*Report, error) {
	c := cfg.withDefaults()
	span := c.SpanHours * 2 // "1-7 days": double the base span
	rep, err := runEngineEval(cfg, engineEvalOptions{
		id:          "fig15",
		title:       "Big DevOps timeseries (10s interval, extended span)",
		engines:     allEngines,
		patterns:    tsbs.ExtendedPatterns,
		intervalDiv: 360,
		spanHours:   span,
	})
	if err != nil {
		return nil, err
	}
	rep.note("paper: TU inserts 21%%/8.8%%/12.2x faster than tsdb/tsdb-LDB/TU-LDB; TU-Group 2.6x TU; 1-1-all: tsdb 3 orders, tsdb-LDB 9.8x, TU-Group 2.2x slower than TU")
	return rep, nil
}

// Fig16 regenerates Figure 16: memory usage monitoring — average accounted
// memory per engine plus a real-time trace during insertion.
func Fig16(cfg Config) (*Report, error) {
	rep, err := runEngineEval(cfg, engineEvalOptions{
		id:          "fig16",
		title:       "Memory usage monitoring",
		engines:     []string{"tsdb", "TU", "TU-Group"},
		patterns:    nil, // insertion-phase memory only
		intervalDiv: 120,
		spanHours:   cfg.withDefaults().SpanHours,
		memTrace:    true,
	})
	if err != nil {
		return nil, err
	}
	rep.note("paper: tsdb memory 2.6x/3.6x higher than TU/TU-Group on average; tsdb skyrockets to the cgroup limit while TU stays stable (mmap pages swappable)")
	return rep, nil
}

// Fig17 regenerates Figure 17: the EBS-only placement (slow tier disabled).
func Fig17(cfg Config) (*Report, error) {
	rep, err := runEngineEval(cfg, engineEvalOptions{
		id:          "fig17",
		title:       "Evaluation with only EBS",
		engines:     allEngines,
		patterns:    tsbs.Patterns,
		ebsOnly:     true,
		intervalDiv: 120,
		spanHours:   cfg.withDefaults().SpanHours,
	})
	if err != nil {
		return nil, err
	}
	rep.note("paper: TU inserts 28.8%%/34%% faster than tsdb/tsdb-LDB; TU-LDB only 19.4%% worse (compaction cheap on EBS); 1-1-24/5-1-24 4.9x/55.6%% slower on tsdb/tsdb-LDB; TU beats TU-Group on EBS (Eq 3 vs 5)")
	return rep, nil
}
