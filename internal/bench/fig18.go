package bench

import (
	"fmt"
	"math/rand"
	"time"

	"timeunion/internal/lsm"
	"timeunion/internal/tsbs"
)

// Fig18a regenerates Figure 18a: TimeUnion under different fast-store (EBS)
// usage limits with dynamic size control, reporting normalized insertion
// throughput and query latencies.
func Fig18a(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r := newReport("fig18a", "Different EBS usage constraints",
		"limit", "insert tput", "q:1-1-1", "q:5-1-24", "final R1")

	hosts := tsbs.Hosts(cfg.Hosts, cfg.Seed)
	interval := cfg.HourMs / 360 // dense 10s interval like the paper
	span := int64(cfg.SpanHours) * cfg.HourMs
	rounds := int(span / interval)

	// Sweep budgets from tight to loose.
	base := int64(128 << 10)
	limits := []int64{base, base * 4, base * 16, base * 64}

	for _, limit := range limits {
		ec := newEngineConfig(cfg, hosts)
		ec.fastLimit = limit
		e, err := newTUEngine(ec, "TU")
		if err != nil {
			return nil, err
		}
		gen := tsbs.NewGenerator(hosts, interval, interval, cfg.Seed+7)
		samples := 0
		elapsed, err := e.stores().measure(func() error {
			for round := 0; round < rounds; round++ {
				t, vals := gen.Round()
				if err := e.insertRound(t, vals); err != nil {
					return err
				}
				samples += len(hosts) * tsbs.SeriesPerHost
			}
			return e.flush()
		})
		if err != nil {
			e.close()
			return nil, err
		}
		tput := float64(samples) / elapsed.Seconds()

		env := tsbs.QueryEnv{Hosts: hosts, DataMin: 0, DataMax: span, HourMs: cfg.HourMs}
		lat := map[string]time.Duration{}
		for _, pname := range []string{"1-1-1", "5-1-24"} {
			p, _ := tsbs.PatternByName(pname)
			rnd := rand.New(rand.NewSource(cfg.Seed + 3))
			var durs []time.Duration
			for i := 0; i < cfg.QueriesPerPattern; i++ {
				q := tsbs.MakeQuery(p, env, rnd)
				d, err := e.stores().measure(func() error {
					_, _, err := e.query(q)
					return err
				})
				if err != nil {
					e.close()
					return nil, err
				}
				durs = append(durs, d)
			}
			lat[pname] = median(durs)
		}
		var r1 int64
		if tree, ok := e.db.ChunkStoreRef().(*lsm.LSM); ok {
			r1, _ = tree.PartitionLengths()
		}
		r.addRow(fmtBytes(limit),
			fmt.Sprintf("%.0f samples/s", tput),
			fmtDur(lat["1-1-1"]), fmtDur(lat["5-1-24"]),
			fmt.Sprintf("%s", fmtDur(time.Duration(r1)*time.Millisecond)))
		key := fmt.Sprintf("limit:%d", limit)
		r.Values[key+":insert"] = tput
		r.Values[key+":q111"] = lat["1-1-1"].Seconds()
		r.Values[key+":q5124"] = lat["5-1-24"].Seconds()
		if err := e.close(); err != nil {
			return nil, err
		}
	}
	r.note("paper: insertion stable across limits; short-range latency high when EBS cannot hold the last hour, then drops; long-range latency falls as the EBS limit grows")
	return r, nil
}

// Fig18b regenerates Figure 18b: different volumes of out-of-order data
// (p0/p5/p10/p20 of the normal volume) inserted after the normal load.
func Fig18b(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r := newReport("fig18b", "Different amounts of out-of-order data",
		"ooo", "insert tput", "q:1-1-1", "q:5-1-24", "patches")

	hosts := tsbs.Hosts(cfg.Hosts, cfg.Seed)
	interval := cfg.HourMs / 360
	span := int64(cfg.SpanHours) * cfg.HourMs
	rounds := int(span / interval)

	for _, pct := range []int{0, 5, 10, 20} {
		ec := newEngineConfig(cfg, hosts)
		e, err := newTUEngine(ec, "TU")
		if err != nil {
			return nil, err
		}
		gen := tsbs.NewGenerator(hosts, interval, interval, cfg.Seed+7)
		rnd := rand.New(rand.NewSource(cfg.Seed + int64(pct)))
		normal := rounds * len(hosts) * tsbs.SeriesPerHost
		oooCount := normal * pct / 100
		// Normal insertion phase (the paper inserts the out-of-order data
		// *after* normal insertion and reports steady-state throughput).
		samples := 0
		elapsed, err := e.stores().measure(func() error {
			for round := 0; round < rounds; round++ {
				t, vals := gen.Round()
				if err := e.insertRound(t, vals); err != nil {
					return err
				}
				samples += len(hosts) * tsbs.SeriesPerHost
			}
			return e.flush()
		})
		if err != nil {
			e.close()
			return nil, err
		}
		tput := float64(samples) / elapsed.Seconds()
		// Out-of-order backfill phase: random old samples of random series,
		// timed separately (patch creation and split-merges land here).
		oooElapsed, err := e.stores().measure(func() error {
			for i := 0; i < oooCount; i++ {
				hi := rnd.Intn(len(hosts))
				si := rnd.Intn(tsbs.SeriesPerHost)
				t := rnd.Int63n(span-interval) + 1
				if err := e.insertOutOfOrder(hi, si, t, rnd.Float64()*100); err != nil {
					return err
				}
			}
			return e.flush()
		})
		if err != nil {
			e.close()
			return nil, err
		}
		oooTput := 0.0
		if oooCount > 0 {
			oooTput = float64(oooCount) / oooElapsed.Seconds()
		}

		env := tsbs.QueryEnv{Hosts: hosts, DataMin: 0, DataMax: span, HourMs: cfg.HourMs}
		lat := map[string]time.Duration{}
		for _, pname := range []string{"1-1-1", "5-1-24"} {
			p, _ := tsbs.PatternByName(pname)
			qrnd := rand.New(rand.NewSource(cfg.Seed + 3))
			var durs []time.Duration
			for i := 0; i < cfg.QueriesPerPattern; i++ {
				q := tsbs.MakeQuery(p, env, qrnd)
				d, err := e.stores().measure(func() error {
					_, _, err := e.query(q)
					return err
				})
				if err != nil {
					e.close()
					return nil, err
				}
				durs = append(durs, d)
			}
			lat[pname] = median(durs)
		}
		patches := uint64(0)
		if tree, ok := e.db.ChunkStoreRef().(*lsm.LSM); ok {
			patches = tree.Stats().PatchesCreated
		}
		r.addRow(fmt.Sprintf("p%d", pct),
			fmt.Sprintf("%.0f samples/s", tput),
			fmtDur(lat["1-1-1"]), fmtDur(lat["5-1-24"]),
			fmt.Sprintf("%d", patches))
		if pct > 0 {
			r.addRow(fmt.Sprintf("p%d backfill", pct),
				fmt.Sprintf("%.0f samples/s", oooTput), "-", "-", "-")
		}
		key := fmt.Sprintf("p%d", pct)
		r.Values[key+":insert"] = tput
		r.Values[key+":backfill"] = oooTput
		r.Values[key+":q111"] = lat["1-1-1"].Seconds()
		r.Values[key+":q5124"] = lat["5-1-24"].Seconds()
		r.Values[key+":patches"] = float64(patches)
		if err := e.close(); err != nil {
			return nil, err
		}
	}
	r.note("paper: insertion barely affected; short-range latency +3%%; long-range latency grows with out-of-order volume (more S3 SSTables/patches to read)")
	return r, nil
}
