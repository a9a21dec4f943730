package bench

import (
	"fmt"

	"timeunion/internal/lsm"
	"timeunion/internal/tsbs"
)

// Fig19 regenerates Figure 19: the dynamic size control trace. Data starts
// at a dense 10-second interval until the fast-store usage exceeds the
// budget (partition length halves), then switches to a sparse 60-second
// interval (length grows back), then dense again (length shrinks), while
// usage stays near the budget.
func Fig19(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r := newReport("fig19", "Dynamic size control trace",
		"phase", "logical time", "R1", "fast usage")

	hosts := tsbs.Hosts(cfg.Hosts, cfg.Seed)
	ec := newEngineConfig(cfg, hosts)
	ec.fastLimit = 512 << 10 // the paper's 512MB, scaled
	e, err := newTUEngine(ec, "TU")
	if err != nil {
		return nil, err
	}
	defer e.close()
	tree, ok := e.db.ChunkStoreRef().(*lsm.LSM)
	if !ok {
		return nil, fmt.Errorf("bench: fig19 needs the time-partitioned tree")
	}

	phases := []struct {
		name        string
		intervalDiv int64 // samples per hour
		hours       int
	}{
		{"dense-10s", 360, cfg.SpanHours},
		{"sparse-60s", 60, cfg.SpanHours},
		{"dense-10s-again", 360, cfg.SpanHours},
	}

	now := int64(0)
	var maxUsage int64
	sampleEvery := 8
	for _, ph := range phases {
		interval := cfg.HourMs / ph.intervalDiv
		rounds := int(int64(ph.hours) * cfg.HourMs / interval)
		gen := tsbs.NewGenerator(hosts, now+interval, interval, cfg.Seed+now)
		for round := 0; round < rounds; round++ {
			t, vals := gen.Round()
			now = t
			if err := e.insertRound(t, vals); err != nil {
				return nil, err
			}
			if round%(rounds/sampleEvery+1) == 0 {
				if err := e.flush(); err != nil {
					return nil, err
				}
				r1, _ := tree.PartitionLengths()
				usage := tree.FastUsage()
				if usage > maxUsage {
					maxUsage = usage
				}
				r.addRow(ph.name, fmt.Sprintf("%dh", now/cfg.HourMs),
					fmt.Sprintf("%.1fmin", float64(r1)/float64(cfg.HourMs)*60),
					fmtBytes(usage))
			}
		}
		if err := e.flush(); err != nil {
			return nil, err
		}
		r1, _ := tree.PartitionLengths()
		r.Values["r1:"+ph.name] = float64(r1)
		r.Values["usage:"+ph.name] = float64(tree.FastUsage())
	}
	st := tree.Stats()
	r.Values["shrinks"] = float64(st.ResizeShrinks)
	r.Values["grows"] = float64(st.ResizeGrows)
	r.Values["maxUsage"] = float64(maxUsage)
	r.Values["limit"] = float64(ec.fastLimit)
	r.note("paper: partition length drops 30→15 min under dense data, grows to 120 min when sparse, shrinks again when dense returns; EBS usage stays under the 512MB limit")
	return r, nil
}

// Table3 regenerates Table 3: the index and data sizes of tsdb, TU, and
// TU-Group after the same DevOps load.
func Table3(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r := newReport("tab3", "Index and data size",
		"engine", "index", "data")

	hosts := tsbs.Hosts(cfg.Hosts, cfg.Seed)
	interval := cfg.HourMs / 120
	span := int64(cfg.SpanHours) * cfg.HourMs
	rounds := int(span / interval)

	for _, name := range []string{"tsdb", "TU", "TU-Group"} {
		ec := newEngineConfig(cfg, hosts)
		e, err := buildEngine(ec, name)
		if err != nil {
			return nil, err
		}
		gen := tsbs.NewGenerator(hosts, interval, interval, cfg.Seed+7)
		for round := 0; round < rounds; round++ {
			t, vals := gen.Round()
			if err := e.insertRound(t, vals); err != nil {
				e.close()
				return nil, err
			}
		}
		if err := e.flush(); err != nil {
			e.close()
			return nil, err
		}

		var indexBytes, dataBytes int64
		switch eng := e.(type) {
		case *tsdbEngine:
			// tsdb: per-block index objects (+ head index) vs chunk files.
			keys, err := eng.t.slow.List("tsdbblk/")
			if err != nil {
				e.close()
				return nil, err
			}
			for _, k := range keys {
				sz, err := eng.t.slow.Size(k)
				if err != nil {
					continue
				}
				if len(k) > 5 && k[len(k)-5:] == "index" {
					indexBytes += sz
				} else {
					dataBytes += sz
				}
			}
			indexBytes += eng.db.Footprint().IndexBytes
		case *tuEngine:
			st := eng.db.Stats()
			indexBytes = st.Memory.IndexBytes
			dataBytes = st.FastBytes + st.SlowBytes
		case *tuGroupEngine:
			st := eng.db.Stats()
			indexBytes = st.Memory.IndexBytes
			dataBytes = st.FastBytes + st.SlowBytes
		}
		r.addRow(name, fmtBytes(indexBytes), fmtBytes(dataBytes))
		r.Values["index:"+name] = float64(indexBytes)
		r.Values["data:"+name] = float64(dataBytes)
		if err := e.close(); err != nil {
			return nil, err
		}
	}
	r.note("paper (2M series): index 3.27/2.70/2.20 GB, data 20.28/8.61/2.42 GB for tsdb/TU/TU-Group")
	return r, nil
}
