package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"timeunion/internal/remote"
)

// ingestEnv is ingest_series after set-up: the stack is up, every series is
// registered over the slow path, and every fast-path body is encoded.
type ingestEnv struct {
	st      *stack
	clients []*client
	rounds  int
	// bodies[c][i] is connection c's i-th write_fast request: round i+1 of
	// the hosts that connection owns. Each series belongs to exactly one
	// connection, so its samples arrive in time order.
	bodies [][][]byte
	want   []seriesSum
}

func (e *ingestEnv) close() error {
	for _, c := range e.clients {
		c.close()
	}
	return e.st.close()
}

// hostsOf lists the hosts connection c owns.
func hostsOf(c, hosts int) []int {
	var out []int
	for h := c; h < hosts; h += connections {
		out = append(out, h)
	}
	return out
}

func setupIngest(cfg runConfig, tr *tracing, dir string) (*ingestEnv, error) {
	rounds := int(math.Round(float64(cfg.sz.ingestRoundsPerSecond) * cfg.seconds))
	if rounds < 1 {
		rounds = 1
	}
	st, err := openStack(dir, 1<<30, tr)
	if err != nil {
		return nil, err
	}
	e := &ingestEnv{st: st, rounds: rounds}
	built := false
	defer func() {
		if !built {
			_ = e.close() // the set-up error is the one to report
		}
	}()
	ds := newDataset(cfg.sz.hosts, rounds+1, cfg.seed)
	ids := make([][]uint64, cfg.sz.hosts)
	for c := 0; c < connections; c++ {
		e.clients = append(e.clients, newClient(st.url, tr))
	}
	for h := range ds.hosts {
		body, err := json.Marshal(ds.registerRequest(h))
		if err != nil {
			return nil, err
		}
		resp, _, _, err := e.clients[h%connections].post(kindWrite, "/api/v1/write", body)
		if err != nil {
			return nil, fmt.Errorf("register host %d: %w", h, err)
		}
		var wr remote.WriteResponse
		if err := json.Unmarshal(resp, &wr); err != nil || len(wr.IDs) != seriesPerHost {
			return nil, fmt.Errorf("register host %d: %d ids, %v", h, len(wr.IDs), err)
		}
		ids[h] = wr.IDs
	}
	e.bodies = make([][][]byte, connections)
	for c := range e.bodies {
		mine := hostsOf(c, cfg.sz.hosts)
		e.bodies[c] = make([][]byte, rounds)
		for r := 1; r <= rounds; r++ {
			e.bodies[c][r-1] = ds.appendFastRound(nil, ids, mine, r)
		}
	}
	e.want = make([]seriesSum, ds.numSeries())
	for r := 0; r <= rounds; r++ {
		for i, v := range ds.vals[r] {
			e.want[i].n++
			e.want[i].sum += v
		}
	}
	built = true
	return e, nil
}

// runIngestSeries is the closed-loop durable ingest workload. It is a fixed
// amount of work (--seconds times a frozen rounds-per-second), so that the
// flush and compaction counts and the bytes per sample repeat from run to
// run; what varies is how long the work takes.
func runIngestSeries(cfg runConfig) (outcome, error) {
	tr := cfg.tracing()
	setupStart := time.Now()
	e, err := setupIngest(cfg, tr, cfg.runDir())
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(cfg.runDir())
	defer func() { _ = e.close() }() // error paths; the last line reports the error of the first close
	st := e.st
	v := values{}
	for _, c := range e.clients {
		c.samples = c.samples[:0] // registration is set-up, not load
	}
	traceFrom := int((1 - tracedShare) * float64(e.rounds))

	before := takeCounters(st)
	v["setup_s"] = before.at.Sub(setupStart).Seconds() // everything before the clock starts
	runClients(e.clients, func(ci int, c *client) {
		c.closedLoop(func(i int) (reqKind, string, []byte, bool) {
			if i >= e.rounds {
				return 0, "", nil, false
			}
			if tr != nil && i == traceFrom {
				tr.rec.on.Store(true)
			}
			return kindWrite, "/api/v1/write_fast", e.bodies[ci][i], true
		}, nil)
	})
	lastAck := time.Now()
	if err := st.db.Flush(); err != nil {
		return outcome{}, fmt.Errorf("drain: %w", err)
	}
	after := takeCounters(st)
	window := after.at.Sub(before.at)

	w := summarise(e.clients, kindWrite)
	acked := 0
	for ci, c := range e.clients {
		for _, s := range c.samples {
			if !s.failed {
				acked += len(hostsOf(ci, cfg.sz.hosts)) * seriesPerHost
			}
		}
	}
	stored := float64(len(e.want) * (e.rounds + 1))
	walAppended, walKept, err := st.purgeWAL()
	if err != nil {
		return outcome{}, err
	}
	purged := takeCounters(st)

	v["samples_per_s"] = float64(acked) / window.Seconds()
	v["request_p50_ms"], v["request_p90_ms"] = w.p50, w.p90
	v["stored_bytes_per_sample"] = float64(st.fast.TotalBytes()+st.slow.TotalBytes()+walKept) / stored
	v["store_written_bytes_per_sample"] = float64(int64(after.fast.BytesWritten+after.slow.BytesWritten)+walAppended) / stored
	v["modelled_store_ms_per_request"] = millis(modelledStore(before, after)) / float64(w.n)
	e.bodies = nil
	v["live_memory_mb"] = liveMemoryMB(st)

	out := outcome{v: v, attempted: w.n, failed: w.failed}
	check := func(when string) error {
		checked, bad, err := readBack(st.db, cfg.sz.hosts, e.want)
		if err != nil {
			return fmt.Errorf("%s: %w", when, err)
		}
		out.attempted += checked
		out.failed += bad
		return nil
	}
	if err := check("read-back after drain"); err != nil {
		return outcome{}, err
	}

	if tr != nil {
		exported(v, st, before, purged, 0)
		v["lsm.drain_s"] = after.at.Sub(lastAck).Seconds()
		v["wal.bytes_per_sample"] = float64(walAppended) / stored
		loadgenMetrics(v, e.clients, kindWrite)
		if err := finishTrace(cfg, tr, v); err != nil {
			return outcome{}, err
		}
		replayLayers(cfg, v)
	}

	reopenTook, err := st.reopen()
	if err != nil {
		return outcome{}, fmt.Errorf("reopen: %w", err)
	}
	v["core.reopen_s"] = reopenTook.Seconds()
	if err := check("read-back after close and open"); err != nil {
		return outcome{}, err
	}
	logf("ingest_series: %d rounds x %d series over %d connections in %.2fs; drain %.2fs; %d flushes, %d L0->L1, %d L1->L2; WAL %d B appended, %d B kept",
		e.rounds, len(e.want), connections, window.Seconds(), after.at.Sub(lastAck).Seconds(),
		int(after.reg["timeunion_lsm_flushes_total"]-before.reg["timeunion_lsm_flushes_total"]),
		int(after.reg[`timeunion_lsm_compactions_total{path="l0l1"}`]), int(after.reg[`timeunion_lsm_compactions_total{path="l1l2"}`]),
		walAppended, walKept)
	return out, e.close()
}
