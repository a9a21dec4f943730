package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"timeunion/internal/remote"
	"timeunion/internal/tsbs"
)

// hotRounds is how much data stays un-flushed on top of the loaded hours:
// one hour and half a chunk, so the newest samples sit in the head's open
// chunks, the ones before them in the memtable and L0.
const hotRounds = hourRounds + chunkSamples/2

// preparedQuery is one query of a connection's seeded cycle, encoded, with
// the answer the generator expects.
type preparedQuery struct {
	body []byte
	want expectation
}

// queryEnv is query_hot or query_cold after set-up.
type queryEnv struct {
	st      *stack
	clients []*client
	ds      *dataset
	cycles  [][]preparedQuery // per connection
	warmup  []preparedQuery   // cold only: run before the clock starts

	loaded       float64 // samples in the database
	walAppended  int64
	walKept      int64
	tableBytes   [3]int64 // per LSM level, after the flush
	writtenBytes uint64   // both tiers, by the load
}

func (e *queryEnv) close() error {
	for _, c := range e.clients {
		c.close()
	}
	return e.st.close()
}

// loadSeries appends rounds [r0, r1) of every series straight through core,
// one goroutine per connection's share of the hosts.
func loadSeries(st *stack, ds *dataset, ids [][]uint64, r0, r1 int) error {
	errs := make([]error, connections)
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := r0; r < r1; r++ {
				for _, h := range hostsOf(c, len(ds.hosts)) {
					for s, id := range ids[h] {
						if err := st.db.AppendFast(id, roundTime(r), ds.value(r, h, s)); err != nil {
							errs[c] = fmt.Errorf("load round %d host %d: %w", r, h, err)
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setupQuery loads the data set both query workloads share: queryHours
// hours appended, flushed and compacted to rest, then hotRounds more left
// un-flushed. The database is reopened between the two with the cache size
// the workload asks for, a share of what the load put on the slow tier.
func setupQuery(cfg runConfig, tr *tracing, dir string, cold bool) (*queryEnv, error) {
	flushed := cfg.sz.queryHours * hourRounds
	ds := newDataset(cfg.sz.hosts, flushed+hotRounds, cfg.seed)
	st, err := newStack(dir, 1<<30, tr)
	if err != nil {
		return nil, err
	}
	e := &queryEnv{st: st, ds: ds, loaded: float64(ds.numSeries() * ds.rounds)}
	built := false
	defer func() {
		if !built {
			_ = e.close() // the set-up error is the one to report
		}
	}()
	if err := st.openDB(); err != nil {
		return nil, err
	}
	ids := make([][]uint64, len(ds.hosts))
	for h, host := range ds.hosts {
		for s := 0; s < seriesPerHost; s++ {
			id, err := st.db.Append(host.SeriesLabels(s), roundTime(0), ds.value(0, h, s))
			if err != nil {
				return nil, fmt.Errorf("define host %d series %d: %w", h, s, err)
			}
			ids[h] = append(ids[h], id)
		}
	}
	if err := loadSeries(st, ds, ids, 1, flushed); err != nil {
		return nil, err
	}
	if err := st.db.Flush(); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	if e.walAppended, _, err = st.purgeWAL(); err != nil {
		return nil, err
	}
	snap := st.db.Metrics().Snapshot()
	for l := range e.tableBytes {
		e.tableBytes[l] = int64(snap[fmt.Sprintf(`timeunion_lsm_level_bytes{level="%d"}`, l)])
	}
	e.writtenBytes = st.fast.Stats().BytesWritten + st.slow.Stats().BytesWritten
	if err := st.closeDB(); err != nil {
		return nil, err
	}
	// Fits: far more than every table. Does not fit: a quarter of the
	// slow-tier table bytes.
	st.cacheBytes = 1 << 30
	if cold {
		st.cacheBytes = e.tableBytes[2] / 4
	}
	if err := st.openDB(); err != nil {
		return nil, err
	}
	if err := loadSeries(st, ds, ids, flushed, ds.rounds); err != nil {
		return nil, err
	}
	if e.walKept, err = st.walBytes(); err != nil {
		return nil, err
	}
	if err := st.serve(); err != nil {
		return nil, err
	}
	for c := 0; c < connections; c++ {
		e.clients = append(e.clients, newClient(st.url, tr))
		rnd := rand.New(rand.NewSource(cfg.seed*1000 + int64(c)))
		if cold {
			e.cycles = append(e.cycles, coldQueries(cfg, ds, rnd, cfg.sz.queriesPrepared))
		} else {
			e.cycles = append(e.cycles, hotQueries(ds, rnd, cfg.sz.queriesPrepared))
		}
	}
	if cold {
		e.warmup = coldQueries(cfg, ds, rand.New(rand.NewSource(cfg.seed*1000+99)), cfg.sz.coldWarmup)
	}
	built = true
	return e, nil
}

// makeQuery encodes one query_stream request: fields (indexes into the
// measurement's field list) of one measurement on the given hosts over
// rounds [r0, r1], in the TSBS matcher shapes.
func makeQuery(ds *dataset, measurement int, hosts, fields []int, r0, r1 int) preparedQuery {
	m := tsbs.Measurements[measurement]
	names := make([]string, len(hosts))
	for i, h := range hosts {
		names[i] = ds.hosts[h].Hostname()
	}
	fieldNames := make([]string, len(fields))
	series := make([]int, len(fields))
	for i, f := range fields {
		fieldNames[i] = m.Fields[f]
		series[i] = tsbs.MetricIndex(m.Name, m.Fields[f])
	}
	matcher := func(name string, values []string) remote.MatcherSpec {
		if len(values) == 1 {
			return remote.MatcherSpec{Type: "=", Name: name, Value: values[0]}
		}
		return remote.MatcherSpec{Type: "=~", Name: name, Value: strings.Join(values, "|")}
	}
	body, err := json.Marshal(remote.QueryRequest{
		MinT: roundTime(r0), MaxT: roundTime(r1),
		Matchers: []remote.MatcherSpec{
			{Type: "=", Name: "measurement", Value: m.Name},
			matcher("field", fieldNames),
			matcher("hostname", names),
		},
	})
	if err != nil {
		panic(err) // a struct of strings and integers always encodes
	}
	return preparedQuery{body: body, want: expectation{hosts: hosts, series: series, r0: r0, r1: r1}}
}

// hotQueries cycles the TSBS patterns over the newest hour of the cpu
// measurement: of every eight queries one is lastpoint, one 1-1-1, four
// 5-1-1 and two 5-8-1. The mix puts the median inside the 5-1-1 class and
// the 95th percentile inside the 5-8-1 class, away from the steps between
// classes, where a percentile would jump from one run to the next.
func hotQueries(ds *dataset, rnd *rand.Rand, n int) []preparedQuery {
	last := ds.rounds - 1
	type shape struct{ fields, hosts, rounds int }
	lastpoint, p111 := shape{1, 1, hourRounds / 12}, shape{1, 1, hourRounds}
	p511, p581 := shape{5, 1, hourRounds}, shape{5, 8, hourRounds}
	cycle := []shape{p511, lastpoint, p511, p581, p511, p111, p511, p581}
	out := make([]preparedQuery, n)
	for i := range out {
		sh := cycle[i%len(cycle)]
		hosts := rnd.Perm(len(ds.hosts))[:min(sh.hosts, len(ds.hosts))]
		fields := rnd.Perm(len(tsbs.Measurements[0].Fields))[:sh.fields]
		out[i] = makeQuery(ds, 0, hosts, fields, last-sh.rounds, last)
	}
	return out
}

// coldQueries places 5-1-1-shaped windows (nine in ten) and long 5-1-N
// ranges (one in ten) on the hours that rest in L2 on the slow tier. The
// (host, hour) of a window is drawn Zipf(1.1) over a seeded permutation, so
// a hot subset recurs and the rest keeps evicting it. Unlike the TSBS
// patterns the fields come from any measurement, not cpu alone: a tenth of
// the series would fit the cache whatever the placement.
func coldQueries(cfg runConfig, ds *dataset, rnd *rand.Rand, n int) []preparedQuery {
	oldHours := cfg.sz.queryHours - int(l2PartitionMs/hourMs)
	slots := len(ds.hosts) * oldHours
	perm := rand.New(rand.NewSource(cfg.seed)).Perm(slots)
	zipf := rand.NewZipf(rnd, 1.1, 1, uint64(slots-1))
	var wide []int // measurements with at least five fields
	for m, meas := range tsbs.Measurements {
		if len(meas.Fields) >= 5 {
			wide = append(wide, m)
		}
	}
	out := make([]preparedQuery, n)
	for i := range out {
		slot := perm[zipf.Uint64()]
		host, hour := slot/oldHours, slot%oldHours
		m := wide[rnd.Intn(len(wide))]
		fields := rnd.Perm(len(tsbs.Measurements[m].Fields))[:5]
		if i%10 == 9 {
			out[i] = makeQuery(ds, m, []int{host}, fields, 0, cfg.sz.coldRangeHours*hourRounds-1)
			continue
		}
		out[i] = makeQuery(ds, m, []int{host}, fields, hour*hourRounds, (hour+1)*hourRounds-1)
	}
	return out
}

func runQueryHot(cfg runConfig) (outcome, error)  { return runQuery(cfg, false) }
func runQueryCold(cfg runConfig) (outcome, error) { return runQuery(cfg, true) }

// runQuery is the closed-loop streaming query workload: each connection
// walks its seeded cycle for --seconds. Every response is checked by
// sample count, one in fullCheckEvery sample by sample.
func runQuery(cfg runConfig, cold bool) (outcome, error) {
	tr := cfg.tracing()
	setupStart := time.Now()
	e, err := setupQuery(cfg, tr, cfg.runDir(), cold)
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(cfg.runDir())
	defer func() { _ = e.close() }() // error paths; the last line reports the error of the first close
	st := e.st
	v := values{}

	check := func(q preparedQuery, full bool, resp []byte) error {
		if err := q.want.checkCount(resp); err != nil || !full {
			return err
		}
		series, err := decodeStream(resp)
		if err != nil {
			return err
		}
		return q.want.checkSeries(series, e.ds.value)
	}
	// Let the cache fill and start evicting before the clock starts.
	for i, q := range e.warmup {
		resp, _, _, err := e.clients[i%connections].post(kindQuery, "/api/v1/query_stream", q.body)
		if err == nil {
			err = check(q, false, resp)
		}
		if err != nil {
			return outcome{}, fmt.Errorf("warm-up query %d: %w", i, err)
		}
	}

	window := time.Duration(cfg.seconds * float64(time.Second))
	before := takeCounters(st)
	v["setup_s"] = before.at.Sub(setupStart).Seconds() // everything before the clock starts
	deadline := before.at.Add(window)
	traceAt := before.at.Add(time.Duration((1 - tracedShare) * float64(window)))
	returned := make([]int, connections)
	runClients(e.clients, func(ci int, c *client) {
		cycle := e.cycles[ci]
		c.closedLoop(func(i int) (reqKind, string, []byte, bool) {
			now := time.Now()
			if !now.Before(deadline) {
				return 0, "", nil, false
			}
			if tr != nil && !now.Before(traceAt) {
				tr.rec.on.Store(true)
			}
			return kindQuery, "/api/v1/query_stream", cycle[i%len(cycle)].body, true
		}, func(i int, resp []byte) error {
			q := cycle[i%len(cycle)]
			if err := check(q, i%fullCheckEvery == 0, resp); err != nil {
				return err
			}
			returned[ci] += q.want.samples()
			return nil
		})
	})
	after := takeCounters(st)
	elapsed := after.at.Sub(before.at)

	q := summarise(e.clients, kindQuery)
	samplesReturned := 0
	for _, n := range returned {
		samplesReturned += n
	}
	v["samples_per_s"] = float64(samplesReturned) / elapsed.Seconds()
	v["request_p50_ms"], v["request_p90_ms"] = q.p50, q.p90
	v["stored_bytes_per_sample"] = float64(st.fast.TotalBytes()+st.slow.TotalBytes()+e.walKept) / e.loaded
	v["store_written_bytes_per_sample"] = float64(int64(e.writtenBytes)+e.walAppended) / e.loaded
	v["modelled_store_ms_per_request"] = millis(modelledStore(before, after)) / float64(q.n)
	e.ds, e.cycles, e.warmup = nil, nil, nil
	v["live_memory_mb"] = liveMemoryMB(st)

	if tr != nil {
		exported(v, st, before, after, float64(q.n))
		v["lsm.drain_s"] = 0
		v["core.reopen_s"] = 0
		v["wal.bytes_per_sample"] = float64(e.walAppended) / e.loaded
		loadgenMetrics(v, e.clients, kindQuery)
		if err := finishTrace(cfg, tr, v); err != nil {
			return outcome{}, err
		}
		v["chunkenc.decode_waste_ratio"] = ratio(v["chunkenc.chunks_decoded"]*chunkSamples, float64(samplesReturned))
		replayLayers(cfg, v)
	}
	logf("%s: %d queries over %d connections in %.2fs; tables L0 %d B, L1 %d B, L2 %d B (slow tier); cache %d B; slow-tier gets %d, cache hits %d misses %d",
		cfg.workload, q.n, connections, elapsed.Seconds(), e.tableBytes[0], e.tableBytes[1], e.tableBytes[2], st.cacheBytes,
		after.slow.Gets-before.slow.Gets, after.hits-before.hits, after.miss-before.miss)
	return outcome{v: v, attempted: q.n, failed: q.failed}, e.close()
}
