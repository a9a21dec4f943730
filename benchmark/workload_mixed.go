package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"timeunion/internal/labels"
	"timeunion/internal/remote"
	"timeunion/internal/tsbs"
)

// rewriteShare is the share of scheduled group writes that rewrite rounds
// two L0 partitions back instead of appending new ones (sizes.go). They
// merge into tables still on the fast tier.
//
// farRewrites groups are also rewritten once during set-up, in the first
// L2 partition, which by then rests on the slow tier: each becomes a patch
// there, which the final read-back must see through. They are not part of
// the timed schedule because a far rewrite starts a chain of compactions
// that reads L2 back, and how many of them share a flush, hence how many
// patches and slow-tier reads a run has, differed from run to run by a
// factor of three.
const (
	rewriteShare = 0.05
	farRewrites  = 4
)

// mixedEnv is mixed_group_rw after set-up: every host is one group, defined
// over the slow path and preloaded, and the whole open-loop schedule is
// encoded.
type mixedEnv struct {
	st      *stack
	clients []*client
	ds      *dataset
	// ops[c] is connection c's schedule. A host's writes and queries all
	// travel on the same connection, so when a query is sent every earlier
	// write of its host has been acknowledged and the answer is known.
	ops [][]op
	// written[h] is how many rounds host h holds once the schedule is
	// done; rewritten[h] marks the rounds a rewrite covered.
	written   []int
	rewritten []map[int]bool

	samplesPreloaded, samplesWritten, samplesQueried int
}

func (e *mixedEnv) close() error {
	for _, c := range e.clients {
		c.close()
	}
	return e.st.close()
}

func setupMixed(cfg runConfig, tr *tracing, dir string) (*mixedEnv, error) {
	sz := cfg.sz
	writes := int(math.Round(float64(sz.mixedWritesPerSecond) * cfg.seconds))
	queries := int(math.Round(float64(sz.mixedQueriesPerSecond) * cfg.seconds))
	perHost := (writes+sz.hosts-1)/sz.hosts + 1
	ds := newDataset(sz.hosts, sz.mixedPreloadRounds+perHost*groupWriteRounds, cfg.seed)
	st, err := openStack(dir, 1<<30, tr)
	if err != nil {
		return nil, err
	}
	e := &mixedEnv{st: st, ds: ds, written: make([]int, sz.hosts), rewritten: make([]map[int]bool, sz.hosts)}
	built := false
	defer func() {
		if !built {
			_ = e.close() // the set-up error is the one to report
		}
	}()
	for c := 0; c < connections; c++ {
		e.clients = append(e.clients, newClient(st.url, tr))
	}

	// Define each host group over the slow path with round 0, then preload
	// straight through core and let the tree settle.
	gids := make([]uint64, sz.hosts)
	slots := make([][]int, sz.hosts)
	for h, host := range ds.hosts {
		req := remote.GroupWriteRequest{GroupTags: labelsToMap(host.Tags), Times: []int64{roundTime(0)}}
		row := make([]float64, seriesPerHost)
		for s := 0; s < seriesPerHost; s++ {
			req.UniqueTags = append(req.UniqueTags, labelsToMap(tsbs.SeriesTags(s)))
			row[s] = ds.value(0, h, s)
		}
		req.Values = [][]float64{row}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		resp, _, _, err := e.clients[h%connections].post(kindWrite, "/api/v1/write_group", body)
		if err != nil {
			return nil, fmt.Errorf("define group %d: %w", h, err)
		}
		var gr remote.GroupWriteResponse
		if err := json.Unmarshal(resp, &gr); err != nil || len(gr.Slots) != seriesPerHost {
			return nil, fmt.Errorf("define group %d: %d slots, %v", h, len(gr.Slots), err)
		}
		gids[h], slots[h] = gr.GID, gr.Slots
		for r := 1; r < sz.mixedPreloadRounds; r++ {
			if err := st.db.AppendGroupFast(gr.GID, gr.Slots, roundTime(r), ds.vals[r][h*seriesPerHost:(h+1)*seriesPerHost]); err != nil {
				return nil, fmt.Errorf("preload group %d round %d: %w", h, r, err)
			}
		}
		e.written[h] = sz.mixedPreloadRounds
		e.rewritten[h] = map[int]bool{}
		e.samplesPreloaded += sz.mixedPreloadRounds * seriesPerHost
	}
	if err := st.db.Flush(); err != nil {
		return nil, fmt.Errorf("flush preload: %w", err)
	}
	for h := 0; h < min(farRewrites, sz.hosts); h++ {
		r0 := 1 + h*groupWriteRounds
		body := ds.appendGroupWrite(nil, gids[h], slots[h], h, r0, groupWriteRounds, true)
		if _, _, _, err := e.clients[h%connections].post(kindWrite, "/api/v1/write_group", body); err != nil {
			return nil, fmt.Errorf("far rewrite of group %d: %w", h, err)
		}
		for r := r0; r < r0+groupWriteRounds; r++ {
			e.rewritten[h][r] = true
		}
		e.samplesPreloaded += groupWriteRounds * ((seriesPerHost + 1) / 2)
	}
	if err := st.db.Flush(); err != nil {
		return nil, fmt.Errorf("flush far rewrites: %w", err)
	}

	// One seeded schedule: writes at a fixed rate, hosts in turn; queries at
	// a tenth of it, on seeded hosts, half a period off the writes.
	rnd := rand.New(rand.NewSource(cfg.seed))
	e.ops = make([][]op, connections)
	wi, qi := 0, 0
	for wi < writes || qi < queries {
		wDue := time.Duration(float64(wi) / float64(sz.mixedWritesPerSecond) * float64(time.Second))
		qDue := time.Duration((float64(qi) + 0.5) / float64(sz.mixedQueriesPerSecond) * float64(time.Second))
		if wi < writes && (qi >= queries || wDue <= qDue) {
			h := wi % sz.hosts
			wi++
			o := op{due: wDue, kind: kindWrite, path: "/api/v1/write_group"}
			if rnd.Float64() < rewriteShare {
				r0 := e.written[h] - rewriteBackRounds - groupWriteRounds
				o.body = ds.appendGroupWrite(nil, gids[h], slots[h], h, r0, groupWriteRounds, true)
				for r := r0; r < r0+groupWriteRounds; r++ {
					e.rewritten[h][r] = true
				}
				e.samplesWritten += groupWriteRounds * ((seriesPerHost + 1) / 2)
			} else {
				o.body = ds.appendGroupWrite(nil, gids[h], slots[h], h, e.written[h], groupWriteRounds, false)
				e.written[h] += groupWriteRounds
				e.samplesWritten += groupWriteRounds * seriesPerHost
			}
			e.ops[h%connections] = append(e.ops[h%connections], o)
			continue
		}
		h := rnd.Intn(sz.hosts)
		full := qi%fullCheckEvery == 0
		qi++
		last := e.written[h] - 1
		want := expectation{hosts: []int{h}, series: allSeries, r0: last - hourRounds, r1: last}
		body, err := json.Marshal(remote.QueryRequest{
			MinT: roundTime(want.r0), MaxT: roundTime(want.r1),
			Matchers: []remote.MatcherSpec{{Type: "=", Name: "hostname", Value: ds.hosts[h].Hostname()}},
		})
		if err != nil {
			return nil, err
		}
		e.samplesQueried += want.samples()
		e.ops[h%connections] = append(e.ops[h%connections], op{
			due: qDue, kind: kindQuery, path: "/api/v1/query", body: body,
			check: func(resp []byte) error {
				if err := want.checkCount(resp); err != nil || !full {
					return err
				}
				series, err := decodeQuery(resp)
				if err != nil {
					return err
				}
				// The window ends at the host's newest round; rewrites
				// land two L0 partitions back, outside it.
				return want.checkSeries(series, ds.value)
			},
		})
	}
	built = true
	return e, nil
}

// allSeries is every series index of a host.
var allSeries = func() []int {
	out := make([]int, seriesPerHost)
	for i := range out {
		out[i] = i
	}
	return out
}()

// readBackGroups scans every member of every host group straight through
// core and compares each sample with what the schedule wrote: on a
// rewritten round the even members hold the rewrite (newest wins) and the
// odd members, which the rewrite left NULL, still hold the first write.
func (e *mixedEnv) readBackGroups() (checked, bad int, err error) {
	for h := range e.ds.hosts {
		set, err := e.st.db.QuerySeriesSet(context.Background(), 0, math.MaxInt64,
			labels.MustEqual("hostname", e.ds.hosts[h].Hostname()))
		if err != nil {
			return 0, 0, fmt.Errorf("read-back group %d: %w", h, err)
		}
		members := 0
		for set.Next() {
			entry := set.At()
			_, s, err := seriesIndex(entry.Labels.Get)
			if err != nil {
				return 0, 0, err
			}
			members++
			checked++
			r, ok := 0, true
			for entry.Iterator.Next() {
				t, v := entry.Iterator.At()
				if ok && (r >= e.written[h] || t != roundTime(r) || v != e.ds.groupValue(r, h, s, e.rewritten[h][r])) {
					logf("read-back group %d member %d: sample %d is (%d, %v), schedule says (%d, %v)",
						h, s, r, t, v, roundTime(r), e.ds.groupValue(min(r, e.ds.rounds-1), h, s, e.rewritten[h][r]))
					ok = false
				}
				r++
			}
			if err := entry.Iterator.Err(); err != nil {
				return 0, 0, fmt.Errorf("read-back group %d member %d: %w", h, s, err)
			}
			if !ok || r != e.written[h] {
				bad++
			}
		}
		if err := set.Err(); err != nil {
			return 0, 0, fmt.Errorf("read-back group %d: %w", h, err)
		}
		if members != seriesPerHost {
			checked += seriesPerHost - members
			bad += seriesPerHost - members
		}
	}
	return checked, bad, nil
}

// runMixedGroupRW is the open-loop workload: the schedule fixes when each
// request is due, whatever the stack does.
func runMixedGroupRW(cfg runConfig) (outcome, error) {
	tr := cfg.tracing()
	setupStart := time.Now()
	e, err := setupMixed(cfg, tr, cfg.runDir())
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(cfg.runDir())
	defer func() { _ = e.close() }() // error paths; the last line reports the error of the first close
	st := e.st
	v := values{}
	for _, c := range e.clients {
		c.samples = c.samples[:0] // group definition is set-up, not load
	}

	before := takeCounters(st)
	v["setup_s"] = before.at.Sub(setupStart).Seconds() // everything before the clock starts
	if tr != nil {
		traceAt := time.Duration((1 - tracedShare) * cfg.seconds * float64(time.Second))
		timer := time.AfterFunc(traceAt, func() { tr.rec.on.Store(true) })
		defer timer.Stop()
	}
	runClients(e.clients, func(ci int, c *client) { c.openLoop(before.at, e.ops[ci]) })
	after := takeCounters(st)
	elapsed := after.at.Sub(before.at)
	if err := st.db.Flush(); err != nil {
		return outcome{}, fmt.Errorf("drain: %w", err)
	}
	drained := takeCounters(st)
	walAppended, walKept, err := st.purgeWAL()
	if err != nil {
		return outcome{}, err
	}

	all := summarise(e.clients)
	held := 0
	for _, n := range e.written {
		held += n * seriesPerHost
	}
	ingested := float64(e.samplesPreloaded + e.samplesWritten)
	v["samples_per_s"] = float64(e.samplesWritten+e.samplesQueried) / elapsed.Seconds()
	v["request_p50_ms"], v["request_p90_ms"] = all.p50, all.p90
	v["stored_bytes_per_sample"] = float64(st.fast.TotalBytes()+st.slow.TotalBytes()+walKept) / float64(held)
	v["store_written_bytes_per_sample"] = float64(int64(drained.fast.BytesWritten+drained.slow.BytesWritten)+walAppended) / ingested
	v["modelled_store_ms_per_request"] = millis(modelledStore(before, after)) / float64(all.n)
	e.ops = nil
	v["live_memory_mb"] = liveMemoryMB(st)

	out := outcome{v: v, attempted: all.n, failed: all.failed}
	checked, bad, err := e.readBackGroups()
	if err != nil {
		return outcome{}, err
	}
	out.attempted += checked
	out.failed += bad

	if tr != nil {
		q := summarise(e.clients, kindQuery)
		exported(v, st, before, drained, float64(q.n))
		v["lsm.drain_s"] = drained.at.Sub(after.at).Seconds()
		v["core.reopen_s"] = 0
		v["wal.bytes_per_sample"] = float64(walAppended) / ingested
		loadgenMetrics(v, e.clients, kindWrite)
		if err := finishTrace(cfg, tr, v); err != nil {
			return outcome{}, err
		}
		v["chunkenc.decode_waste_ratio"] = ratio(v["chunkenc.chunks_decoded"]*chunkSamples, float64(e.samplesQueried))
		replayLayers(cfg, v)
	}
	logf("mixed_group_rw: %d requests over %d connections in %.2fs (%d writes/s, %d queries/s scheduled); max lag %.2f ms; %d failed, %d over the %v/%v limits; %d patches",
		all.n, connections, elapsed.Seconds(), cfg.sz.mixedWritesPerSecond, cfg.sz.mixedQueriesPerSecond, all.maxLag, all.failed, all.over, writeLimit, queryLimit,
		int(drained.reg["timeunion_lsm_patches_created_total"]))
	return out, e.close()
}
