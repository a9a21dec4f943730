package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"timeunion/internal/chunkenc"
	"timeunion/internal/cloud"
	"timeunion/internal/encoding"
	"timeunion/internal/head"
	"timeunion/internal/labels"
	"timeunion/internal/memtable"
	"timeunion/internal/remote"
	"timeunion/internal/sstable"
	"timeunion/internal/tsbs"
	"timeunion/internal/tuple"
	"timeunion/internal/wal"
)

// replayLayers feeds the first replaySamples samples and replayQueries
// queries of the workload's own generated stream, single-threaded, into
// each layer's public functions on fresh instances: what a layer costs
// alone, next to what it costs inside the stack. A layer that fails here
// reports the failure and zeroes; the run's verdict rests on the workload.
func replayLayers(cfg runConfig, v values) {
	for _, name := range replayMetrics {
		v[name] = 0
	}
	rounds := max(2*chunkSamples, cfg.sz.replaySamples/(cfg.sz.hosts*seriesPerHost))
	ds := newDataset(cfg.sz.hosts, rounds, cfg.seed)
	dir := filepath.Join(cfg.runDir(), "replay")
	steps := []struct {
		layer string
		run   func() error
	}{
		{"remote", func() error { return replayRemote(cfg, ds, v) }},
		{"head and index", func() error { return replayHead(cfg, ds, v) }},
		{"wal", func() error { return replayWAL(ds, filepath.Join(dir, "wal"), v) }},
		{"chunkenc, memtable and sstable", func() error { return replayChunks(ds, v) }},
	}
	for _, st := range steps {
		if err := st.run(); err != nil {
			logf("replay %s: %v", st.layer, err)
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		logf("replay: %v", err)
	}
}

var replayMetrics = []string{
	"remote.json_decode_ns_per_sample", "remote.json_encode_ns_per_sample",
	"head.append_ns_per_sample", "head.append_group_ns_per_sample", "index.select_ns_per_op",
	"wal.log_ns_per_sample", "wal.log_group_ns_per_sample",
	"chunkenc.append_ns_per_sample", "chunkenc.iterate_ns_per_sample",
	"memtable.put_ns_per_chunk", "memtable.iter_ns_per_chunk",
	"sstable.build_ns_per_entry", "sstable.iter_ns_per_entry", "sstable.get_ns_hit", "sstable.get_ns_miss",
}

func perOp(d time.Duration, n int) float64 { return ratio(float64(d), float64(n)) }

// replayRemote times the wire codec exactly as the handlers use it: a
// json.Decoder over a write_fast body, a json.Encoder per result series.
func replayRemote(cfg runConfig, ds *dataset, v values) error {
	ids := make([][]uint64, len(ds.hosts))
	all := make([]int, len(ds.hosts))
	for h := range ids {
		all[h] = h
		for s := 0; s < seriesPerHost; s++ {
			ids[h] = append(ids[h], uint64(h*seriesPerHost+s+1))
		}
	}
	bodies := make([][]byte, ds.rounds)
	for r := range bodies {
		bodies[r] = ds.appendFastRound(nil, ids, all, r)
	}
	start := time.Now()
	for _, body := range bodies {
		var req remote.FastWriteRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return err
		}
	}
	v["remote.json_decode_ns_per_sample"] = perOp(time.Since(start), ds.rounds*ds.numSeries())

	// 5-1-1-shaped results: five series of one host over one hour.
	span := min(hourRounds, ds.rounds)
	results := make([]remote.QuerySeries, 0, cfg.sz.replayQueries*5)
	for q := 0; q < cfg.sz.replayQueries; q++ {
		h := q % len(ds.hosts)
		for s := 0; s < 5; s++ {
			qs := remote.QuerySeries{Labels: labelsToMap(ds.hosts[h].SeriesLabels(s)), Samples: make([]remote.Sample, span)}
			for r := range qs.Samples {
				qs.Samples[r] = remote.Sample{T: roundTime(r), V: ds.value(r, h, s)}
			}
			results = append(results, qs)
		}
	}
	start = time.Now()
	enc := json.NewEncoder(io.Discard)
	for i := range results {
		if err := enc.Encode(results[i]); err != nil {
			return err
		}
	}
	v["remote.json_encode_ns_per_sample"] = perOp(time.Since(start), len(results)*span)
	return nil
}

func discardChunk(encoding.Key, []byte) error { return nil }

// replayHead times the head alone: no WAL, heap-backed arrays, finished
// chunks discarded. Series and groups are defined before the clock starts.
func replayHead(cfg runConfig, ds *dataset, v values) error {
	h, err := head.New(head.Options{ChunkSamples: chunkSamples, Sink: discardChunk})
	if err != nil {
		return err
	}
	ids := make([][]uint64, len(ds.hosts))
	for hi, host := range ds.hosts {
		for s := 0; s < seriesPerHost; s++ {
			id, err := h.Append(host.SeriesLabels(s), roundTime(0), ds.value(0, hi, s))
			if err != nil {
				_ = h.Close() // the append error is the one to report
				return err
			}
			ids[hi] = append(ids[hi], id)
		}
	}
	start := time.Now()
	for r := 1; r < ds.rounds; r++ {
		for hi := range ds.hosts {
			for s, id := range ids[hi] {
				if err := h.AppendFast(id, roundTime(r), ds.value(r, hi, s)); err != nil {
					_ = h.Close() // the append error is the one to report
					return err
				}
			}
		}
	}
	v["head.append_ns_per_sample"] = perOp(time.Since(start), (ds.rounds-1)*ds.numSeries())

	// The same selectors the 5-1-1 pattern sends.
	cpu := tsbs.Measurements[0].Fields
	start = time.Now()
	for q := 0; q < cfg.sz.replayQueries; q++ {
		fields := make([]string, 5)
		for i := range fields {
			fields[i] = cpu[(q+i)%len(cpu)]
		}
		got, err := h.Index().Select(
			labels.MustEqual("measurement", "cpu"),
			labels.MustMatcher(labels.MatchRegexp, "field", strings.Join(fields, "|")),
			labels.MustEqual("hostname", ds.hosts[q%len(ds.hosts)].Hostname()))
		if err != nil || len(got) != len(fields) {
			_ = h.Close() // the select error is the one to report
			return fmt.Errorf("index select %d: %d ids, %v", q, len(got), err)
		}
	}
	v["index.select_ns_per_op"] = perOp(time.Since(start), cfg.sz.replayQueries)
	if err := h.Close(); err != nil {
		return err
	}

	g, err := head.New(head.Options{ChunkSamples: chunkSamples, Sink: discardChunk})
	if err != nil {
		return err
	}
	gids := make([]uint64, len(ds.hosts))
	slots := make([][]int, len(ds.hosts))
	unique := make([]labels.Labels, seriesPerHost)
	for s := range unique {
		unique[s] = tsbs.SeriesTags(s)
	}
	row := func(r, hi int) []float64 { return ds.vals[r][hi*seriesPerHost : (hi+1)*seriesPerHost] }
	for hi, host := range ds.hosts {
		if gids[hi], slots[hi], err = g.AppendGroup(host.Tags, unique, roundTime(0), row(0, hi)); err != nil {
			_ = g.Close() // the append error is the one to report
			return err
		}
	}
	start = time.Now()
	for r := 1; r < ds.rounds; r++ {
		for hi := range ds.hosts {
			if err := g.AppendGroupFast(gids[hi], slots[hi], roundTime(r), row(r, hi)); err != nil {
				_ = g.Close() // the append error is the one to report
				return err
			}
		}
	}
	v["head.append_group_ns_per_sample"] = perOp(time.Since(start), (ds.rounds-1)*ds.numSeries())
	return g.Close()
}

// replayWAL times the log alone, on a fresh directory, with the default
// sync policy.
func replayWAL(ds *dataset, dir string, v values) error {
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	start := time.Now()
	for r := 0; r < ds.rounds; r++ {
		for i, val := range ds.vals[r] {
			if err := w.LogSample(uint64(i+1), uint64(r+1), roundTime(r), val); err != nil {
				_ = w.Close() // the log error is the one to report
				return err
			}
		}
	}
	v["wal.log_ns_per_sample"] = perOp(time.Since(start), ds.rounds*ds.numSeries())

	slots := make([]uint32, seriesPerHost)
	for s := range slots {
		slots[s] = uint32(s)
	}
	start = time.Now()
	for r := 0; r < ds.rounds; r++ {
		for hi := range ds.hosts {
			vals := ds.vals[r][hi*seriesPerHost : (hi+1)*seriesPerHost]
			if err := w.LogGroupSample(uint64(hi+1), uint64(r+1), roundTime(r), slots, vals); err != nil {
				_ = w.Close() // the log error is the one to report
				return err
			}
		}
	}
	v["wal.log_group_ns_per_sample"] = perOp(time.Since(start), ds.rounds*ds.numSeries())
	return w.Close()
}

// replayChunks carries the stream through the storage formats: XOR chunks,
// a memtable of chunk tuples, one SSTable built from it, and point reads
// on that table through a warm cache and through one that keeps nothing.
func replayChunks(ds *dataset, v values) error {
	type kv struct{ key, value []byte }
	var chunks []kv
	samples := 0
	var appendTook, iterTook time.Duration
	for i := 0; i < ds.numSeries(); i++ {
		for r0 := 0; r0+chunkSamples <= ds.rounds; r0 += chunkSamples {
			start := time.Now()
			c := chunkenc.NewXORChunk()
			for r := r0; r < r0+chunkSamples; r++ {
				if err := c.Append(roundTime(r), ds.vals[r][i]); err != nil {
					return err
				}
			}
			payload := append([]byte(nil), c.Bytes()...)
			appendTook += time.Since(start)

			start = time.Now()
			it := chunkenc.NewXORIterator(payload)
			n := 0
			for it.Next() {
				n++
			}
			iterTook += time.Since(start)
			if it.Err() != nil || n != chunkSamples {
				return fmt.Errorf("chunk of series %d decodes to %d samples: %v", i, n, it.Err())
			}
			samples += n
			key := encoding.MakeKey(uint64(i+1), roundTime(r0))
			chunks = append(chunks, kv{key[:], tuple.Encode(uint64(r0/chunkSamples+1), tuple.KindSeries,
				roundTime(r0), roundTime(r0+chunkSamples-1), payload)})
		}
	}
	v["chunkenc.append_ns_per_sample"] = perOp(appendTook, samples)
	v["chunkenc.iterate_ns_per_sample"] = perOp(iterTook, samples)

	mt := memtable.New()
	start := time.Now()
	for _, c := range chunks {
		mt.Put(c.key, c.value)
	}
	v["memtable.put_ns_per_chunk"] = perOp(time.Since(start), len(chunks))

	w := sstable.NewWriter(0)
	var buildTook time.Duration
	start = time.Now()
	n := 0
	for it := mt.Iter(nil, nil); it.Next(); n++ {
		t0 := time.Now()
		if err := w.Add(it.Key(), it.Value()); err != nil {
			return err
		}
		buildTook += time.Since(t0)
	}
	v["memtable.iter_ns_per_chunk"] = perOp(time.Since(start)-buildTook, n)
	t0 := time.Now()
	data, err := w.Finish()
	if err != nil {
		return err
	}
	v["sstable.build_ns_per_entry"] = perOp(buildTook+time.Since(t0), n)

	store := cloud.NewMemStore(cloud.TierObject, cloud.S3Model(0))
	const name = "replay/table"
	if err := store.Put(name, data); err != nil {
		return err
	}
	warm := cloud.NewLRUCache(int64(4 * len(data)))
	tbl, err := sstable.OpenTableFromBytes(store, name, warm, data)
	if err != nil {
		return err
	}
	start = time.Now()
	it := tbl.Iter(nil, nil)
	seen := 0
	for it.Next() {
		seen++
	}
	err = it.Err()
	it.Release()
	if err != nil || seen != n {
		return fmt.Errorf("table iterates %d of %d entries: %v", seen, n, err)
	}
	v["sstable.iter_ns_per_entry"] = perOp(time.Since(start), seen) // this pass also warmed the cache

	get := func(t *sstable.Table) (time.Duration, error) {
		start := time.Now()
		for _, c := range chunks {
			if _, ok, err := t.Get(c.key); err != nil || !ok {
				return 0, fmt.Errorf("table get: found=%v: %v", ok, err)
			}
		}
		return time.Since(start), nil
	}
	hit, err := get(tbl)
	if err != nil {
		return err
	}
	v["sstable.get_ns_hit"] = perOp(hit, len(chunks))
	// A cache too small to keep a block: every Get fetches and decodes.
	cold, err := sstable.OpenTableFromBytes(store, name, cloud.NewLRUCache(1), data)
	if err != nil {
		return err
	}
	miss, err := get(cold)
	if err != nil {
		return err
	}
	v["sstable.get_ns_miss"] = perOp(miss, len(chunks))
	return nil
}
