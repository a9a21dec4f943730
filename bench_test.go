package timeunion_test

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"timeunion/internal/bench"
	"timeunion/internal/cloud"
	"timeunion/internal/core"
	"timeunion/internal/labels"
	"timeunion/internal/tsbs"
)

// Each benchmark regenerates one figure/table of the paper's evaluation at
// a reduced scale and reports the headline metrics. Run a single one with
//
//	go test -bench=BenchmarkFig14 -benchtime=1x
//
// or everything with `go test -bench=.`. For paper-scale runs use
// `go run ./cmd/tubench -exp <id> -hosts 32 -hours 24`.
func benchConfig() bench.Config {
	return bench.Config{
		HourMs:            6_000,
		Hosts:             2,
		SpanHours:         24,
		Seed:              2022,
		QueriesPerPattern: 1,
	}
}

func runExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	exp, err := bench.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := exp.Run(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range metrics {
			if v, ok := r.Values[m]; ok {
				b.ReportMetric(v, m)
			}
		}
	}
}

// BenchmarkFig1CloudStorage regenerates Figure 1 (storage pricing and
// read/write latency of the two tiers).
func BenchmarkFig1CloudStorage(b *testing.B) {
	runExperiment(b, "fig1", "read:4096:ratio", "price:ebs/s3")
}

// BenchmarkFig3TsdbMemory regenerates Figure 3 (tsdb resource usage).
func BenchmarkFig3TsdbMemory(b *testing.B) {
	runExperiment(b, "fig3", "breakdown:index", "breakdown:samples")
}

// BenchmarkFig4TsdbLevelDB regenerates Figure 4 (tsdb + LevelDB study).
func BenchmarkFig4TsdbLevelDB(b *testing.B) {
	runExperiment(b, "fig4", "tput:ratio", "tables/compaction")
}

// BenchmarkFig13EndToEnd regenerates Figure 13 (HTTP end-to-end vs Cortex).
func BenchmarkFig13EndToEnd(b *testing.B) {
	runExperiment(b, "fig13", "insert:TU-fast", "insert:Cortex")
}

// BenchmarkFig14StorageEngines regenerates Figure 14 (engine comparison,
// DevOps workload, all Table 2 query patterns).
func BenchmarkFig14StorageEngines(b *testing.B) {
	runExperiment(b, "fig14", "insert:TU", "insert:TU-Group", "insert:tsdb")
}

// BenchmarkFig15BigTimeseries regenerates Figure 15 (dense, long-span data
// with whole-span query patterns).
func BenchmarkFig15BigTimeseries(b *testing.B) {
	runExperiment(b, "fig15", "insert:TU", "insert:tsdb")
}

// BenchmarkFig16MemoryMonitoring regenerates Figure 16 (memory accounting
// during insertion).
func BenchmarkFig16MemoryMonitoring(b *testing.B) {
	runExperiment(b, "fig16", "mem:tsdb", "mem:TU", "mem:TU-Group")
}

// BenchmarkFig17EBSOnly regenerates Figure 17 (single-tier placement).
func BenchmarkFig17EBSOnly(b *testing.B) {
	runExperiment(b, "fig17", "insert:TU", "insert:tsdb")
}

// BenchmarkFig18aEBSLimits regenerates Figure 18a (fast-store budgets).
func BenchmarkFig18aEBSLimits(b *testing.B) {
	runExperiment(b, "fig18a")
}

// BenchmarkFig18bOutOfOrder regenerates Figure 18b (out-of-order volumes).
func BenchmarkFig18bOutOfOrder(b *testing.B) {
	runExperiment(b, "fig18b", "p20:patches")
}

// BenchmarkFig19DynamicSizeControl regenerates Figure 19 (Algorithm 1
// trace).
func BenchmarkFig19DynamicSizeControl(b *testing.B) {
	runExperiment(b, "fig19", "shrinks", "grows")
}

// BenchmarkTable3Sizes regenerates Table 3 (index and data sizes).
func BenchmarkTable3Sizes(b *testing.B) {
	runExperiment(b, "tab3", "index:tsdb", "index:TU", "index:TU-Group")
}

// --- Parallel query / append benchmarks ---

// disabledFaultStore wraps s in a FaultStore with injection switched off.
// The parallel benchmarks run through it so any fixed overhead of the fault
// layer on the hot path would show up as a regression here.
func disabledFaultStore(s cloud.Store) cloud.Store {
	fs := cloud.NewFaultStore(s, cloud.FaultConfig{Seed: 1})
	fs.SetEnabled(false)
	return fs
}

// parallelBenchDB loads a Fig 14-style DevOps workload into a DB whose
// tiers sleep real (scaled) Figure-1 latencies: the slow tier pays ~150µs
// per Get, so a multi-series query over hybrid tiers is I/O-latency-bound
// exactly like on the paper's AWS testbed. The segment cache is kept at one
// byte so repeat queries stay cold on the slow tier (the Fig 14 working set
// exceeds its cache; here the cache would otherwise absorb it).
func parallelBenchDB(b *testing.B) (*core.DB, []tsbs.Host, int64) {
	b.Helper()
	const timeScale = 100 // S3 Get 15ms -> 150µs, EBS Get 250µs -> 2.5µs
	fast := disabledFaultStore(cloud.NewMemStore(cloud.TierBlock, cloud.EBSModel(timeScale)))
	slow := disabledFaultStore(cloud.NewMemStore(cloud.TierObject, cloud.S3Model(timeScale)))
	const hourMs = 6_000
	db, err := core.Open(core.Options{
		Fast:              fast,
		Slow:              slow,
		CacheBytes:        1,
		ChunkSamples:      32,
		SlotsPerRegion:    2048,
		SlotSize:          512,
		MemTableSize:      256 << 10,
		L0PartitionLength: hourMs / 2,
		L2PartitionLength: hourMs * 2,
		BlockSize:         4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })

	hosts := tsbs.Hosts(2, 2022)
	ids := make([][]uint64, len(hosts))
	for hi, h := range hosts {
		ids[hi] = make([]uint64, tsbs.SeriesPerHost)
		for si := range ids[hi] {
			id, err := db.Append(h.SeriesLabels(si), 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			ids[hi][si] = id
		}
	}
	interval := int64(hourMs / 120)
	span := int64(12) * hourMs
	gen := tsbs.NewGenerator(hosts, interval, interval, 2029)
	for round := 0; round < int(span/interval); round++ {
		t, vals := gen.Round()
		for hi := range vals {
			for si, v := range vals[hi] {
				if err := db.AppendFast(ids[hi][si], t, v); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	return db, hosts, span
}

// BenchmarkQueryParallel compares the serial query path against the
// 8-worker pool on the same DB and selector (all 101 series of one host
// over the full span, reaching both tiers), verifying the outputs are
// identical and reporting the wall-clock speedup.
func BenchmarkQueryParallel(b *testing.B) {
	db, hosts, span := parallelBenchDB(b)
	sel := labels.MustEqual("hostname", hosts[0].Hostname())
	ctx := context.Background()
	var serialNs, parNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		rs, err := db.QueryWorkers(ctx, 1, 0, span, sel)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		rp, err := db.QueryWorkers(ctx, 8, 0, span, sel)
		if err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		serialNs += t1.Sub(t0).Nanoseconds()
		parNs += t2.Sub(t1).Nanoseconds()
		if !reflect.DeepEqual(rs, rp) {
			b.Fatal("parallel query output differs from serial output")
		}
		if len(rs) != tsbs.SeriesPerHost {
			b.Fatalf("matched %d series, want %d", len(rs), tsbs.SeriesPerHost)
		}
	}
	b.ReportMetric(float64(serialNs)/float64(parNs), "speedup@8w")
	b.ReportMetric(float64(serialNs)/float64(b.N)/1e6, "serial-ms/query")
	b.ReportMetric(float64(parNs)/float64(b.N)/1e6, "parallel-ms/query")
}

// BenchmarkAppendFastParallel compares a serial fast-path append loop
// against 8 goroutines appending to disjoint series sets on one DB — the
// workload the striped head locks exist for.
func BenchmarkAppendFastParallel(b *testing.B) {
	const (
		goroutines    = 8
		seriesPerGoro = 32
		perIter       = goroutines * seriesPerGoro // samples per benchmark iteration
	)
	db, err := core.Open(core.Options{
		Fast:         disabledFaultStore(cloud.NewMemStore(cloud.TierBlock, cloud.EBSModel(0))),
		Slow:         disabledFaultStore(cloud.NewMemStore(cloud.TierObject, cloud.S3Model(0))),
		ChunkSamples: 32,
		MemTableSize: 4 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	ids := make([]uint64, goroutines*seriesPerGoro)
	for i := range ids {
		id, err := db.Append(labels.FromStrings("metric", "cpu", "series", string(rune('a'+i/26%26))+string(rune('a'+i%26)), "blk", string(rune('a'+i/676))), 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}

	run := func(workers int, startT int64) time.Duration {
		t0 := time.Now()
		var wg sync.WaitGroup
		per := len(ids) / workers
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for n := 0; n < b.N; n++ {
					t := startT + int64(n)*10
					for s := w * per; s < (w+1)*per; s++ {
						if err := db.AppendFast(ids[s], t, float64(n)); err != nil {
							b.Error(err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		return time.Since(t0)
	}

	b.ResetTimer()
	serial := run(1, 10)
	parallel := run(goroutines, int64(b.N)*10+20)
	b.StopTimer()
	total := float64(2 * b.N * perIter)
	b.ReportMetric(total/(serial+parallel).Seconds(), "samples/s")
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup@8g")
}
