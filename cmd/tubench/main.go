// Command tubench runs the paper-reproduction experiments: one per figure
// or table of the TimeUnion evaluation (§4).
//
// Usage:
//
//	tubench -list
//	tubench -exp fig14 [-hosts 16] [-hours 24] [-hourms 60000] [-queries 3]
//	tubench -exp fig14 -json out/        # also write out/BENCH_fig14.json
//	tubench -exp fig14 -metrics          # print engine metric snapshots
//	tubench -all
//
// Every experiment prints the rows the paper reports, at the configured
// scale, plus a note quoting the paper's measured shape for comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"timeunion/internal/bench"
)

func main() {
	var (
		exp             = flag.String("exp", "", "experiment ID ("+strings.Join(bench.IDs(), ", ")+")")
		all             = flag.Bool("all", false, "run every experiment")
		list            = flag.Bool("list", false, "list experiments")
		hosts           = flag.Int("hosts", 8, "number of TSBS DevOps hosts (101 series each)")
		hours           = flag.Int("hours", 24, "logical hours of data")
		hourMs          = flag.Int64("hourms", 60_000, "length of one logical hour in sample-time ms")
		queries         = flag.Int("queries", 3, "query repetitions per pattern")
		seed            = flag.Int64("seed", 2022, "workload seed")
		parallelCompact = flag.Int("parallel-compact", 0, "LSM compaction executor pool size (0 = engine default; the compact experiment compares 1 vs this, defaulting to 4)")
		faults          = flag.Float64("faults", 0, "per-op fault-injection probability for the cloud stores (0 = off)")
		faultSeed       = flag.Int64("faultseed", 0, "fault-injection seed (0 = derive from -seed)")
		jsonDir         = flag.String("json", "", "also write each report as <dir>/BENCH_<ID>.json")
		metrics         = flag.Bool("metrics", false, "print each engine's metric snapshot after the report table")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := bench.Config{
		HourMs:            *hourMs,
		Hosts:             *hosts,
		SpanHours:         *hours,
		Seed:              *seed,
		QueriesPerPattern: *queries,
		CompactionWorkers: *parallelCompact,
		FaultProb:         *faults,
		FaultSeed:         *faultSeed,
	}

	var toRun []bench.Experiment
	switch {
	case *all:
		toRun = bench.Experiments
	case *exp != "":
		e, err := bench.Lookup(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		toRun = []bench.Experiment{e}
	default:
		flag.Usage()
		os.Exit(2)
	}

	for _, e := range toRun {
		start := time.Now()
		report, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		report.Print(os.Stdout)
		if *metrics {
			printMetrics(report)
		}
		if *jsonDir != "" {
			if err := writeJSON(*jsonDir, report); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
				os.Exit(1)
			}
		}
		fmt.Printf("  (%s completed in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

// printMetrics dumps each engine's end-of-run metric snapshot, sorted.
func printMetrics(r *bench.Report) {
	engines := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		engines = append(engines, name)
	}
	sort.Strings(engines)
	for _, name := range engines {
		snap := r.Metrics[name]
		keys := make([]string, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("  metrics[%s]:\n", name)
		for _, k := range keys {
			fmt.Printf("    %-60s %g\n", k, snap[k])
		}
	}
}

func writeJSON(dir string, r *bench.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+r.ID+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	return nil
}
