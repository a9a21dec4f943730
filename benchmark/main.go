// Command benchmark is TimeUnion's benchmark: four seeded workloads against
// the stack people run (HTTP API, core with WAL, metrics and journal on,
// two directory-backed tiers), measured end to end and layer by layer from
// outside the program. See README.md.
//
//	bash benchmark/run.sh --workload ingest_series --seed 1 --seconds 10 --trace 0
//
// runs one workload and prints, as the last line of standard output, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
// gives the end-to-end metrics, --trace 1 the per-layer metrics and a span
// file under benchmark/out/. Everything else goes to standard error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: ingest_series, query_hot, query_cold, mixed_group_rw")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		secs    = flag.Float64("seconds", 10, "how long the timed phase measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
		isSmoke = flag.Bool("smoke", false, "tiny sizes, for the manifest test")
		all     = flag.Bool("all", false, "run every workload untraced and traced and print every metric")
		aa      = flag.Bool("aa", false, "run every workload twice on this build and fail if an end-to-end metric differs by more than its bound")
	)
	flag.Parse()
	runtime.GOMAXPROCS(maxProcs)
	sz := frozen
	if *isSmoke {
		sz = smoke
	}
	base := runConfig{seed: *seed, seconds: *secs, sz: sz, outDir: filepath.Join("benchmark", "out")}
	var err error
	switch {
	case *aa:
		err = runAA(base)
	case *all:
		err = runAll(base)
	default:
		base.workload, base.trace = *name, *trace != 0
		err = runOne(base)
	}
	if err != nil {
		logf("benchmark: %v", err)
		os.Exit(1)
	}
}

// execute runs one workload and renders its result line.
func execute(cfg runConfig) (result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	if err := os.RemoveAll(cfg.runDir()); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(cfg.runDir(), 0o755); err != nil {
		return result{}, err
	}
	out, err := w.run(cfg)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	defs := endToEndMetrics
	if cfg.trace {
		defs = perLayerMetrics
	}
	metrics, err := out.v.render(defs)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}, nil
}

// runOne is the contract's entry point: one workload, one result line, and
// a non-zero exit when an answer was wrong.
func runOne(cfg runConfig) error {
	res, err := execute(cfg)
	if err != nil {
		return err
	}
	line, err := res.line()
	if err != nil {
		return err
	}
	fmt.Println(line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", cfg.workload, res.Failed, res.Attempted)
	}
	return nil
}
