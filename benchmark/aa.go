package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// manifest is BENCHMARK.json as the contract defines it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// runAll is the one command that prints every metric: each workload
// untraced for the end-to-end metrics, then traced for the per-layer ones.
// It claims nothing: the summary it ends with says so.
func runAll(base runConfig) error {
	wrong := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := base
			cfg.workload, cfg.trace = w.name, traced
			res, err := execute(cfg)
			if err != nil {
				return err
			}
			printResult(cfg, res)
			wrong += res.Failed
		}
	}
	fmt.Printf("{\"workloads\": %d, \"claim\": null}\n", len(workloads))
	if wrong > 0 {
		return fmt.Errorf("%d operations failed", wrong)
	}
	return nil
}

func printResult(cfg runConfig, res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d seconds=%g traced=%v: %d operations, %d failed\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, res.Attempted, res.Failed)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-16s %-36s %16.6g %s\n", cfg.workload, name, m.Value, m.Unit)
	}
}

// aaRuns is how many untraced runs of each workload one side of an A/A pair
// takes; the sides' medians are compared.
const aaRuns = 3

// runAA measures the same build twice, aaRuns untraced runs of every
// workload per side on consecutive seeds, and compares the sides' medians
// metric by metric against the bounds BENCHMARK.json fixes. Two sides of
// one build that disagree by more than a bound mean the bound is tighter
// than the benchmark can resolve. The sides take turns, run by run, and
// alternate which goes first, so that a slow stretch of the machine falls
// on both.
func runAA(base runConfig) error {
	m, err := loadManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	// vals[side][workload][metric] and ops[side][workload].
	var vals [2]map[string]map[string][]float64
	var ops [2]map[string]int
	for side := range vals {
		vals[side], ops[side] = map[string]map[string][]float64{}, map[string]int{}
	}
	for _, w := range workloads {
		vals[0][w.name], vals[1][w.name] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < 2*aaRuns; i++ {
			// Runs 0 and 1 share the first seed, 2 and 3 the second, ...:
			// an A/A pair differs only by the run. Sides go 0 1 1 0 0 1.
			side := (i + 1) / 2 % 2
			cfg := base
			cfg.workload, cfg.seed = w.name, base.seed+int64(i/2)
			res, err := execute(cfg)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %d operations failed", w.name, cfg.seed, res.Failed)
			}
			ops[side][w.name] += res.Attempted
			for name, mv := range res.Metrics {
				vals[side][w.name][name] = append(vals[side][w.name][name], mv.Value)
			}
		}
	}
	a, b, opsA, opsB := vals[0], vals[1], ops[0], ops[1]
	outside := 0
	fmt.Printf("%-16s %-32s %14s %14s %12s %7s  %s\n", "workload", "metric", "first", "second", "second/first", "bound", "operations")
	for _, w := range workloads {
		for _, em := range m.EndToEnd {
			first, second := median(a[w.name][em.Name]), median(b[w.name][em.Name])
			r := ratio(second, first)
			verdict := "within"
			if em.Bound != nil && math.Abs(r-1) > *em.Bound {
				verdict = "OUTSIDE"
				outside++
			}
			fmt.Printf("%-16s %-32s %14.6g %14.6g %12.4f %6.0f%%  %d/%d %s\n",
				w.name, em.Name, first, second, r, 100**em.Bound, opsA[w.name], opsB[w.name], verdict)
		}
	}
	fmt.Println(`{"claim": null}`)
	if outside > 0 {
		return fmt.Errorf("%d end-to-end metrics differ between two runs of the same build by more than their bound", outside)
	}
	return nil
}
