package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathPattern = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// TestManifestContract checks BENCHMARK.json field by field against the
// limits the benchmark contract sets.
func TestManifestContract(t *testing.T) {
	const path = "../BENCHMARK.json"
	if info, err := os.Stat(path); err != nil || info.Size() > 64<<10 {
		t.Fatalf("%s: %v, must be at most 64 KiB", path, err)
	}
	m, err := loadManifest(path) // rejects keys the contract does not name
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Command) < 1 || len(m.Command) > 32 {
		t.Errorf("command has %d strings", len(m.Command))
	}
	for _, arg := range m.Command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q", arg)
		}
	}
	if len(m.Paths) < 1 || len(m.Paths) > 16 {
		t.Errorf("%d paths", len(m.Paths))
	}
	for _, p := range m.Paths {
		if !pathPattern.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads", len(m.Workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !namePattern.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics", len(m.EndToEnd))
	}
	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(m.PerLayer))
	}
	metric := func(mm manifestMetric, bounded bool) {
		t.Helper()
		name(mm.Name)
		if !unitPattern.MatchString(mm.Unit) {
			t.Errorf("%s: unit %q", mm.Name, mm.Unit)
		}
		if mm.Better != "lower" && mm.Better != "higher" {
			t.Errorf("%s: better %q", mm.Name, mm.Better)
		}
		switch {
		case bounded && (mm.Bound == nil || *mm.Bound <= 0 || *mm.Bound > 0.25):
			t.Errorf("%s: bound must be in (0, 0.25]", mm.Name)
		case !bounded && mm.Bound != nil:
			t.Errorf("%s: a per-layer metric has no bound", mm.Name)
		}
	}
	var setup *manifestMetric
	largest := 0.0
	for i, mm := range m.EndToEnd {
		metric(mm, true)
		if mm.Name == "setup_s" {
			setup = &m.EndToEnd[i]
		}
		if mm.Bound != nil && *mm.Bound > largest {
			largest = *mm.Bound
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" || setup.Bound == nil || *setup.Bound < largest {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better, with the largest bound")
	}
	for _, mm := range m.PerLayer {
		metric(mm, false)
	}
	// 4 + 22 runs per workload must end inside 3420 s with two builds.
	// Beyond run_seconds, the slowest workload (a 4.5 s set-up, 600 warm-up
	// queries, the build check) took 6 s per run when measured; a cold
	// build took 60 s. 10 s per run leaves room for a slower machine.
	if runs := 4 + 22*len(m.Workloads); runs*(m.RunSeconds+10)+2*60 > 3420 {
		t.Errorf("%d runs of %d s plus set-up do not fit inside 3420 s", runs, m.RunSeconds)
	}
}

// TestManifestMatchesProgram runs every workload at the smoke scale, untraced
// and traced, and fails if what the program emits and what the manifest
// lists differ in either direction.
func TestManifestMatchesProgram(t *testing.T) {
	m, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("manifest lists %d workloads, the program runs %d", len(m.Workloads), len(workloads))
	}
	out := t.TempDir()
	for _, mw := range m.Workloads {
		if _, ok := findWorkload(mw.Name); !ok {
			t.Errorf("manifest workload %s is not in the program", mw.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			want := m.EndToEnd
			if traced {
				want = m.PerLayer
			}
			res, err := execute(runConfig{workload: mw.Name, seed: 7, seconds: 0.4, trace: traced, sz: smoke, outDir: out})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", mw.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", mw.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for _, mm := range want {
				got, ok := res.Metrics[mm.Name]
				if !ok {
					t.Errorf("%s traced=%v: manifest metric %s was not emitted", mw.Name, traced, mm.Name)
				} else if got.Unit != mm.Unit {
					t.Errorf("%s: metric %s has unit %q, manifest says %q", mw.Name, mm.Name, got.Unit, mm.Unit)
				}
				// At the smoke scale the hot hour never leaves memory, so no
				// tier is read and the modelled store time is 0; at the
				// frozen scale every end-to-end metric is positive.
				if !traced && ok && got.Value <= 0 && mm.Name != "modelled_store_ms_per_request" {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", mw.Name, mm.Name, got.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, manifest lists %d", mw.Name, traced, len(res.Metrics), len(want))
			}
			if traced {
				if _, err := os.Stat(out + "/trace-" + mw.Name + ".json"); err != nil {
					t.Errorf("%s: no span file: %v", mw.Name, err)
				}
			}
		}
	}
}
