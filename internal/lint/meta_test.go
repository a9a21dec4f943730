package lint

import (
	"strings"
	"testing"
	"time"
)

// TestNoIgnoredDiagnostics is the in-process invariant gate: the full
// analyzer suite over the whole module must produce zero unsuppressed
// findings, so `go test ./...` enforces the same contract `make lint`
// does in CI. A finding here means either a real invariant violation or a
// missing //lint:ignore with a reason.
func TestNoIgnoredDiagnostics(t *testing.T) {
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	pkgs, err := NewLoader(root, modPath).Load("./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the module walk looks broken", len(pkgs))
	}
	diags := Run(root, pkgs, All())
	for _, d := range Unsuppressed(diags) {
		t.Errorf("%s", d)
	}
	if t.Failed() {
		t.Log("fix the findings above or add //lint:ignore <analyzer> <reason> where the violation is deliberate")
	}
}

// TestFindModule pins module discovery from a nested directory.
func TestFindModule(t *testing.T) {
	root, path, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if path != "timeunion" {
		t.Errorf("module path = %q, want timeunion", path)
	}
	if !strings.HasSuffix(root, "repo") && root == "" {
		t.Errorf("unexpected module root %q", root)
	}
}

// TestLoaderSkipsTestdataAndTests: fixture packages under testdata and
// _test.go files must never leak into a module load, or their deliberate
// violations would fail the real gate.
func TestLoaderSkipsTestdataAndTests(t *testing.T) {
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := NewLoader(root, modPath).Load("./internal/lint/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		if strings.Contains(pkg.Path, "testdata") {
			t.Errorf("testdata package loaded: %s", pkg.Path)
		}
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			if strings.HasSuffix(name, "_test.go") {
				t.Errorf("test file loaded: %s", name)
			}
		}
	}
}

// BenchmarkLintSuite times the analysis half of `make lint` over this
// module; the load (parse and type-check) happens once, outside the timer.
// "all" runs the whole suite as `make lint` does. Each analyzer's
// sub-benchmark runs it alone and reports its own time as analyzer-ns/op;
// the call graph that the interprocedural analyzers build is timed by the
// "callgraph" sub-benchmark (and counted in their ns/op and allocs/op).
func BenchmarkLintSuite(b *testing.B) {
	root, modPath, err := FindModule(".")
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := NewLoader(root, modPath).Load("./...")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("all", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			Run(root, pkgs, All())
		}
	})
	for _, a := range All() {
		b.Run(a.Name, func(b *testing.B) {
			b.ReportAllocs()
			var own time.Duration
			for range b.N {
				_, timings := RunTimed(root, pkgs, []*Analyzer{a})
				for _, t := range timings {
					if t.Analyzer == a.Name {
						own += t.Duration
					}
				}
			}
			b.ReportMetric(float64(own.Nanoseconds())/float64(b.N), "analyzer-ns/op")
		})
	}
	b.Run("callgraph", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			BuildCallGraph(pkgs)
		}
	})
}
