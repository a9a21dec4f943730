// Package lint is TimeUnion's project-invariant static-analysis driver
// (DESIGN.md §4.9). It loads packages from source with go/parser and
// go/types — no external modules — and runs a fixed suite of analyzers
// that mechanically enforce contracts the design docs state in prose:
// striped-lock ordering (§4.5), the durability/error-classification
// discipline (§4.6), metric naming (§4.7), and the SampleIterator Seek
// contract (§4.8).
//
// Diagnostics print as "file:line:col: [analyzer] message". A finding is
// suppressed by a directive comment on the same line or the line above:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; a directive without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Analyzer is one invariant checker. Run receives every loaded package;
// an analyzer that checks packages one at a time loops over pass.Pkgs, and
// an interprocedural one asks for the shared call graph.
type Analyzer struct {
	// Name is the identifier used in output and ignore directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run executes the analyzer once over the whole loaded set.
	Run func(*ModulePass)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"` // module-root-relative path
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
	// Suppressed marks findings covered by a lint:ignore directive; they
	// are retained (for -json trend inspection) but do not fail the run.
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// String renders the canonical file:line:col: [analyzer] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// InScope reports whether the package's import path falls under any of the
// given path fragments (e.g. "internal/wal"). Analyzers scope themselves
// this way rather than hard-coding the module name, so fixture packages
// under testdata exercise the same logic.
func (p *Package) InScope(fragments ...string) bool {
	for _, f := range fragments {
		if pathInScope(p.Path, f) {
			return true
		}
	}
	return false
}

// pathInScope is InScope's matching over a bare import path: by
// path-segment suffix or containment, so both the real module and test
// fixtures match.
func pathInScope(path, fragment string) bool {
	return path == fragment || strings.HasSuffix(path, "/"+fragment) || strings.Contains(path, "/"+fragment+"/")
}

// Inspect walks every file of the package in depth-first order.
func (p *Package) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// ModulePass carries the whole loaded package set to one analyzer. The call
// graph is built on the first Graph call of a run and shared by every later
// one, so a run of per-package analyzers alone never builds it.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package

	graph *lazyGraph
	diags *[]Diagnostic
}

// lazyGraph is one run's call graph and the time its build took.
type lazyGraph struct {
	g    *CallGraph
	took time.Duration
}

// Graph returns the run's call graph, building it on first use.
func (p *ModulePass) Graph() *CallGraph {
	if p.graph.g == nil {
		start := time.Now()
		p.graph.g = BuildCallGraph(p.Pkgs)
		p.graph.took = time.Since(start)
	}
	return p.graph.g
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Line:     position.Line,
		Col:      position.Column,
		File:     position.Filename,
		Message:  fmt.Sprintf(format, args...),
	})
}

// perPackage makes an Analyzer's Run from a check of one package.
func perPackage(check func(*ModulePass, *Package)) func(*ModulePass) {
	return func(pass *ModulePass) {
		for _, pkg := range pass.Pkgs {
			check(pass, pkg)
		}
	}
}

// Timing is one analyzer's aggregate wall time across a run. The shared
// call-graph build is reported under the pseudo-analyzer "callgraph".
type Timing struct {
	Analyzer string        `json:"analyzer"`
	Duration time.Duration `json:"-"`
	Millis   float64       `json:"ms"`
}

// Run executes every analyzer over every package and returns the combined,
// position-sorted diagnostics with suppression applied. Paths in the
// returned diagnostics are relative to root when possible.
func Run(root string, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunTimed(root, pkgs, analyzers)
	return diags
}

// RunTimed is Run plus per-analyzer wall-time accounting (the tulint
// -timing report and the make lint budget check).
func RunTimed(root string, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Timing) {
	var diags []Diagnostic
	elapsed := map[string]time.Duration{}
	var order []string
	record := func(name string, d time.Duration) {
		if _, ok := elapsed[name]; !ok {
			order = append(order, name)
		}
		elapsed[name] += d
	}
	// Malformed directives are findings too: an ignore without a reason
	// defeats the audit trail the directive exists for.
	for _, pkg := range pkgs {
		for _, bad := range pkg.badDirectives {
			diags = append(diags, Diagnostic{
				Analyzer: "lint",
				Pos:      bad.pos,
				File:     bad.pos.Filename,
				Line:     bad.pos.Line,
				Col:      bad.pos.Column,
				Message:  bad.msg,
			})
		}
	}
	graph := &lazyGraph{}
	for _, a := range analyzers {
		pass := &ModulePass{Analyzer: a, Fset: sharedFset, Pkgs: pkgs, graph: graph, diags: &diags}
		built := graph.g != nil
		start := time.Now()
		a.Run(pass)
		took := time.Since(start)
		if !built && graph.g != nil {
			// The graph build this analyzer triggered is its own row.
			record("callgraph", graph.took)
			took -= graph.took
		}
		record(a.Name, took)
	}
	// Apply suppression directives.
	byFile := map[string][]ignoreDirective{}
	for _, pkg := range pkgs {
		for file, dirs := range pkg.ignores {
			byFile[file] = append(byFile[file], dirs...)
		}
	}
	for i := range diags {
		for _, dir := range byFile[diags[i].File] {
			if dir.matches(diags[i].Analyzer, diags[i].Line) {
				diags[i].Suppressed = true
				diags[i].Reason = dir.reason
				break
			}
		}
	}
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	timings := make([]Timing, 0, len(order))
	for _, name := range order {
		d := elapsed[name]
		timings = append(timings, Timing{Analyzer: name, Duration: d, Millis: float64(d.Microseconds()) / 1000})
	}
	return diags, timings
}

// Unsuppressed filters diags down to the findings that fail a run.
func Unsuppressed(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}
