package lint

import (
	"go/ast"
	"regexp"
	"strings"
)

// MetricName enforces the metric-naming contract (DESIGN.md §4.7): every
// instrument registered on an obs.Registry uses a compile-time-constant
// name of the form timeunion_<subsystem>_<name>, the subsystem matches the
// registering package (so a wal metric can't masquerade as an lsm one),
// and no two call sites in a package register the identical name+labels
// series. Dynamic names are rejected outright — they defeat grep, dashboards,
// and cardinality review.
var MetricName = &Analyzer{
	Name: "metricname",
	Doc:  "obs instruments use constant timeunion_<subsystem>_<name> names matching the registering package",
	Run:  perPackage(runMetricName),
}

// registryMethods are the obs.Registry instrument constructors.
var registryMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"CounterFunc": true, "GaugeFunc": true,
}

// metricSubsystems maps a package-path fragment to the metric subsystems
// it may register. A package not listed here may not register instruments
// until it is added — forcing each new subsystem through review.
var metricSubsystems = map[string][]string{
	"internal/core":   {"db"},
	"internal/head":   {"head"},
	"internal/wal":    {"wal"},
	"internal/lsm":    {"lsm"},
	"internal/cloud":  {"store", "cache"},
	"internal/remote": {"http"},
}

var metricNameRE = regexp.MustCompile(`^timeunion_([a-z0-9]+)_[a-z0-9_]+$`)

func runMetricName(pass *ModulePass, pkg *Package) {
	if pkg.InScope("internal/obs") {
		return // the registry itself and its self-instrumentation are exempt
	}
	var allowed []string
	known := false
	for frag, subs := range metricSubsystems {
		if pkg.InScope(frag) {
			allowed, known = subs, true
			break
		}
	}

	seen := map[string]ast.Node{} // name{labels} -> first registration site
	pkg.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !registryMethods[sel.Sel.Name] || len(call.Args) < 2 {
			return true
		}
		recv := derefNamed(pkg.Info.TypeOf(sel.X))
		if recv == nil || recv.Obj().Name() != "Registry" || recv.Obj().Pkg() == nil || recv.Obj().Pkg().Name() != "obs" {
			return true
		}

		nameArg := call.Args[0]
		tv, ok := pkg.Info.Types[nameArg]
		if !ok || tv.Value == nil {
			pass.Reportf(nameArg.Pos(), "metric name must be a compile-time string constant, not a dynamic expression")
			return true
		}
		name, err := unquoteConst(tv.Value)
		if err != nil {
			return true
		}
		m := metricNameRE.FindStringSubmatch(name)
		if m == nil {
			pass.Reportf(nameArg.Pos(), "metric name %q does not match timeunion_<subsystem>_<name> (lowercase, underscores)", name)
			return true
		}
		if !known {
			pass.Reportf(nameArg.Pos(), "package %s has no subsystem entry in the metricname analyzer table; add one before registering instruments", pkg.Path)
			return true
		}
		sub := m[1]
		match := false
		for _, s := range allowed {
			if s == sub {
				match = true
				break
			}
		}
		if !match {
			pass.Reportf(nameArg.Pos(), "metric %q uses subsystem %q but this package registers %s", name, sub, strings.Join(quoteAll(allowed), " or "))
			return true
		}

		// Duplicate detection: only when the labels argument is constant
		// too (per-instance label strings built at runtime are fine).
		if ltv, ok := pkg.Info.Types[call.Args[1]]; ok && ltv.Value != nil {
			labels, err := unquoteConst(ltv.Value)
			if err == nil {
				key := name + "{" + labels + "}"
				if first, dup := seen[key]; dup {
					pass.Reportf(nameArg.Pos(), "series %s already registered in this package at %s; reuse the instrument instead of re-registering", key, pass.Fset.Position(first.Pos()))
				} else {
					seen[key] = nameArg
				}
			}
		}
		return true
	})
}

func quoteAll(ss []string) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = `"` + s + `"`
	}
	return out
}
