package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRE extracts expectation comments of the form
//
//	// want "regexp" `regexp` ...
//
// from fixture files; each quoted pattern must be matched by exactly one
// diagnostic on that line, and every diagnostic must match a pattern.
var (
	wantRE    = regexp.MustCompile(`// want (.+)$`)
	patternRE = regexp.MustCompile("\"([^\"]*)\"|`([^`]*)`")
)

// loadFixture type-checks testdata/src/<name> as module "fix".
func loadFixture(t *testing.T, name string) (root string, pkgs []*Package) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err = NewLoader(root, "fix").Load("./...")
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s loaded no packages", name)
	}
	return root, pkgs
}

// collectWants scans every fixture file for want comments, keyed by
// root-relative file and line.
func collectWants(t *testing.T, root string) map[string][]string {
	t.Helper()
	wants := map[string][]string{}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", rel, i+1)
			for _, q := range patternRE.FindAllStringSubmatch(m[1], -1) {
				pat := q[1]
				if pat == "" {
					pat = q[2]
				}
				wants[key] = append(wants[key], pat)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// runFixtureTest loads the fixture, runs the analyzer, and diffs the
// diagnostics against the want comments.
func runFixtureTest(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	root, pkgs := loadFixture(t, fixture)
	diags := Run(root, pkgs, []*Analyzer{a})
	wants := collectWants(t, root)

	matched := map[string]int{} // want key -> patterns consumed
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		pats := wants[key]
		found := false
		for i := matched[key]; i < len(pats); i++ {
			re, err := regexp.Compile(pats[i])
			if err != nil {
				t.Fatalf("bad want pattern %q at %s: %v", pats[i], key, err)
			}
			if re.MatchString(d.Message) {
				// Consume by swapping to the front of the unconsumed
				// region so one want matches one diagnostic.
				pats[i], pats[matched[key]] = pats[matched[key]], pats[i]
				matched[key]++
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, pats := range wants {
		for i := matched[key]; i < len(pats); i++ {
			t.Errorf("missing diagnostic at %s matching %q", key, pats[i])
		}
	}
}

func TestAtomicAlign(t *testing.T)  { runFixtureTest(t, AtomicAlign, "atomicalign") }
func TestLockOrder(t *testing.T)    { runFixtureTest(t, LockGraph, "lockorder") }
func TestErrWrap(t *testing.T)      { runFixtureTest(t, ErrWrap, "errwrap") }
func TestMetricName(t *testing.T)   { runFixtureTest(t, MetricName, "metricname") }
func TestCtxFlow(t *testing.T)      { runFixtureTest(t, CtxFlow, "ctxflow") }
func TestSeekContract(t *testing.T) { runFixtureTest(t, SeekContract, "seekcontract") }
func TestAllocHot(t *testing.T)     { runFixtureTest(t, AllocHot, "allochot") }
func TestMmapEscape(t *testing.T)   { runFixtureTest(t, MmapEscape, "mmapescape") }
func TestFaultCover(t *testing.T)   { runFixtureTest(t, FaultCover, "faultcover") }
func TestLockGraph(t *testing.T)    { runFixtureTest(t, LockGraph, "lockgraph") }
func TestPoolOwn(t *testing.T)      { runFixtureTest(t, PoolOwn, "poolown") }
func TestJournalCover(t *testing.T) { runFixtureTest(t, JournalCover, "journalcover") }

// TestFixturesFailTheGate proves each fixture makes the full suite exit
// non-zero: the acceptance property `make lint` relies on.
func TestFixturesFailTheGate(t *testing.T) {
	for _, fixture := range []string{"atomicalign", "lockorder", "errwrap", "metricname", "ctxflow", "seekcontract", "allochot", "mmapescape", "faultcover", "lockgraph", "poolown", "journalcover"} {
		root, pkgs := loadFixture(t, fixture)
		if n := len(Unsuppressed(Run(root, pkgs, All()))); n == 0 {
			t.Errorf("fixture %s: full suite found no violations; the gate would pass vacuously", fixture)
		}
	}
}

// TestIgnoreDirectives pins the suppression semantics: a well-formed
// directive (own line or trailing) suppresses only its named analyzer;
// one without a reason is itself a finding and suppresses nothing.
func TestIgnoreDirectives(t *testing.T) {
	root, pkgs := loadFixture(t, "ignore")
	diags := Run(root, pkgs, All())

	var suppressed, unsuppressedCtx, malformed int
	for _, d := range diags {
		switch {
		case d.Analyzer == "ctxflow" && d.Suppressed:
			suppressed++
			if d.Reason == "" {
				t.Errorf("suppressed finding lost its reason: %s", d)
			}
		case d.Analyzer == "ctxflow":
			unsuppressedCtx++
		case d.Analyzer == "lint" && strings.Contains(d.Message, "malformed"):
			malformed++
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if suppressed != 2 {
		t.Errorf("suppressed ctxflow findings = %d, want 2", suppressed)
	}
	// missingReason, unsuppressed, wrongAnalyzer all stay live.
	if unsuppressedCtx != 3 {
		t.Errorf("unsuppressed ctxflow findings = %d, want 3", unsuppressedCtx)
	}
	if malformed != 1 {
		t.Errorf("malformed directive findings = %d, want 1", malformed)
	}
}
