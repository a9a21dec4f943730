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

// fixtures is the one list of analyzer fixtures under testdata/src, each
// with the analyzer its want comments are written for (lockorder is the
// pre-lockgraph fixture, kept as a second lockgraph case). It drives both
// the per-fixture diff and the gate check, and TestFixturesFailTheGate
// fails on a fixture directory it does not list.
var fixtures = []struct {
	name     string
	analyzer *Analyzer
}{
	{"allochot", AllocHot},
	{"atomicalign", AtomicAlign},
	{"ctxflow", CtxFlow},
	{"errwrap", ErrWrap},
	{"faultcover", FaultCover},
	{"journalcover", JournalCover},
	{"lockgraph", LockGraph},
	{"lockorder", LockGraph},
	{"metricname", MetricName},
	{"mmapescape", MmapEscape},
	{"poolown", PoolOwn},
	{"seekcontract", SeekContract},
}

// fixtureAnalyzer looks a fixture up in the table.
func fixtureAnalyzer(name string) *Analyzer {
	for _, fx := range fixtures {
		if fx.name == name {
			return fx.analyzer
		}
	}
	return nil
}

// testFixture diffs one fixture's diagnostics against its want comments.
func testFixture(t *testing.T, name string) {
	a := fixtureAnalyzer(name)
	if a == nil {
		t.Fatalf("fixture %s is not in the fixtures table", name)
	}
	runFixtureTest(t, a, name)
}

func TestAtomicAlign(t *testing.T)  { testFixture(t, "atomicalign") }
func TestLockOrder(t *testing.T)    { testFixture(t, "lockorder") }
func TestErrWrap(t *testing.T)      { testFixture(t, "errwrap") }
func TestMetricName(t *testing.T)   { testFixture(t, "metricname") }
func TestCtxFlow(t *testing.T)      { testFixture(t, "ctxflow") }
func TestSeekContract(t *testing.T) { testFixture(t, "seekcontract") }
func TestAllocHot(t *testing.T)     { testFixture(t, "allochot") }
func TestMmapEscape(t *testing.T)   { testFixture(t, "mmapescape") }
func TestFaultCover(t *testing.T)   { testFixture(t, "faultcover") }
func TestLockGraph(t *testing.T)    { testFixture(t, "lockgraph") }
func TestPoolOwn(t *testing.T)      { testFixture(t, "poolown") }
func TestJournalCover(t *testing.T) { testFixture(t, "journalcover") }

// TestFixturesFailTheGate proves each fixture makes the full suite exit
// non-zero: the acceptance property `make lint` relies on. Every fixture
// directory but the two that test the driver itself (ignore directives and
// call-graph edges) must be in the fixtures table.
func TestFixturesFailTheGate(t *testing.T) {
	dirs, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if fixtureAnalyzer(d.Name()) == nil && d.Name() != "ignore" && d.Name() != "callgraph" {
			t.Errorf("fixture %s is not in the fixtures table", d.Name())
		}
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			root, pkgs := loadFixture(t, fx.name)
			if n := len(Unsuppressed(Run(root, pkgs, All()))); n == 0 {
				t.Errorf("fixture %s: full suite found no violations; the gate would pass vacuously", fx.name)
			}
		})
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
