package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Golden fixture tests: each check has a package under testdata/src
// whose flagged lines carry `// want "substring"` comments. Every want
// must be matched by a finding on its line, and every finding must be
// matched by a want — so both false negatives and false positives in
// the analyzers fail the test.

var (
	wantRe   = regexp.MustCompile(`// want ((?:"[^"]*"\s*)+)$`)
	quotedRe = regexp.MustCompile(`"([^"]*)"`)
)

// wantsIn parses the want expectations of every fixture file in dir:
// file base name -> line -> expected message substrings.
func wantsIn(t *testing.T, dir string) map[string]map[int][]string {
	t.Helper()
	out := make(map[string]map[int][]string)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		perLine := make(map[int][]string)
		for i, line := range strings.Split(string(b), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, q := range quotedRe.FindAllStringSubmatch(m[1], -1) {
				perLine[i+1] = append(perLine[i+1], q[1])
			}
		}
		out[e.Name()] = perLine
	}
	return out
}

// checkGolden runs the suite over the fixture package in dir and
// diffs findings against the want comments.
func checkGolden(t *testing.T, l *Loader, dir, asPath string, suite *Suite) {
	t.Helper()
	pkg, err := l.LoadDir(dir, asPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	findings := suite.Run(l.Fset, []*Package{pkg}, l.ModuleRoot)

	wants := wantsIn(t, dir)
	matched := make(map[string]map[int]bool) // file -> want line satisfied
	for file := range wants {
		matched[file] = make(map[int]bool)
	}
	for _, f := range findings {
		base := filepath.Base(f.File)
		lineWants := wants[base][f.Line]
		ok := false
		for _, sub := range lineWants {
			if strings.Contains(f.Message, sub) {
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		matched[base][f.Line] = true
	}
	for file, perLine := range wants {
		for line, subs := range perLine {
			if !matched[file][line] {
				t.Errorf("%s:%d: want %q matched no finding", file, line, subs)
			}
		}
	}
}

func fixtureLoader(t *testing.T) (*Loader, string) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return l, filepath.Join(root, "internal", "analysis", "testdata", "src")
}

func TestGoldenFixtures(t *testing.T) {
	l, src := fixtureLoader(t)
	cases := []struct {
		name string
		mk   func(fixturePath string) *Analyzer
	}{
		{"nondeterminism", func(p string) *Analyzer { return Nondeterminism([]string{p}) }},
		{"rawgoroutine", func(string) *Analyzer { return RawGoroutine(nil) }},
		{"spanpair", func(string) *Analyzer { return SpanPair(telemetryPkg) }},
		{"ctxfirst", func(string) *Analyzer { return CtxFirst() }},
		{"floateq", func(p string) *Analyzer { return FloatEq([]string{p}) }},
		{"errdrop", func(string) *Analyzer { return ErrDrop(nil) }},
		{"taintalloc", func(p string) *Analyzer { return TaintAlloc([]string{p}) }},
		{"lockheld", func(p string) *Analyzer { return LockHeld([]string{p}) }},
		{"goroleak", func(p string) *Analyzer { return GoroLeak([]string{p}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			asPath := "fixture/" + tc.name
			suite := &Suite{Analyzers: []*Analyzer{tc.mk(asPath)}}
			checkGolden(t, l, filepath.Join(src, tc.name), asPath, suite)
		})
	}
}

// TestAllowSuppression proves the annotation path end to end: audited
// annotations silence their findings, a malformed directive is itself
// reported under "lint", and the finding it failed to suppress
// survives.
func TestAllowSuppression(t *testing.T) {
	l, src := fixtureLoader(t)
	pkg, err := l.LoadDir(filepath.Join(src, "allow"), "fixture/allow")
	if err != nil {
		t.Fatal(err)
	}
	suite := &Suite{Analyzers: []*Analyzer{ErrDrop(nil)}}
	findings := suite.Run(l.Fset, []*Package{pkg}, l.ModuleRoot)

	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s:%d", f.Check, f.Line))
	}
	// Line 19 holds the malformed directive, line 20 the os.Remove it
	// therefore fails to suppress; the two audited sites are silent.
	want := []string{"lint:19", "errdrop:20"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("findings = %v, want %v\nfull: %v", got, want, findings)
	}
	for _, f := range findings {
		if f.Check == "lint" && !strings.Contains(f.Message, "reason") {
			t.Errorf("lint finding should demand a reason: %s", f.Message)
		}
	}
}

// TestStaleAllowGolden drives the suite-level staleallow detection.
// The fixture needs a multi-check suite (a directive is stale only
// relative to a check that ran) and a registry wider than the
// selection (a known-but-unselected check's directive must survive),
// so it cannot ride the single-analyzer golden table.
func TestStaleAllowGolden(t *testing.T) {
	l, src := fixtureLoader(t)
	suite := &Suite{
		Analyzers: []*Analyzer{ErrDrop(nil), StaleAllow()},
		registry:  []string{"errdrop", "floateq", "staleallow"},
	}
	checkGolden(t, l, filepath.Join(src, "staleallow"), "fixture/staleallow", suite)
}

// TestStaleAllowUnselected proves partial runs never call a directive
// stale: the same fixture with staleallow NOT selected yields no
// findings at all.
func TestStaleAllowUnselected(t *testing.T) {
	l, src := fixtureLoader(t)
	pkg, err := l.LoadDir(filepath.Join(src, "staleallow"), "fixture/staleallow")
	if err != nil {
		t.Fatal(err)
	}
	suite := &Suite{
		Analyzers: []*Analyzer{ErrDrop(nil)},
		registry:  []string{"errdrop", "floateq", "staleallow"},
	}
	findings := suite.Run(l.Fset, []*Package{pkg}, l.ModuleRoot)
	for _, f := range findings {
		t.Errorf("unexpected finding without staleallow selected: %s", f)
	}
}

// TestRepoCleanModuloBaseline runs the full default suite over the
// real repository and requires zero findings beyond the committed
// baseline — the same gate `make lint` enforces, expressed as a test.
func TestRepoCleanModuloBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	findings := DefaultSuite().Run(l.Fset, pkgs, root)
	bl, err := LoadBaseline(filepath.Join(root, "lint.baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, stale := bl.Filter(findings)
	for _, f := range fresh {
		t.Errorf("new finding: %s", f)
	}
	for _, e := range stale {
		t.Errorf("stale baseline entry (fixed? shrink the baseline): %s %s: %s", e.Check, e.File, e.Message)
	}
}
