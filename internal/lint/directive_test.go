package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"asdsim/internal/lint"
)

// checkSource type-checks one import-free source string and runs Check
// over it with the given analyzers.
func checkSource(t *testing.T, src string, analyzers ...*lint.Analyzer) *lint.Result {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{}
	tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	pkg := &lint.Package{Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
	return lint.Check(pkg, &lint.Config{IgnoreScope: true}, analyzers...)
}

// messages flattens diagnostics of one pass for substring assertions.
func messages(res *lint.Result, pass string) []string {
	var out []string
	for _, d := range res.Diags {
		if d.Pass == pass {
			out = append(out, d.Message)
		}
	}
	return out
}

func TestAllowWithoutReasonIsMalformed(t *testing.T) {
	res := checkSource(t, `package p

//asd:allow determinism
func f() int { return 1 }
`)
	got := messages(res, "directive")
	if len(got) != 1 || !strings.Contains(got[0], "malformed //asd:allow") {
		t.Fatalf("want one malformed-allow diagnostic, got %q", got)
	}
}

func TestAllowUnknownPassIsFlagged(t *testing.T) {
	res := checkSource(t, `package p

//asd:allow nosuchpass the reason does not save it
func f() int { return 1 }
`)
	got := messages(res, "directive")
	if len(got) != 1 || !strings.Contains(got[0], `unknown pass "nosuchpass"`) {
		t.Fatalf("want one unknown-pass diagnostic, got %q", got)
	}
}

func TestReasonlessAllowDoesNotSuppress(t *testing.T) {
	// The tag is malformed AND the finding it tried to silence
	// survives: both diagnostics must be present.
	res := checkSource(t, `package p

type s struct{ m map[int]int }

//asd:hotpath
func (x *s) Step(v int) {
	x.m[v] = v //asd:allow hotpath-noalloc
}
`, lint.NoallocAnalyzer)
	if got := messages(res, "directive"); len(got) != 1 {
		t.Fatalf("want one malformed-allow diagnostic, got %q", got)
	}
	if got := messages(res, "hotpath-noalloc"); len(got) != 1 || !strings.Contains(got[0], "map write") {
		t.Fatalf("want the map-write finding to survive a reasonless allow, got %q", got)
	}
}

func TestReasonedAllowSuppresses(t *testing.T) {
	res := checkSource(t, `package p

type s struct{ m map[int]int }

//asd:hotpath
func (x *s) Step(v int) {
	x.m[v] = v //asd:allow hotpath-noalloc bounded table, buckets reused in steady state
}
`, lint.NoallocAnalyzer)
	if len(res.Diags) != 0 {
		t.Fatalf("want no diagnostics, got %v", res.Diags)
	}
}

func TestFactsExportCertifiesClosureAndTrusted(t *testing.T) {
	res := checkSource(t, `package p

//asd:hotpath
func Root() { helper() }

func helper() {}

//asd:allow hotpath-noalloc vetted boundary, grows off the per-cycle path
func Boundary() {}

func Cold() {}
`)
	for _, name := range []string{"p.Root", "p.helper", "p.Boundary"} {
		if !res.Facts.Hotpath[name] {
			t.Errorf("facts missing %s: %v", name, res.Facts.Hotpath)
		}
	}
	if res.Facts.Hotpath["p.Cold"] {
		t.Errorf("cold function must not be certified: %v", res.Facts.Hotpath)
	}
}

func TestNewPassesAreKnownToDirectiveHygiene(t *testing.T) {
	res := checkSource(t, `package p

//asd:allow lockorder coordinated through the caller's lock
func a() {}

//asd:allow wirecheck input size capped upstream
func b() {}
`)
	if got := messages(res, "directive"); len(got) != 0 {
		t.Fatalf("new pass names must be known to //asd:allow hygiene, got %q", got)
	}
}

// The determinism pass carries the tests below because its map-range
// check fires on import-free source.

func TestCrossPassAllowDoesNotInterfere(t *testing.T) {
	res := checkSource(t, `package p

func f(m map[int]int) (s int) {
	for _, v := range m { //asd:allow wirecheck not the pass that fired
		s += v
	}
	return s
}
`, lint.DeterminismAnalyzer)
	if got := messages(res, "directive"); len(got) != 0 {
		t.Fatalf("well-formed allow for another pass is not a hygiene finding, got %q", got)
	}
	if got := messages(res, "determinism"); len(got) != 1 {
		t.Fatalf("an allow naming wirecheck must not silence determinism, got %q", got)
	}
}

// TestSimtimeReasonlessAllowDoesNotSuppress and TestSimtimeLineAllow
// keep the names they had when the simtime pass carried them. The line
// shapes they check now sit on the determinism pass, and each also
// checks that an allow still naming the deleted simtime pass is a
// directive finding that silences nothing.

func TestSimtimeReasonlessAllowDoesNotSuppress(t *testing.T) {
	for _, pass := range []string{"determinism", "simtime"} {
		res := checkSource(t, `package p

func f(m map[int]int) (s int) {
	for _, v := range m { //asd:allow `+pass+`
		s += v
	}
	return s
}
`, lint.DeterminismAnalyzer)
		got := messages(res, "directive")
		if len(got) != 1 || !strings.Contains(got[0], "malformed //asd:allow") {
			t.Fatalf("%s: want one malformed-allow diagnostic, got %q", pass, got)
		}
		if got := messages(res, "determinism"); len(got) != 1 {
			t.Fatalf("%s: reasonless allow must not suppress the finding, got %q", pass, got)
		}
	}
}

func TestSimtimeLineAllow(t *testing.T) {
	res := checkSource(t, `package p

func f(m map[int]int) (s int) {
	for _, v := range m { //asd:allow determinism the sum is the same in any order
		s += v
	}
	return s
}
`, lint.DeterminismAnalyzer)
	if len(res.Diags) != 0 {
		t.Fatalf("reasoned line allow must suppress, got %v", res.Diags)
	}

	res = checkSource(t, `package p

func f(m map[int]int) (s int) {
	for _, v := range m { //asd:allow simtime the sum is the same in any order
		s += v
	}
	return s
}
`, lint.DeterminismAnalyzer)
	got := messages(res, "directive")
	if len(got) != 1 || !strings.Contains(got[0], `unknown pass "simtime"`) {
		t.Fatalf("an allow naming the deleted simtime pass must be flagged, got %q", got)
	}
	if got := messages(res, "determinism"); len(got) != 1 {
		t.Fatalf("an allow naming simtime must not silence determinism, got %q", got)
	}
}

func TestFunctionBoundaryAllow(t *testing.T) {
	res := checkSource(t, `package p

//asd:allow determinism the sum is the same in any order
func f(m map[int]int) (s int) {
	for _, v := range m {
		s += v
	}
	return s
}
`, lint.DeterminismAnalyzer)
	if got := messages(res, "determinism"); len(got) != 0 {
		t.Fatalf("function-boundary allow must suppress, got %q", got)
	}
}

func TestSuppressedFindingsAreRecorded(t *testing.T) {
	res := checkSource(t, `package p

func f(m map[int]int) (s int) {
	for _, v := range m { //asd:allow determinism the sum is the same in any order
		s += v
	}
	return s
}
`, lint.DeterminismAnalyzer)
	if len(res.Diags) != 0 {
		t.Fatalf("unexpected live diagnostics: %v", res.Diags)
	}
	if len(res.Suppressed) != 1 {
		t.Fatalf("want the silenced finding recorded once, got %d", len(res.Suppressed))
	}
	s := res.Suppressed[0]
	if s.Diag.Pass != "determinism" || !s.SuppressedBy.IsValid() {
		t.Fatalf("suppressed record incomplete: pass=%q by=%v", s.Diag.Pass, s.SuppressedBy)
	}
}
