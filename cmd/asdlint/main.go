// Command asdlint runs asdsim's custom static-analysis suite (see
// internal/lint): determinism, hotpath-noalloc, noperturb,
// exhaustive-events, lockorder and wirecheck.
//
// It speaks cmd/go's vet-tool protocol, so the canonical invocation
// routes through the build system and benefits from its caching and
// per-package fact plumbing:
//
//	go build -o asdlint ./cmd/asdlint
//	go vet -vettool=$(pwd)/asdlint ./...
//
// Invoked with package patterns instead of a vet config file, asdlint
// re-executes itself through `go vet` for convenience:
//
//	asdlint ./...
//
// The protocol, implemented here without golang.org/x/tools (the
// repo is dependency-free by policy): cmd/go probes the tool identity
// with -V=full, then invokes the tool once per compilation unit with
// the path to a JSON config file (*.cfg) describing the unit — source
// files, the import map, and the export-data file of every
// dependency. The tool type-checks the unit against that export data,
// runs the analyzers, prints findings to stderr, and writes the
// package's facts (hot-path certifications) to the .vetx output file
// that cmd/go threads to dependent units.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"asdsim/internal/lint"
	"asdsim/internal/lint/flow"
)

// Environment variables threading standalone-mode options through the
// `go vet` re-exec to the per-unit child invocations. All three feed
// the -V=full build ID, so flipping one invalidates vet's result cache
// instead of replaying stale cached output.
const (
	envJSON       = "ASDLINT_JSON"       // emit findings as JSON lines
	envStrictLoad = "ASDLINT_STRICT"     // type-check failures are fatal even when vet would shrug
	envWireOut    = "ASDLINT_WIRE_PARTS" // write per-unit wire-schema parts here; suppress findings
)

func main() {
	args := os.Args[1:]
	jsonOut := false
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-V=full" || a == "--V=full" || a == "-V" || a == "--V":
			printVersion()
			return
		case a == "-flags" || a == "--flags":
			// Flag-schema handshake: no tool-specific flags.
			fmt.Println("[]")
			return
		case a == "-json" || a == "--json":
			jsonOut = true
		case a == "-write-wire-lock" || a == "--write-wire-lock":
			out := "wire.lock"
			if i+1 < len(args) {
				out = args[i+1]
			}
			os.Exit(writeWireLock(out))
		case strings.HasSuffix(a, ".cfg"):
			os.Exit(unitcheck(a))
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(os.Stderr, "asdlint: unknown flag %s\n", a)
			os.Exit(2)
		default:
			os.Exit(standalone(args[i:], jsonOut))
		}
	}
	fmt.Fprintln(os.Stderr, "usage: asdlint [-json] ./...  |  asdlint -write-wire-lock [path]  |  go vet -vettool=asdlint ./...")
	os.Exit(2)
}

// printVersion answers cmd/go's -V=full identity probe. The build ID
// hashes the executable plus the option environment, so rebuilding the
// tool — or re-running it with different output options — invalidates
// vet's result cache rather than replaying stale cached output.
func printVersion() {
	name := "asdlint"
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	for _, env := range []string{envJSON, envStrictLoad, envWireOut} {
		fmt.Fprintf(h, "%s=%s\n", env, os.Getenv(env))
	}
	fmt.Printf("%s version devel buildID=%x\n", name, h.Sum(nil)[:16])
}

// standalone re-executes through `go vet -vettool=self` so the one
// protocol path serves both invocation styles. Standalone runs are
// strict: a unit that fails to load is a diagnostic and exit 2, never
// a silent success.
func standalone(patterns []string, jsonOut bool) int {
	env := append(os.Environ(), envStrictLoad+"=1")
	if jsonOut {
		env = append(env, envJSON+"=1")
	}
	// cmd/go folds every vettool failure into its own exit 1, so the
	// load-failure exit 2 the units signal is recovered here from their
	// diagnostic prefix.
	var errTee bytes.Buffer
	code := runSelfVetTee(patterns, env, &errTee)
	if code != 0 && bytes.Contains(errTee.Bytes(), []byte("asdlint: load ")) {
		return 2
	}
	return code
}

// runSelfVet invokes `go vet -vettool=self patterns...` with env.
func runSelfVet(patterns []string, env []string) int {
	return runSelfVetTee(patterns, env, nil)
}

// runSelfVetTee is runSelfVet with the child's stderr additionally
// mirrored into tee when non-nil.
func runSelfVetTee(patterns []string, env []string, tee *bytes.Buffer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "asdlint: cannot locate own executable: %v\n", err)
		return 2
	}
	cmdArgs := append([]string{"vet", "-vettool=" + exe}, patterns...)
	cmd := exec.Command("go", cmdArgs...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if tee != nil {
		cmd.Stderr = io.MultiWriter(os.Stderr, tee)
	}
	cmd.Env = env
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "asdlint: %v\n", err)
		return 2
	}
	return 0
}

// writeWireLock regenerates the wire.lock schema: it vets the wire-root
// packages with findings suppressed, collecting each unit's reachable
// wire surface into part files, then merges, sorts, and writes the
// final lock. The child units see the real export data cmd/go hands
// them, so the schema matches exactly what wirecheck will later diff.
func writeWireLock(out string) int {
	parts, err := os.MkdirTemp("", "asdlint-wire-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "asdlint: %v\n", err)
		return 2
	}
	defer os.RemoveAll(parts)

	var patterns []string
	for path := range lint.WireRoots {
		patterns = append(patterns, path)
	}
	sort.Strings(patterns)
	env := append(os.Environ(), envWireOut+"="+parts, envStrictLoad+"=1")
	if code := runSelfVet(patterns, env); code != 0 {
		return code
	}

	entries, err := os.ReadDir(parts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asdlint: %v\n", err)
		return 2
	}
	merged := &flow.Schema{}
	seen := map[string]bool{}
	for _, e := range entries {
		f, err := os.Open(filepath.Join(parts, e.Name()))
		if err != nil {
			fmt.Fprintf(os.Stderr, "asdlint: %v\n", err)
			return 2
		}
		part, perr := flow.ParseSchema(f)
		f.Close()
		if perr != nil {
			fmt.Fprintf(os.Stderr, "asdlint: parsing wire part %s: %v\n", e.Name(), perr)
			return 2
		}
		for _, ss := range part.Structs {
			key := ss.Path + "." + ss.Name
			if seen[key] {
				continue
			}
			seen[key] = true
			merged.Structs = append(merged.Structs, ss)
		}
	}
	if len(merged.Structs) == 0 {
		fmt.Fprintln(os.Stderr, "asdlint: no wire structs found; refusing to write an empty wire.lock")
		return 2
	}
	sort.Slice(merged.Structs, func(i, j int) bool {
		return merged.Structs[i].Path+"."+merged.Structs[i].Name < merged.Structs[j].Path+"."+merged.Structs[j].Name
	})
	if err := os.WriteFile(out, merged.Format(), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "asdlint: %v\n", err)
		return 2
	}
	fmt.Printf("asdlint: wrote %d wire structs to %s\n", len(merged.Structs), out)
	return 0
}

// vetConfig mirrors the JSON cmd/go writes for each vet unit.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// serialFacts is the gob wire form of lint.Facts in .vetx files.
type serialFacts struct {
	Hotpath []string
	Lock    map[string]*lint.LockFact
}

// loadFailed reports a unit that did not parse or type-check. Under the
// vet protocol proper, SucceedOnTypecheckFailure means cmd/go wants the
// tool silent (the compiler owns the error); in standalone strict mode
// that silence would surface as `asdlint ./...` exiting 0 on a broken
// tree, so the unit instead gets a diagnostic and exit 2.
func loadFailed(cfg *vetConfig, err error) int {
	if cfg.SucceedOnTypecheckFailure && os.Getenv(envStrictLoad) == "" {
		return writeVetx(cfg, &lint.Facts{})
	}
	fmt.Fprintf(os.Stderr, "asdlint: load %s: %v\n", cfg.ImportPath, err)
	if cfg.SucceedOnTypecheckFailure {
		writeVetx(cfg, &lint.Facts{})
		return 2
	}
	return 1
}

func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asdlint: %v\n", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "asdlint: parsing %s: %v\n", cfgPath, err)
		return 2
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return loadFailed(&cfg, err)
		}
		files = append(files, f)
	}

	imp := newUnitImporter(&cfg, fset)
	tcfg := &types.Config{
		Importer: imp,
		Sizes:    types.SizesFor(orDefault(cfg.Compiler, "gc"), build.Default.GOARCH),
		Error:    func(error) {}, // collect all, fail below
	}
	if cfg.GoVersion != "" {
		tcfg.GoVersion = cfg.GoVersion
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	tpkg, err := tcfg.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return loadFailed(&cfg, fmt.Errorf("typecheck: %w", err))
	}

	pkg := &lint.Package{Fset: fset, Files: files, Types: tpkg, Info: info}
	res := lint.Check(pkg, &lint.Config{DepFacts: imp.depFacts}, lint.All()...)

	if code := writeVetx(&cfg, res.Facts); code != 0 {
		return code
	}
	if dir := os.Getenv(envWireOut); dir != "" {
		// Wire-lock regeneration: write this unit's wire surface and
		// suppress findings so a drifted tree can still regenerate.
		return writeWirePart(&cfg, tpkg, dir)
	}
	if cfg.VetxOnly || (len(res.Diags) == 0 && len(res.Suppressed) == 0) {
		return 0
	}
	if os.Getenv(envJSON) != "" {
		printJSONFindings(fset, res)
	} else {
		for _, d := range res.Diags {
			fmt.Fprintf(os.Stderr, "%s: %s [asdlint/%s]\n", fset.Position(d.Pos), d.Message, d.Pass)
		}
	}
	if len(res.Diags) == 0 {
		return 0
	}
	return 2
}

// jsonFinding is one finding in `asdlint -json` output: a JSON object
// per line on stderr, machine-readable next to cmd/go's own chatter.
type jsonFinding struct {
	File         string `json:"file"`
	Line         int    `json:"line"`
	Col          int    `json:"col"`
	Pass         string `json:"pass"`
	Message      string `json:"message"`
	SuppressedBy string `json:"suppressedBy,omitempty"`
}

// printJSONFindings emits live findings and //asd:allow-suppressed ones
// (with the silencing directive's position) as JSON lines.
func printJSONFindings(fset *token.FileSet, res *lint.Result) {
	enc := json.NewEncoder(os.Stderr)
	emit := func(d lint.Diagnostic, by string) {
		posn := fset.Position(d.Pos)
		_ = enc.Encode(jsonFinding{
			File: posn.Filename, Line: posn.Line, Col: posn.Column,
			Pass: d.Pass, Message: d.Message, SuppressedBy: by,
		})
	}
	for _, d := range res.Diags {
		emit(d, "")
	}
	for _, s := range res.Suppressed {
		emit(s.Diag, fset.Position(s.SuppressedBy).String())
	}
}

// writeWirePart records the unit's wire surface (when it is a wire-root
// package) for the parent -write-wire-lock invocation to merge.
func writeWirePart(cfg *vetConfig, tpkg *types.Package, dir string) int {
	path := lint.CanonicalPkgPath(cfg.ImportPath)
	rootNames, ok := lint.WireRoots[path]
	if !ok || strings.Contains(cfg.ImportPath, " [") {
		return 0 // not a root, or a test variant of one
	}
	var roots []*types.Named
	for _, name := range rootNames {
		obj, ok := tpkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			fmt.Fprintf(os.Stderr, "asdlint: wire root %s.%s not found\n", path, name)
			return 2
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			fmt.Fprintf(os.Stderr, "asdlint: wire root %s.%s is not a named type\n", path, name)
			return 2
		}
		roots = append(roots, named)
	}
	schema := flow.WireSurface(roots)
	name := strings.ReplaceAll(path, "/", "_") + ".part"
	if err := os.WriteFile(filepath.Join(dir, name), schema.Format(), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "asdlint: %v\n", err)
		return 2
	}
	return 0
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// writeVetx persists the unit's facts where cmd/go expects them.
func writeVetx(cfg *vetConfig, facts *lint.Facts) int {
	if cfg.VetxOutput == "" {
		return 0
	}
	sf := serialFacts{Lock: facts.Lock}
	for name := range facts.Hotpath {
		sf.Hotpath = append(sf.Hotpath, name)
	}
	f, err := os.Create(cfg.VetxOutput)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asdlint: %v\n", err)
		return 2
	}
	defer f.Close()
	if err := gob.NewEncoder(f).Encode(sf); err != nil {
		fmt.Fprintf(os.Stderr, "asdlint: encoding vetx: %v\n", err)
		return 2
	}
	return 0
}

// unitImporter resolves imports through the export-data files cmd/go
// hands the unit, and dependency facts through their .vetx files.
type unitImporter struct {
	cfg   *vetConfig
	gc    types.Importer
	facts map[string]*lint.Facts
}

func newUnitImporter(cfg *vetConfig, fset *token.FileSet) *unitImporter {
	u := &unitImporter{cfg: cfg, facts: map[string]*lint.Facts{}}
	u.gc = importer.ForCompiler(fset, orDefault(cfg.Compiler, "gc"), func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return u
}

// Import implements types.Importer with the unit's import map.
func (u *unitImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if mapped, ok := u.cfg.ImportMap[path]; ok {
		path = mapped
	}
	return u.gc.Import(path)
}

// depFacts lazily loads a dependency's .vetx facts.
func (u *unitImporter) depFacts(path string) *lint.Facts {
	if f, ok := u.facts[path]; ok {
		return f
	}
	u.facts[path] = nil // negative-cache failures
	file, ok := u.cfg.PackageVetx[path]
	if !ok {
		if mapped, ok2 := u.cfg.ImportMap[path]; ok2 {
			file, ok = u.cfg.PackageVetx[mapped]
		}
		if !ok {
			return nil
		}
	}
	rd, err := os.Open(file)
	if err != nil {
		return nil
	}
	defer rd.Close()
	var sf serialFacts
	if err := gob.NewDecoder(rd).Decode(&sf); err != nil {
		return nil
	}
	facts := &lint.Facts{Hotpath: map[string]bool{}, Lock: sf.Lock}
	for _, name := range sf.Hotpath {
		facts.Hotpath[name] = true
	}
	u.facts[path] = facts
	return facts
}
