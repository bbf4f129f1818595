// Package lint implements archlint, a suite of static analyzers that
// enforce the repository's fail-stop and frame-determinism invariants on
// the Go source itself.
//
// The assurance argument of Strunk, Knight and Aiello rests on statically
// discharged proof obligations over the *specification* (internal/statics
// reproduces those), but nothing in that layer checks that the Go
// *implementation* respects the model it was proved against: code executed
// inside the frame-synchronous abstraction must not consult wall clocks or
// unseeded randomness, stable-storage errors must propagate to a fail-stop
// halt rather than be dropped, the kernel packages must not spawn
// free-running goroutines, and configuration_status variables may only be
// written through the kernel's own helpers. Each analyzer in this package
// turns one of those implementation-level obligations into checkable
// linguistic structure, in the spirit of De Florio and Deconinck's REL.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the suite can migrate to the real framework when the
// dependency is available; it is self-contained on the standard library so
// the module builds offline.
//
// # Suppression
//
// A diagnostic may be suppressed per site with a directive comment
//
//	//lint:allow <analyzer> <reason>
//
// placed on the offending line or on the line immediately above it. The
// reason is mandatory: a directive without one does not suppress anything.
// Suppressions are how audited exceptions (the frame scheduler's pacing
// clock, the campaign pool's and the fleet's goroutine launches) stay legal
// while remaining greppable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one archlint analysis and its checking function.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -analyzers selection,
	// and //lint:allow directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
	// Interprocedural marks analyzers that consult the frame-reachable
	// callgraph; Run computes it once per invocation when any selected
	// analyzer needs it.
	Interprocedural bool
}

// A Pass provides one analyzer with the parsed, type-checked source of a
// single package and collects the diagnostics the analyzer reports.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Reach is the frame-reachable set computed over the whole Run's
	// package set; nil for runs with no interprocedural analyzer.
	Reach *Reach

	allow map[allowKey]bool
	diags *[]Diagnostic
}

// A Diagnostic is one analyzer finding at one source position.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Column   int            `json:"column"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Column, d.Analyzer, d.Message)
}

// allowKey locates one //lint:allow directive: the analyzer it names and
// the file line it governs.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// Reportf records a diagnostic at pos unless an allow directive for this
// analyzer covers the position's line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allow[allowKey{position.Filename, position.Line, p.Analyzer.Name}] {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Column:   position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowDirectives scans a file's comments for //lint:allow directives and
// records, for each, the pair of lines it suppresses: its own line (for
// trailing comments) and the line below it (for directives placed above the
// offending statement).
func allowDirectives(fset *token.FileSet, file *ast.File, into map[allowKey]bool) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:allow ")
			if !ok {
				continue
			}
			fields := strings.Fields(text)
			if len(fields) < 2 {
				// No reason given: the directive is inert by design, so
				// every exception carries its justification in-tree.
				continue
			}
			pos := fset.Position(c.Pos())
			into[allowKey{pos.Filename, pos.Line, fields[0]}] = true
			into[allowKey{pos.Filename, pos.Line + 1, fields[0]}] = true
		}
	}
}

// Run applies each analyzer to each package and returns the combined
// diagnostics sorted by position.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var reach *Reach
	for _, a := range analyzers {
		if a.Interprocedural {
			reach = NewReach(pkgs)
			break
		}
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allow := make(map[allowKey]bool)
		for _, f := range pkg.Files {
			allowDirectives(pkg.Fset, f, allow)
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Reach:     reach,
				allow:     allow,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// Analyzers returns the full archlint suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		FrameDet,
		StableErr,
		NoFreeGoroutine,
		StatusDiscipline,
		AllocFree,
		EpochGuard,
	}
}

// Select returns the analyzers whose names appear in the comma-separated
// list, or the full suite for an empty list.
func Select(list string) ([]*Analyzer, error) {
	if list == "" {
		return Analyzers(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: no analyzers selected from %q", list)
	}
	return out, nil
}
