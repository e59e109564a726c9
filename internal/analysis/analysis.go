// Package analysis is a self-contained static-analysis framework plus
// the suite of analyzers that machine-enforce this repository's
// determinism, concurrency and geo-unit invariants (DESIGN.md §9).
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis —
// an Analyzer runs over one type-checked package at a time via a Pass —
// but is built entirely on the standard library (go/parser, go/types,
// go/build) so the repository keeps its zero-dependency property and
// the linter works offline. cmd/geolint is the multichecker driver;
// the analysistest subpackage runs // want fixtures.
//
// # Invariants enforced
//
//   - detrand:    every random draw flows from an explicit seed; no
//     global math/rand source, no wall-clock seeding, no hard-coded
//     seeds inside the simulation packages.
//   - simclock:   simulated paths never read the wall clock; latency
//     is a pure function of (seed, salt, host).
//   - maporder:   map iteration order never leaks into slices, output
//     or random streams without an intervening sort.
//   - sharedrand: a *rand.Rand never crosses a goroutine boundary.
//   - floatexact: geometry code never compares floats with == / !=
//     (the acos-dot and haversine kernels differ by ULPs).
//   - errdrop:    Close / SetDeadline / Drain / Sync / Shutdown / Flush
//     errors on measurement sockets and lifecycle methods are handled
//     or explicitly discarded, never silently dropped.
//   - lockorder:  flow-sensitive lock tracking — no channel operation,
//     network call or module-interface / function-valued callback runs
//     while a sync.Mutex/RWMutex is held, and the per-package lock
//     acquisition graph stays acyclic (consistent lock ordering).
//   - unitflow:   a dimension-taint pass over float64 values tagged
//     km / ms / deg / rad through identifier suffixes and the geo/mathx
//     conversion helpers: cross-unit arithmetic without an explicit
//     conversion is flagged (the paper's delay→distance bound is the
//     canonical sink).
//   - goroleak:   goroutines launched in library packages must have an
//     owner — a context, a WaitGroup join, or a channel handoff.
//
// # Allow directive
//
// A deliberate exception is annotated in the source with
//
//	//lint:allow <analyzer> <reason>
//
// placed alone on the line directly above the flagged line, or trailing
// the flagged line itself; a directive that shares its line with code
// covers only that line. The analyzer name must match one analyzer
// exactly and the reason is mandatory; a directive without a reason is
// itself reported. There is no blanket file- or package-level disable.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned in the file set of the loaded
// package.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker. Run inspects a single package via
// the Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Path     string // import path of the package under analysis
	Fset     *token.FileSet
	Files    []*ast.File // non-test files only
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-tolerant shorthand for Pass.Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Suite returns all analyzers with their default scopes — the set
// cmd/geolint runs and make lint enforces. The v1 syntactic checkers
// come first, then the v2 flow-sensitive ones (lockorder, unitflow,
// goroleak — DESIGN.md §9).
func Suite() []*Analyzer {
	return []*Analyzer{
		NewDetrand(DefaultSeedScope),
		NewSimclock(DefaultSimClockScope),
		NewMaporder(),
		NewSharedrand(),
		NewFloatexact(DefaultFloatExactScope),
		NewErrdrop(),
		NewLockorder(),
		NewUnitflow(DefaultUnitFlowScope),
		NewGoroleak(),
	}
}

// SuiteNames returns the names of every suite analyzer — the universe
// of valid //lint:allow targets, independent of which subset a given
// run executes.
func SuiteNames() []string {
	suite := Suite()
	names := make([]string, len(suite))
	for i, a := range suite {
		names[i] = a.Name
	}
	return names
}

// DirectiveAnalyzer is the pseudo-analyzer name under which malformed
// //lint:allow directives are reported.
const DirectiveAnalyzer = "directive"

const directivePrefix = "//lint:allow"

// allowSite is one parsed //lint:allow directive. A trailing directive
// shares its line with code and covers only that line.
type allowSite struct {
	analyzer string
	file     string
	line     int
	trailing bool
}

// parseAllows extracts the allow directives of one file. Malformed
// directives (unknown grammar, missing reason) are returned as
// diagnostics so they fail the lint run instead of silently allowing
// nothing.
func parseAllows(fset *token.FileSet, f *ast.File, known map[string]bool) ([]allowSite, []Diagnostic) {
	var sites []allowSite
	var bad []Diagnostic
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, directivePrefix)
			pos := fset.Position(c.Pos())
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //lint:allowance — not ours
			}
			fields := strings.Fields(rest)
			switch {
			case len(fields) == 0:
				bad = append(bad, Diagnostic{Pos: pos, Analyzer: DirectiveAnalyzer,
					Message: "malformed directive: want //lint:allow <analyzer> <reason>"})
			case !known[fields[0]]:
				bad = append(bad, Diagnostic{Pos: pos, Analyzer: DirectiveAnalyzer,
					Message: fmt.Sprintf("directive names unknown analyzer %q", fields[0])})
			case len(fields) < 2:
				bad = append(bad, Diagnostic{Pos: pos, Analyzer: DirectiveAnalyzer,
					Message: fmt.Sprintf("directive for %q is missing the mandatory reason", fields[0])})
			default:
				sites = append(sites, allowSite{analyzer: fields[0], file: pos.Filename, line: pos.Line,
					trailing: codeBefore(fset, f, c.Pos())})
			}
		}
	}
	return sites, bad
}

// codeBefore reports whether a token of f precedes pos on pos's line.
// Every token starts or ends some node, so it suffices to look for a
// node boundary on that line before pos; subtrees lying wholly before
// the line or starting at or after pos are pruned.
func codeBefore(fset *token.FileSet, f *ast.File, pos token.Pos) bool {
	line := fset.Position(pos).Line
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.CommentGroup, *ast.Comment:
			return false
		}
		if found || n.Pos() >= pos {
			return false
		}
		if fset.Position(n.Pos()).Line == line {
			found = true
			return false
		}
		if n.End() <= pos {
			if fset.Position(n.End()).Line == line {
				found = true
			}
			return false
		}
		return true
	})
	return found
}

// RunPackage runs every analyzer over one loaded package and returns
// the surviving findings: diagnostics suppressed by a well-formed
// //lint:allow directive are dropped, malformed directives are added.
// Findings are sorted by position.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	// A directive may name any suite analyzer, not just the ones this
	// run executes — partial runs must not misreport valid directives
	// as unknown.
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, name := range SuiteNames() {
		known[name] = true
	}
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Path:     pkg.Path,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			diags:    &raw,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	var allows []allowSite
	var out []Diagnostic
	for _, f := range pkg.Files {
		s, bad := parseAllows(pkg.Fset, f, known)
		allows = append(allows, s...)
		out = append(out, bad...)
	}
	for _, d := range raw {
		if !allowed(d, allows) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		if out[i].Pos.Column != out[j].Pos.Column {
			return out[i].Pos.Column < out[j].Pos.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// allowed reports whether a directive covers the diagnostic: same file,
// same analyzer, on the flagged line or alone on the line directly
// above it.
func allowed(d Diagnostic, allows []allowSite) bool {
	for _, a := range allows {
		if a.analyzer != d.Analyzer || a.file != d.Pos.Filename {
			continue
		}
		if a.line == d.Pos.Line || (!a.trailing && a.line == d.Pos.Line-1) {
			return true
		}
	}
	return false
}

// inScope reports whether an import path is in an analyzer's package
// scope list (exact match).
func inScope(path string, scope []string) bool {
	for _, s := range scope {
		if path == s {
			return true
		}
	}
	return false
}
