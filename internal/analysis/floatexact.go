package analysis

import (
	"go/ast"
	"go/token"
)

// DefaultFloatExactScope lists the geometry packages where exact float
// comparison is a latent bug: the vector kernel's acos-dot distances
// and the haversine reference differ by ULPs, so == / != on distances,
// scores or coordinates can disagree between the two code paths.
// mathx itself (which implements the epsilon helpers) is deliberately
// not listed.
var DefaultFloatExactScope = []string{
	"activegeo/internal/geo",
	"activegeo/internal/grid",
	"activegeo/internal/geoloc",
	"activegeo/internal/spotter",
	"activegeo/internal/cbg",
	"activegeo/internal/cbgpp",
	"activegeo/internal/octant",
	"activegeo/internal/hybrid",
	"activegeo/internal/worldmap",
}

// NewFloatexact builds the floatexact analyzer: inside the geometry
// packages, == / != with a floating-point operand must go through the
// mathx epsilon helpers (mathx.ApproxEqual / mathx.Within) or carry an
// explicit //lint:allow floatexact directive for deliberate sentinel
// comparisons. Comparisons folded entirely at compile time (both
// operands constant) are ignored.
func NewFloatexact(scope []string) *Analyzer {
	a := &Analyzer{
		Name: "floatexact",
		Doc:  "forbids exact float == / != in geometry packages; use the mathx epsilon helpers",
	}
	a.Run = func(pass *Pass) error {
		if !inScope(pass.Path, scope) {
			return nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				if !isFloat(pass.TypeOf(be.X)) && !isFloat(pass.TypeOf(be.Y)) {
					return true
				}
				if pass.Info.Types[be.X].Value != nil && pass.Info.Types[be.Y].Value != nil {
					return true // constant-folded: decided at compile time
				}
				pass.Reportf(be.OpPos, "exact float comparison (%s) in geometry package %s: acos-dot and haversine paths differ by ULPs — use mathx.ApproxEqual / mathx.Within",
					be.Op, pass.Path)
				return true
			})
		}
		return nil
	}
	return a
}
