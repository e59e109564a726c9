package analysis

import (
	"go/ast"
	"go/types"
)

// errdropMethods are the socket- and service-lifecycle methods whose
// error results must not be silently dropped: a failed SetReadDeadline
// turns a bounded measurement read into an unbounded hang, a failed
// Close leaks the connection the RTT was measured on, and a failed
// Drain / Sync / Shutdown / Flush means the caller believes state was
// persisted or quiesced when it was not.
var errdropMethods = map[string]bool{
	"Close":            true,
	"SetDeadline":      true,
	"SetReadDeadline":  true,
	"SetWriteDeadline": true,
	"Drain":            true,
	"Sync":             true,
	"Shutdown":         true,
	"Flush":            true,
}

// NewErrdrop builds the errdrop analyzer: a bare expression-statement
// call to one of the lifecycle methods above that returns exactly an
// error is flagged. Handling the error, explicitly discarding it
// (`_ = c.Close()`), or deferring the call (`defer c.Close()`, the
// idiomatic best-effort cleanup) all pass.
func NewErrdrop() *Analyzer {
	a := &Analyzer{
		Name: "errdrop",
		Doc:  "flags silently dropped errors from Close / SetDeadline / SetReadDeadline / SetWriteDeadline / Drain / Sync / Shutdown / Flush",
	}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				// Defers are DeferStmt nodes, go-calls GoStmt nodes:
				// only a plain ExprStmt is a silent drop.
				es, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := es.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !errdropMethods[sel.Sel.Name] {
					return true
				}
				if _, isPkg := pass.Info.Uses[identOf(sel.X)].(*types.PkgName); isPkg {
					return true // pkg.Close(...) is not a method call
				}
				if t := pass.TypeOf(call); t != nil && isErrorType(t) {
					pass.Reportf(call.Pos(),
						"%s error silently dropped: handle it or discard explicitly (_ = x.%s())",
						sel.Sel.Name, sel.Sel.Name)
				}
				return true
			})
		}
		return nil
	}
	return a
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := e.(*ast.Ident)
	return id
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}
