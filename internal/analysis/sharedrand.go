package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// NewSharedrand builds the sharedrand analyzer: a *rand.Rand must
// never cross a goroutine boundary. math/rand sources are not safe for
// concurrent use, and even a mutex-wrapped shared stream makes every
// draw depend on goroutine scheduling — the pre-PR 1 Lab.Audit bug.
//
// Flagged:
//
//   - a `go` statement whose function literal captures a *rand.Rand
//     declared outside the literal, or that passes one as an argument;
//   - a function literal capturing an outer *rand.Rand handed to a
//     worker-pool-shaped callee: its name, or for a package-qualified
//     call its package's name, contains "parallel", "worker", "pool",
//     "spawn" or "async" (parallel.For, the module's one pool);
//   - an HTTP handler — any func or method with the
//     (http.ResponseWriter, *http.Request) signature — touching a
//     *rand.Rand declared outside it (typically a server struct
//     field). net/http serves every request on its own goroutine, so
//     a handler-shared stream is a data race and makes responses
//     depend on request arrival order — the pre-PR 5 atlasd bug.
//
// Serial callbacks (sort.Slice comparators and the like) stay
// unflagged; per-entity streams derived inside the closure
// (rngFor / measure.StreamSeed) and stateless per-request draws
// (atlasd.Server.drawRNG) are the approved patterns.
func NewSharedrand() *Analyzer {
	a := &Analyzer{
		Name: "sharedrand",
		Doc:  "forbids *rand.Rand values crossing goroutine boundaries (go statements, worker-pool closures)",
	}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.FuncDecl:
					if s.Body != nil && isHandlerSig(pass.TypeOf(s.Name)) {
						reportHandlerRand(pass, s.Body, s.Name.Name)
					}
				case *ast.FuncLit:
					if isHandlerSig(pass.TypeOf(s)) {
						reportHandlerRand(pass, s.Body, "handler literal")
					}
				case *ast.GoStmt:
					if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
						reportCapturedRand(pass, lit, "go statement")
					}
					for _, arg := range s.Call.Args {
						if t := pass.TypeOf(arg); t != nil && isRandRand(t) {
							pass.Reportf(arg.Pos(),
								"*rand.Rand passed into a go statement: derive a per-goroutine stream (measure.StreamSeed) instead of sharing one")
						}
					}
				case *ast.CallExpr:
					if !isWorkerPoolCallee(pass, s) {
						return true
					}
					for _, arg := range s.Args {
						if lit, ok := arg.(*ast.FuncLit); ok {
							reportCapturedRand(pass, lit, "worker-pool closure")
						}
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

// reportCapturedRand flags free *rand.Rand variables referenced inside
// the literal but declared outside it.
func reportCapturedRand(pass *Pass, lit *ast.FuncLit, where string) {
	seen := map[string]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil || !isRandRand(obj.Type()) || declaredWithin(obj, lit.Pos(), lit.End()) {
			return true
		}
		if seen[obj.Name()] {
			return true
		}
		seen[obj.Name()] = true
		pass.Reportf(id.Pos(),
			"*rand.Rand %q shared into a %s: every draw would depend on scheduling — derive a per-entity stream inside the closure",
			obj.Name(), where)
		return true
	})
}

// isHandlerSig reports whether t is the http.HandlerFunc shape:
// func(http.ResponseWriter, *http.Request).
func isHandlerSig(t types.Type) bool {
	sig, ok := t.(*types.Signature)
	if !ok || sig.Params().Len() != 2 || sig.Results().Len() != 0 {
		return false
	}
	return isNetHTTP(sig.Params().At(0).Type(), "ResponseWriter", false) &&
		isNetHTTP(sig.Params().At(1).Type(), "Request", true)
}

// isNetHTTP reports whether t is net/http.<name> (or a pointer to it).
func isNetHTTP(t types.Type, name string, wantPtr bool) bool {
	if wantPtr {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			return false
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

// reportHandlerRand flags *rand.Rand objects referenced inside an HTTP
// handler body but declared outside it — server-struct fields above
// all. net/http runs handlers on concurrent serve goroutines, so such
// a stream is shared state even behind a mutex.
func reportHandlerRand(pass *Pass, body *ast.BlockStmt, name string) {
	seen := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil || !isRandRand(obj.Type()) || declaredWithin(obj, body.Pos(), body.End()) {
			return true
		}
		if seen[obj.Name()] {
			return true
		}
		seen[obj.Name()] = true
		pass.Reportf(id.Pos(),
			"*rand.Rand %q used inside HTTP handler %s: handlers run on concurrent serve goroutines — make the response a stateless function of (seed, request) instead",
			obj.Name(), name)
		return true
	})
}

// isWorkerPoolCallee applies the naming heuristic for callees that run
// their function-literal arguments concurrently: the callee's own name
// or, for a package-qualified call such as parallel.For, the imported
// package's name.
func isWorkerPoolCallee(pass *Pass, call *ast.CallExpr) bool {
	var names []string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		names = append(names, fun.Name)
	case *ast.SelectorExpr:
		names = append(names, fun.Sel.Name)
		if x, ok := fun.X.(*ast.Ident); ok {
			if pkg, ok := pass.Info.Uses[x].(*types.PkgName); ok {
				names = append(names, pkg.Imported().Name())
			}
		}
	default:
		return false
	}
	for _, name := range names {
		name = strings.ToLower(name)
		for _, marker := range []string{"parallel", "worker", "pool", "spawn", "async"} {
			if strings.Contains(name, marker) {
				return true
			}
		}
	}
	return false
}
