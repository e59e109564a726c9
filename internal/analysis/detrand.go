package analysis

import (
	"go/ast"
	"go/types"
)

// DefaultSeedScope lists the simulation/measurement packages in which
// hard-coded RNG seeds are forbidden: their random streams must be
// derived from the run's configured seed (measure.StreamSeed,
// netsim.HashID, Lab.streamSeed), or two runs with different configs
// would silently share noise.
var DefaultSeedScope = []string{
	"activegeo/internal/netsim",
	"activegeo/internal/measure",
	"activegeo/internal/experiments",
}

// globalRandFuncs are the math/rand package-level functions that draw
// from the process-global, cross-goroutine shared source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

// seedCtors are the constructors that seed a generator: math/rand's
// own, and netsim.NewRand, the per-entity stream constructor. Rule 3
// never fires for rand.New: its argument is a Source, never a constant.
var seedCtors = map[string]bool{
	"math/rand.New":                     true,
	"math/rand.NewSource":               true,
	"activegeo/internal/netsim.NewRand": true,
}

// seedCtor returns the package-level function a call invokes when it
// is one of seedCtors, qualified (rand.New) or not (NewRand inside
// netsim), and nil otherwise.
func seedCtor(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := call.Fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil || fn.Type().(*types.Signature).Recv() != nil || !seedCtors[fn.FullName()] {
		return nil
	}
	return fn
}

// NewDetrand builds the detrand analyzer. Three rules:
//
//  1. no calls to the global math/rand top-level draw functions — the
//     global source is shared across goroutines and makes every draw
//     depend on whatever else the process randomized first;
//  2. no rand.New, rand.NewSource or netsim.NewRand seeded from
//     time.Now — measurements must be a pure function of (seed, salt,
//     host);
//  3. inside seedScope, no rand.NewSource or netsim.NewRand with a
//     compile-time constant seed — per-entity streams must be derived
//     from the configured run seed.
//
// Test files are never loaded, so fixed seeds in _test.go stay fine.
func NewDetrand(seedScope []string) *Analyzer {
	a := &Analyzer{
		Name: "detrand",
		Doc:  "forbids the global math/rand source, wall-clock seeding, and hard-coded seeds in simulation packages",
	}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if path, name, ok := pkgCallee(pass.Info, call); ok && path == "math/rand" && globalRandFuncs[name] {
					pass.Reportf(call.Pos(),
						"call to global math/rand.%s: draw from an explicit seeded *rand.Rand (rngFor / measure.StreamSeed) instead",
						name)
					return true
				}
				fn := seedCtor(pass.Info, call)
				if fn == nil {
					return true
				}
				for _, arg := range call.Args {
					if containsPkgCall(pass.Info, arg, "time", "Now") {
						pass.Reportf(call.Pos(),
							"%s.%s seeded from time.Now: randomness must be a pure function of (seed, salt, host)",
							fn.Pkg().Name(), fn.Name())
						break
					}
				}
				if inScope(pass.Path, seedScope) &&
					len(call.Args) == 1 && pass.Info.Types[call.Args[0]].Value != nil {
					pass.Reportf(call.Pos(),
						"hard-coded seed in simulation package %s: derive stream seeds from the run's config seed (measure.StreamSeed / netsim.HashID)",
						pass.Path)
				}
				return true
			})
		}
		return nil
	}
	return a
}
