package analysis

import (
	"context"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"activegeo/internal/parallel"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File // non-test files, build-tag filtered
	Pkg   *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of the enclosing module with
// no toolchain or network access: module packages resolve inside the
// module directory, everything else resolves from GOROOT source. The
// standard library is checked API-only (function bodies ignored), so a
// whole-tree load stays fast.
//
// A Loader is safe for concurrent LoadDir calls: the file set is
// internally synchronized and the dependency cache is a singleflight —
// concurrent imports of the same path coalesce onto one check.
type Loader struct {
	ModPath string
	ModDir  string

	ctxt build.Context
	fset *token.FileSet

	depMu sync.Mutex
	deps  map[string]*depCall // API-only singleflight cache, shared across loads
}

// depCall is one in-flight (or completed) dependency check; concurrent
// importers of the same path wait on done instead of re-checking.
type depCall struct {
	done chan struct{}
	pkg  *types.Package
	err  error
}

// NewLoader locates the module root at or above dir and reads its path
// from go.mod.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modDir := abs
	for {
		if _, err := os.Stat(filepath.Join(modDir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(modDir)
		if parent == modDir {
			return nil, fmt.Errorf("analysis: no go.mod at or above %s", abs)
		}
		modDir = parent
	}
	data, err := os.ReadFile(filepath.Join(modDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.Trim(strings.TrimSpace(rest), `"`)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", modDir)
	}
	ctxt := build.Default
	ctxt.CgoEnabled = false // select pure-Go fallbacks; we only need API shapes
	return &Loader{
		ModPath: modPath,
		ModDir:  modDir,
		ctxt:    ctxt,
		fset:    token.NewFileSet(),
		deps:    map[string]*depCall{},
	}, nil
}

// Expand resolves go-style package patterns ("./...", "./internal/geo",
// "internal/geo/...") relative to the module root into package dirs.
// testdata, vendor and hidden directories are skipped.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, p := range patterns {
		p = strings.TrimPrefix(p, "./")
		recursive := false
		if p == "..." {
			p, recursive = "", true
		} else if rest, ok := strings.CutSuffix(p, "/..."); ok {
			p, recursive = rest, true
		}
		root := filepath.Join(l.ModDir, filepath.FromSlash(p))
		st, err := os.Stat(root)
		if err != nil || !st.IsDir() {
			return nil, fmt.Errorf("analysis: no package directory %q", p)
		}
		if !recursive {
			add(root)
			continue
		}
		err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModDir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.ModDir)
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// LoadPatterns expands the patterns and fully type-checks every
// package directory that contains buildable Go files. Directories are
// loaded on parallel.For at GOMAXPROCS width, with dependency
// checks coalescing in the shared singleflight cache. The returned
// slice is in directory order regardless of completion order, so
// downstream diagnostic ordering cannot observe the pool.
func (l *Loader) LoadPatterns(patterns ...string) ([]*Package, error) {
	dirs, err := l.Expand(patterns)
	if err != nil {
		return nil, err
	}
	loaded := make([]*Package, len(dirs))
	errs := make([]error, len(dirs))
	parallel.For(context.Background(), len(dirs), parallel.Workers(0), func(i int) {
		loaded[i], errs[i] = l.loadPatternDir(dirs[i])
	})
	var pkgs []*Package
	for i := range dirs {
		if errs[i] != nil {
			// First error in directory order, independent of scheduling.
			return nil, errs[i]
		}
		if loaded[i] != nil {
			pkgs = append(pkgs, loaded[i])
		}
	}
	return pkgs, nil
}

// loadPatternDir loads one expanded directory; a directory without
// buildable Go files yields (nil, nil).
func (l *Loader) loadPatternDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	pkg, err := l.LoadDir(dir, path)
	if _, ok := err.(*build.NoGoError); ok {
		return nil, nil
	}
	return pkg, err
}

// LoadDir parses and fully type-checks the single package in dir under
// the given import path. Test files are excluded; type errors fail the
// load (the tree is expected to build — `go build` gates before lint).
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files, err := l.parseFiles(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer:    (*depImporter)(l),
		FakeImportC: true,
		Error:       func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %v (and %d more)",
			path, typeErrs[0], len(typeErrs)-1)
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Pkg: tpkg, Info: info}, nil
}

func (l *Loader) parseFiles(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// depImporter resolves imports for type-checking: module-internal paths
// from the module directory, the rest from GOROOT source (including the
// GOROOT vendor tree). Dependencies are checked with IgnoreFuncBodies —
// analyzers only need their exported API shapes.
type depImporter Loader

func (im *depImporter) loader() *Loader { return (*Loader)(im) }

func (im *depImporter) Import(path string) (*types.Package, error) {
	l := im.loader()
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	// Singleflight: the first importer of a path checks it, concurrent
	// importers wait on the same call. No lock is held during the check
	// itself, so recursive imports (dependencies of the dependency)
	// re-enter freely and cannot deadlock — Go import graphs have no
	// cycles.
	l.depMu.Lock()
	if call, ok := l.deps[path]; ok {
		l.depMu.Unlock()
		<-call.done
		return call.pkg, call.err
	}
	call := &depCall{done: make(chan struct{})}
	l.deps[path] = call
	l.depMu.Unlock()

	call.pkg, call.err = im.check(path)
	close(call.done)
	return call.pkg, call.err
}

// check parses and API-only type-checks one dependency package.
func (im *depImporter) check(path string) (*types.Package, error) {
	l := im.loader()
	dir, err := im.dirFor(path)
	if err != nil {
		return nil, err
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files, err := l.parseFiles(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	conf := types.Config{
		Importer:         im,
		IgnoreFuncBodies: true,
		FakeImportC:      true,
		Error:            func(error) {},
	}
	pkg, err := conf.Check(path, l.fset, files, nil)
	if pkg == nil {
		return nil, fmt.Errorf("analysis: importing %s: %w", path, err)
	}
	// API-only checks of tag-filtered stdlib trees can surface benign
	// body-level issues; a usable (possibly incomplete) package is
	// enough for analysis, mirroring srcimporter's tolerance.
	return pkg, nil
}

func (im *depImporter) dirFor(path string) (string, error) {
	l := im.loader()
	if path == l.ModPath {
		return l.ModDir, nil
	}
	if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		return filepath.Join(l.ModDir, filepath.FromSlash(rest)), nil
	}
	goroot := runtime.GOROOT()
	for _, base := range []string{"src", filepath.Join("src", "vendor")} {
		d := filepath.Join(goroot, base, filepath.FromSlash(path))
		if st, err := os.Stat(d); err == nil && st.IsDir() {
			return d, nil
		}
	}
	return "", fmt.Errorf("analysis: cannot resolve import %q", path)
}
