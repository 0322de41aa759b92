package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Program is a whole-module view: every package type-checked against the
// *same* set of types.Package objects, so a *types.Func resolved through one
// package's Uses map is pointer-identical to the one in the defining
// package's Defs map. That identity is what lets the call graph
// (callgraph.go) follow an edge from a call site in internal/experiments into
// a method declared in internal/core. Loading packages one at a time through
// the source importer cannot provide it: that importer re-checks imported
// packages privately, so cross-package objects never match.
type Program struct {
	Fset *token.FileSet
	// Pkgs are the packages matched by the load patterns, sorted by import
	// path. Dependency packages pulled in only for type identity are loaded
	// too but not listed here.
	Pkgs []*Package

	byPath map[string]*Package
	dirs   directives // the //cohort: comments of Pkgs, parsed at load
}

// Package returns the loaded package with the given import path, or nil.
// Both pattern-matched and dependency-only packages are visible.
func (p *Program) Package(path string) *Package { return p.byPath[path] }

// progImporter type-checks module-internal packages once, memoized, and
// delegates everything else (the standard library) to the source importer.
// Import resolution recurses: checking a package first imports — and thereby
// checks — its in-module dependencies, so packages are processed in
// topological order without an explicit sort.
type progImporter struct {
	fset     *token.FileSet
	listed   map[string]*listedPackage
	checked  map[string]*Package
	fallback types.Importer
}

func (pi *progImporter) Import(path string) (*types.Package, error) {
	lp, ok := pi.listed[path]
	if !ok || lp.Standard {
		return pi.fallback.Import(path)
	}
	pkg, err := pi.ensure(lp)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

func (pi *progImporter) ensure(lp *listedPackage) (*Package, error) {
	if pkg, ok := pi.checked[lp.ImportPath]; ok {
		return pkg, nil
	}
	files := make([]string, len(lp.GoFiles))
	for i, f := range lp.GoFiles {
		files[i] = filepath.Join(lp.Dir, f)
	}
	pkg, err := check(pi.fset, pi, lp.ImportPath, files)
	if err != nil {
		return nil, err
	}
	pkg.Dir = lp.Dir
	pi.checked[lp.ImportPath] = pkg
	return pkg, nil
}

// LoadProgram expands the `go list` patterns and returns the matched packages
// plus their in-module dependencies as one consistently type-checked Program.
func LoadProgram(patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-json=ImportPath,Dir,Name,GoFiles,Standard,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list -deps %v: %v\n%s", patterns, err, errb.String())
	}
	listed := make(map[string]*listedPackage)
	var matched []string
	dec := json.NewDecoder(&out)
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %v", err)
		}
		p := lp
		listed[p.ImportPath] = &p
		if !p.Standard && !p.DepOnly && len(p.GoFiles) > 0 {
			matched = append(matched, p.ImportPath)
		}
	}
	sort.Strings(matched)

	fset := token.NewFileSet()
	pi := &progImporter{
		fset:     fset,
		listed:   listed,
		checked:  make(map[string]*Package),
		fallback: importer.ForCompiler(fset, "source", nil),
	}
	prog := &Program{Fset: fset, byPath: pi.checked}
	for _, path := range matched {
		pkg, err := pi.ensure(listed[path])
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	prog.indexDirectives()
	return prog, nil
}

// treeImporter resolves import paths under a base path to subdirectories of a
// root directory — the loader behind LoadTree, which the program-analyzer
// golden tests use to assemble multi-package testdata programs that `go list`
// does not see.
type treeImporter struct {
	fset     *token.FileSet
	root     string
	base     string
	checked  map[string]*Package
	fallback types.Importer
}

func (ti *treeImporter) Import(path string) (*types.Package, error) {
	if path != ti.base && !strings.HasPrefix(path, ti.base+"/") {
		return ti.fallback.Import(path)
	}
	if pkg, ok := ti.checked[path]; ok {
		return pkg.Types, nil
	}
	dir := filepath.Join(ti.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, ti.base), "/")))
	pkg, err := loadTreeDir(ti, dir, path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

func loadTreeDir(ti *treeImporter, dir, path string) (*Package, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []string
	for _, m := range matches {
		if !isTestFile(m) {
			files = append(files, m)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	sort.Strings(files)
	pkg, err := check(ti.fset, ti, path, files)
	if err != nil {
		return nil, err
	}
	pkg.Dir = dir
	ti.checked[path] = pkg
	return pkg, nil
}

// LoadTree loads every package under root (each directory holding .go files)
// as one Program with import paths base, base/<subdir>, … — cross-imports
// between them resolve to shared type objects exactly as in LoadProgram.
func LoadTree(root, base string) (*Program, error) {
	fset := token.NewFileSet()
	ti := &treeImporter{
		fset:     fset,
		root:     root,
		base:     base,
		checked:  make(map[string]*Package),
		fallback: importer.ForCompiler(fset, "source", nil),
	}
	var paths []string
	err := filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err != nil || !info.IsDir() {
			return err
		}
		matches, _ := filepath.Glob(filepath.Join(p, "*.go"))
		if len(matches) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		path := base
		if rel != "." {
			path = base + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	prog := &Program{Fset: fset, byPath: ti.checked}
	for _, path := range paths {
		if _, err := ti.Import(path); err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, ti.checked[path])
	}
	prog.indexDirectives()
	return prog, nil
}
