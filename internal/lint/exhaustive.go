package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// ExhaustiveAnalyzer flags switch statements over protocol enums — named
// integer types with at least two declared constants, like cache.State,
// coherence.CounterAction or invariant.Kind — that neither cover every
// member nor carry a default clause. A protocol transition that silently
// ignores an enum member is exactly the bug class the model checker hunts
// dynamically; this is the static half: adding a state to an enum must fail
// the build wherever a switch has not decided how to handle it.
//
// Switches containing non-constant case expressions are skipped (coverage is
// undecidable), and members are compared by value, so aliased constants count
// as covered together. Suppress deliberate partial switches with
// //cohort:allow exhaustive: <reason>.
var ExhaustiveAnalyzer = &Analyzer{
	Name: "exhaustive",
	Doc: "require switches over protocol enums (named integer types with ≥2 " +
		"declared constants) to cover every member or declare a default",
	Run: runExhaustive,
}

func runExhaustive(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || sw.Tag == nil {
					return true
				}
				named := enumType(pkg.Info.TypeOf(sw.Tag))
				if named == nil {
					return true
				}
				members := enumMembers(named, pkg.Types)
				if len(members) < 2 {
					return true
				}
				covered := map[int64]bool{}
				for _, stmt := range sw.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						return true
					}
					if cc.List == nil {
						return true // default clause: every member is handled
					}
					for _, e := range cc.List {
						tv, ok := pkg.Info.Types[e]
						if !ok || tv.Value == nil {
							return true // non-constant case: coverage undecidable
						}
						v, exact := constant.Int64Val(constant.ToInt(tv.Value))
						if !exact {
							return true
						}
						covered[v] = true
					}
				}
				var missing []string
				reported := map[int64]bool{}
				for _, m := range members {
					if covered[m.val] || reported[m.val] {
						continue
					}
					reported[m.val] = true
					missing = append(missing, m.name)
				}
				if len(missing) > 0 {
					pass.Reportf(sw.Switch, "switch over %s does not cover %s and has no default; "+
						"handle the missing members, add a default, or annotate with "+
						"//cohort:allow exhaustive: <reason>",
						named.Obj().Name(), strings.Join(missing, ", "))
				}
				return true
			})
		}
	}
}

type enumMember struct {
	name string
	val  int64
}

// enumType returns the tag's type when it is a defined (non-predeclared)
// type whose underlying type is an integer — the shape of every protocol
// enum in the repo. Anything else (plain ints, strings, bools) is not an
// enum for this analyzer.
func enumType(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return nil
	}
	return named
}

// enumMembers lists the constants of the named type declared in its defining
// package, name-sorted (package scopes iterate sorted). Constants that are
// unexported in a foreign package are excluded: the switch author cannot
// name them, so demanding coverage would just force a default.
func enumMembers(named *types.Named, from *types.Package) []enumMember {
	defPkg := named.Obj().Pkg()
	scope := defPkg.Scope()
	var out []enumMember
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		if defPkg != from && !c.Exported() {
			continue
		}
		if v, exact := constant.Int64Val(constant.ToInt(c.Val())); exact {
			out = append(out, enumMember{name: name, val: v})
		}
	}
	return out
}
