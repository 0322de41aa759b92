package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// The suite reads four kinds of //cohort: line comment:
//
//	//cohort:allow <analyzer>: <reason>   suppress one analyzer on this line and the next
//	//cohort:hotpath [determinism|exempt] mark a call-graph root (function doc only)
//	//cohort:server                       mark a ctxflow root (function doc only)
//	//cohort:chanowner <reason>           waive syncmisuse's cross-goroutine close check
//
// A Program parses them once, at load, into one directive index; the allow
// suppression in Pass.Reportf, the allowdoc analyzer, BuildGraph and
// syncmisuse all read from it.

// directiveKinds are the recognised kinds. None is a prefix of another, so a
// comment matches at most one.
var directiveKinds = []string{"allow", "hotpath", "server", "chanowner"}

// directive is one //cohort:<kind> comment.
type directive struct {
	kind string
	arg  string // the text after "cohort:<kind>", trimmed
	pos  token.Pos
	pkg  *Package
}

// lineKey is one source line.
type lineKey struct {
	file string
	line int
}

// allowKey is one source line on which one analyzer is suppressed.
type allowKey struct {
	lineKey
	analyzer string
}

// directives is a Program's index of its //cohort: comments.
type directives struct {
	// list holds every directive in package, file and source order.
	list      []*directive
	byComment map[*ast.Comment]*directive
	allow     map[allowKey]bool
}

// indexDirectives parses the //cohort: comments of every package in the
// Program. Block comments are never directives.
func (p *Program) indexDirectives() {
	p.dirs = directives{byComment: make(map[*ast.Comment]*directive), allow: make(map[allowKey]bool)}
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if d := parseDirective(c, pkg); d != nil {
						p.dirs.add(p.Fset, c, d)
					}
				}
			}
		}
	}
}

func parseDirective(c *ast.Comment, pkg *Package) *directive {
	text, ok := strings.CutPrefix(c.Text, "//")
	if !ok {
		return nil
	}
	text = strings.TrimSpace(text)
	for _, kind := range directiveKinds {
		if rest, ok := strings.CutPrefix(text, "cohort:"+kind); ok {
			return &directive{kind: kind, arg: strings.TrimSpace(rest), pos: c.Pos(), pkg: pkg}
		}
	}
	return nil
}

func (ds *directives) add(fset *token.FileSet, c *ast.Comment, d *directive) {
	ds.list = append(ds.list, d)
	ds.byComment[c] = d
	if d.kind != "allow" {
		return
	}
	// The canonical form is "cohort:allow <analyzer>: <reason>" (enforced by
	// the allowdoc analyzer); the bare-name legacy form still matches so a
	// migration cannot un-suppress.
	fields := strings.Fields(d.arg)
	if len(fields) == 0 {
		return
	}
	name := strings.TrimSuffix(fields[0], ":")
	at := coveredLines(fset, d.pos)
	ds.allow[allowKey{at[0], name}] = true
	ds.allow[allowKey{at[1], name}] = true
}

// coveredLines returns the lines an annotation at pos covers: its own line
// and the next (an annotation above the construct it applies to).
func coveredLines(fset *token.FileSet, pos token.Pos) [2]lineKey {
	p := fset.Position(pos)
	return [2]lineKey{{p.Filename, p.Line}, {p.Filename, p.Line + 1}}
}

// inDoc returns the first directive of the given kind in a doc comment, or
// nil.
func (ds *directives) inDoc(doc *ast.CommentGroup, kind string) *directive {
	if doc == nil {
		return nil
	}
	for _, c := range doc.List {
		if d := ds.byComment[c]; d != nil && d.kind == kind {
			return d
		}
	}
	return nil
}
