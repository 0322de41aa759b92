package lint

import "strings"

// AllowDocAnalyzer lints the lint suppressions themselves: every
// //cohort:allow annotation must use the canonical form
//
//	//cohort:allow <analyzer>: <reason>
//
// naming exactly one registered analyzer, with a colon and a non-empty
// justification. Free-form suppressions rot: a typoed analyzer name silently
// suppresses nothing (the diagnostic it meant to waive fires anyway — or
// worse, the annotation form drifts and waives too much), and a missing
// reason makes the waiver unreviewable. This analyzer turns both into build
// failures in the packages in scope (the contract packages).
var AllowDocAnalyzer = &Analyzer{
	Name: "allowdoc",
	Doc: "require //cohort:allow annotations to use the form " +
		"'//cohort:allow <analyzer>: <reason>' with a registered analyzer name",
}

// Run is attached in init: runAllowDoc consults the Analyzers() roster, which
// itself contains AllowDocAnalyzer, and a static reference would be an
// initialization cycle.
func init() { AllowDocAnalyzer.Run = runAllowDoc }

func runAllowDoc(pass *Pass) {
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	inScope := map[*Package]bool{}
	for _, pkg := range pass.Pkgs {
		inScope[pkg] = true
	}
	for _, d := range pass.Prog.dirs.list {
		if d.kind != "allow" || !inScope[d.pkg] {
			continue
		}
		name, reason, hasColon := strings.Cut(d.arg, ":")
		name = strings.TrimSpace(name)
		switch {
		case !hasColon || name == "" || strings.ContainsAny(name, " \t"):
			pass.Reportf(d.pos, "malformed allow annotation: canonical form is "+
				"//cohort:allow <analyzer>: <reason>")
		case !known[name]:
			pass.Reportf(d.pos, "allow annotation names unknown analyzer %q; "+
				"it suppresses nothing (registered: %s)", name, analyzerNames())
		case strings.TrimSpace(reason) == "":
			pass.Reportf(d.pos, "allow annotation for %q has no reason; "+
				"justify why the construct is safe", name)
		}
	}
}

// analyzerNames renders the registered roster for diagnostics.
func analyzerNames() string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}
