package checks

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"progressdb/internal/analysis"
)

// Errwrap keeps the engine's error taxonomy unwrappable. The failure
// model (DESIGN.md §6) routes everything through errors.Is/As:
// *storage.IOFault drives the buffer pool's transient-retry decision,
// *exec.CanceledError unwraps to context.Canceled for the server's
// canceled-vs-failed distinction, and *exec.InternalError carries
// recovered panics across the containment boundary. A single
// fmt.Errorf("...: %v", err) in that chain flattens the typed error
// into text and silently breaks every downstream inspection. Likewise,
// a panic outside the sanctioned containment sites either crashes the
// daemon or, if recovered, masquerades as an engine invariant
// violation; sanctioned sites carry a //lint:ignore errwrap directive
// whose reason documents why panicking is correct there.
var Errwrap = &analysis.Analyzer{
	Name: "errwrap",
	Doc: "fmt.Errorf over an error value must wrap with %w so errors.Is/As " +
		"keep seeing IOFault/CanceledError/InternalError, and panic is " +
		"forbidden outside sanctioned (suppressed and documented) sites",
	Run: runErrwrap,
}

func runErrwrap(pass *analysis.Pass) error {
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkErrorf(pass, call, errType)
			checkPanic(pass, call)
			return true
		})
	}
	return nil
}

// checkErrorf flags error-typed arguments formatted with a verb other
// than %w in fmt.Errorf calls whose format string is a literal.
func checkErrorf(pass *analysis.Pass, call *ast.CallExpr, errType *types.Interface) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.TypesInfo.Uses[ident].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "fmt" || len(call.Args) < 2 {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	verbs := formatVerbs(format)
	for i, arg := range call.Args[1:] {
		if i >= len(verbs) || verbs[i] == 'w' || verbs[i] == '*' {
			continue
		}
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || tv.Type == nil || tv.IsNil() {
			continue
		}
		if !types.Implements(tv.Type, errType) {
			continue
		}
		pass.Reportf(arg.Pos(),
			"error formatted with %%%c instead of %%w: wrapping keeps errors.Is/As "+
				"working for IOFault, CanceledError, and context cancellation", verbs[i])
	}
}

// formatVerbs returns, for each argument consumed by the format string
// in order, the verb that consumes it ('*' for a width/precision
// argument). %% consumes nothing.
func formatVerbs(format string) []rune {
	var verbs []rune
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
	spec:
		for ; i < len(format); i++ {
			switch c := format[i]; {
			case c == '%':
				break spec // literal %%
			case c == '*':
				verbs = append(verbs, '*')
			case c == '#' || c == '0' || c == '-' || c == ' ' || c == '+' ||
				c == '.' || (c >= '0' && c <= '9') ||
				c == '[' || c == ']': // explicit arg indexes are rare; treat digits as modifiers
				// flag/width/precision/index character: keep scanning
			default:
				verbs = append(verbs, rune(c))
				break spec
			}
		}
	}
	return verbs
}

// checkPanic flags panic calls outside package main. Tests are never
// analyzed, and main packages (the cmd binaries) may fail
// fast; library panics must be suppressed with a reason naming them a
// sanctioned containment site.
func checkPanic(pass *analysis.Pass, call *ast.CallExpr) {
	if pass.Pkg.Name() == "main" {
		return
	}
	ident, ok := call.Fun.(*ast.Ident)
	if !ok || ident.Name != "panic" {
		return
	}
	if obj, found := pass.TypesInfo.Uses[ident]; !found || obj != types.Universe.Lookup("panic") {
		return
	}
	pass.Reportf(call.Pos(),
		"panic outside a sanctioned containment site: return an error (the engine's "+
			"recover boundaries are for invariant violations, not control flow), or mark "+
			"the site sanctioned with //lint:ignore errwrap <why panicking is correct here>")
}
