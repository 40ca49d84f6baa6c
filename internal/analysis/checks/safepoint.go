package checks

import (
	"go/ast"
	"go/types"

	"progressdb/internal/analysis"
)

// Safepoint guards the executor's cancellation latency bound. PR 2's
// contract is that a canceled query unwinds within a bounded amount of
// work because every unbounded tuple loop passes through a safe point —
// either directly (env.yield / env.checkCancel) or transitively, by
// pumping a child Iterator whose leaf scans yield. A drain loop that
// pumps a raw scanner or an unexported helper instead (e.g. an
// intermediate merge reading spilled runs) silently exempts itself from
// cancellation for its whole duration.
//
// The rule: inside progressdb/internal/exec, every condition-less
// `for {}` loop that performs per-tuple work — a no-arg .Next()/.next()
// pump or a Clock charge — must contain one of:
//
//   - a direct safe point: a call to yield, checkCancel, or Yield; or
//   - a transitively safe pump: a call to an *exported* method Next
//     with the Iterator shape `func() (T, bool, error)`. Exported
//     Iterator.Next is safe because the pull chain bottoms out at a
//     scan, and scans yield per tuple; unexported helpers (the run
//     merger, the spill reader's next) and raw storage scanners carry
//     no such guarantee, so a loop that also pumps one of those (on
//     another branch, after the Iterator is drained) needs the direct
//     safe point.
//
// Bounded loops (range loops, condition loops over in-memory state) are
// exempt: their work per entry is limited by what an enclosing safe
// loop handed them.
var Safepoint = &analysis.Analyzer{
	Name: "safepoint",
	Doc: "every unbounded tuple loop in internal/exec must reach a " +
		"cancellation safe point (env.yield/checkCancel) directly or by " +
		"pumping an exported Iterator.Next",
	Run: runSafepoint,
}

func runSafepoint(pass *analysis.Pass) error {
	if !isExecPackage(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok || loop.Cond != nil {
				return true
			}
			works, safe := scanLoopBody(pass, loop.Body)
			if works && !safe {
				pass.Reportf(loop.Pos(),
					"unbounded tuple loop without a cancellation safe point: "+
						"call env.yield()/checkCancel() in the loop, pump an exported "+
						"Iterator.Next, or suppress with //lint:ignore safepoint <reason>")
			}
			return true
		})
	}
	return nil
}

// scanLoopBody walks one loop body and reports whether it performs
// per-tuple work and whether it reaches a safe point.
func scanLoopBody(pass *analysis.Pass, body *ast.BlockStmt) (works, safe bool) {
	direct, pumpsIter, pumpsRaw := false, false, false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		switch name {
		case "yield", "checkCancel", "Yield":
			direct = true
		case "ChargeCPU", "ChargeSeqIO", "ChargeRandIO", "Charge":
			works = true
		case "Next", "next":
			if len(call.Args) == 0 {
				works = true
				if name == "Next" && isIteratorShape(pass, call) {
					pumpsIter = true
				} else {
					pumpsRaw = true
				}
			}
		}
		return true
	})
	// A loop that pumps an Iterator on one branch and a raw scanner on
	// another is only as safe as the raw branch: once the Iterator is
	// drained, nothing it yields through runs again.
	return works, direct || (pumpsIter && !pumpsRaw)
}

// isIteratorShape reports whether the called method has the executor's
// Iterator.Next signature: func() (T, bool, error).
func isIteratorShape(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return false
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	if sig.Params().Len() != 0 || res.Len() != 3 {
		return false
	}
	if b, ok := res.At(1).Type().(*types.Basic); !ok || b.Kind() != types.Bool {
		return false
	}
	return types.Identical(res.At(2).Type(), types.Universe.Lookup("error").Type())
}
