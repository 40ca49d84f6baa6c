// Package checks holds the progresslint analyzers: the engine's
// conventions that need type information — reliable error wrapping, no
// blocking under a lock — expressed as machine-checked invariants over
// the module's syntax and types. The engine's other two rules are
// checked by tests instead: internal/vclock's TestEngineImportsNoTime
// keeps wall-clock time out of the engine packages, and
// internal/exec's TestUnwindSweep bounds the work a canceled query does
// before it returns. DESIGN.md §7 documents each invariant and why the
// paper's guarantees depend on it; cmd/progresslint runs the suite in CI.
package checks

import "progressdb/internal/analysis"

// All returns every analyzer in the suite, in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Errwrap,
		Lockdisc,
	}
}
