// Package checks holds the progresslint analyzers: the engine's
// conventions — deterministic time, cancellable loops, leak-free error
// unwinding, a disciplined metrics namespace, reliable error wrapping —
// expressed as machine-checked invariants over the module's syntax and
// types. DESIGN.md §7 documents each invariant and why the paper's
// guarantees depend on it; cmd/progresslint runs the suite in CI.
package checks

import (
	"strings"

	"progressdb/internal/analysis"
)

// All returns every analyzer in the suite, in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		VclockTime,
		Safepoint,
		Closepath,
		Obsnames,
		Errwrap,
		Lockdisc,
	}
}

// enginePackages are the packages whose "time" is the virtual clock:
// everything that charges work, accounts U, or is replayed by the
// deterministic fault/chaos harnesses. internal/server intentionally
// sits outside the list — the daemon's wall-clock latencies are about
// the outside world, not engine time.
var enginePackages = []string{
	"progressdb/internal/storage",
	"progressdb/internal/exec",
	"progressdb/internal/segment",
	"progressdb/internal/core",
	"progressdb/internal/optimizer",
	"progressdb/internal/btree",
	// The fleet coordinator merges shard reports whose elapsed and
	// remaining figures are virtual seconds; a wall-clock read there
	// would mix the two ledgers in the global progress stream.
	"progressdb/internal/fleet",
}

// isEnginePackage reports whether path is (or is nested under) one of
// the engine packages.
func isEnginePackage(path string) bool {
	for _, e := range enginePackages {
		if path == e || strings.HasPrefix(path, e+"/") {
			return true
		}
	}
	return false
}

// isExecPackage reports whether path is the executor package, whose
// loops and operators carry the safe-point and close-path invariants.
func isExecPackage(path string) bool {
	return path == "progressdb/internal/exec"
}
