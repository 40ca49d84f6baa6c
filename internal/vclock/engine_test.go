package vclock

import (
	"go/build"
	"path/filepath"
	"testing"
)

// enginePackages are the internal packages whose time is this clock's:
// everything that charges work, accounts U or is replayed by the
// deterministic fault and chaos harnesses, and the fleet coordinator,
// which merges shard reports in virtual seconds. internal/server sits
// outside on purpose: the daemon's wall-clock latencies are about the
// outside world, not engine time.
var enginePackages = []string{"storage", "exec", "segment", "core", "optimizer", "btree", "fleet", "vclock"}

// TestEngineImportsNoTime fails when a non-test file of an engine package
// imports "time". The figures, the ledger and the fault replays hold only
// if every engine-visible second is virtual; a wall read, a sleep or a
// timer there makes them depend on the machine. Engine durations are
// float64 virtual seconds, so not even time.Duration is needed.
func TestEngineImportsNoTime(t *testing.T) {
	for _, name := range enginePackages {
		pkg, err := build.ImportDir(filepath.Join("..", name), 0)
		if err != nil {
			t.Fatalf("internal/%s: %v", name, err)
		}
		for _, pos := range pkg.ImportPos["time"] {
			t.Errorf("%s: engine package internal/%s imports \"time\": engine time must flow through internal/vclock", pos, name)
		}
	}
}
