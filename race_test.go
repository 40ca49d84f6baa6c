//go:build race

package progressdb

// raceEnabled reports a -race build, where sync.Pool drops entries at
// random and allocation counts do not repeat.
const raceEnabled = true
