//go:build race

package server

// raceEnabled reports a -race build, where allocation counts do not
// repeat.
const raceEnabled = true
