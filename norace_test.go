//go:build !race

package progressdb

const raceEnabled = false
