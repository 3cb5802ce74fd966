//go:build !race

package core_test

// raceEnabled reports a -race build, whose sync.Pools drop what they
// hold at random.
const raceEnabled = false
