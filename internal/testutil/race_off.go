//go:build !race

package testutil

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own and so voids allocation ceilings.
const raceEnabled = false
