package testutil

import "testing"

// SkipUnderRace skips an allocation ceiling in a -race build, whose
// instrumentation allocates on its own.
func SkipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
}
