package phaseprofile

import "testing"

// HostileShapes hands bounds_test.go's hostile archives to the
// external fuzz test's seed corpus.
func HostileShapes(tb testing.TB, n int) map[string][2][]byte { return hostileShapes(tb, n) }
