//go:build !race

package httpd

// raceEnabled reports a -race build, whose instrumentation allocates
// and so voids the allocation ceilings.
const raceEnabled = false
