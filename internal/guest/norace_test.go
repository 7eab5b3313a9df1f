//go:build !race

package guest

// raceEnabled reports a -race build, whose instrumentation allocates
// and so voids the allocation ceilings.
const raceEnabled = false
