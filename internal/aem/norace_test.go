//go:build !race

package aem

// raceEnabled reports a race-detector build, in which sync.Pool drops a
// random quarter of the items it is given.
const raceEnabled = false
