//go:build !race

package dictsrv

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
