//go:build race

package dictsrv

// raceEnabled reports a -race build. Its sync.Pool drops a random quarter
// of what it is given, so a pooled request is sometimes allocated anew.
const raceEnabled = true
