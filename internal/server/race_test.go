//go:build race

package server

// raceEnabled reports a build with the race detector, which changes
// sync.Pool's behaviour enough to skew allocation counts.
const raceEnabled = true
