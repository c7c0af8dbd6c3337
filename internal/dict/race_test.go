//go:build race

package dict_test

// raceEnabled reports a build with the race detector, whose shadow
// memory and instrumentation skew heap measurements.
const raceEnabled = true
