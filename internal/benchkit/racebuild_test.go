//go:build race

package benchkit

// raceEnabled reports a build with the race detector (see skipUnderRace).
const raceEnabled = true
