//go:build !race

package dict_test

const raceEnabled = false
