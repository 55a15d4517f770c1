//go:build !race

package wire

// raceEnabled reports whether the race detector is instrumenting this
// binary; see race_on_test.go for the counterpart.
const raceEnabled = false
