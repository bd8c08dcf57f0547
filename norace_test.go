//go:build !race

package perfvar

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
