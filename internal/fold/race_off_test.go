//go:build !race

package fold_test

// raceEnabled reports whether the test binary was built with the race
// detector, under which sync.Pool deliberately drops some Puts, so the
// engine's draw records are not always there to reuse.
const raceEnabled = false
