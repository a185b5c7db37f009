//go:build race

package fold_test

// raceEnabled mirrors the -race flag; see race_off_test.go.
const raceEnabled = true
