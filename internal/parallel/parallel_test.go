package parallel

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachPreservesIndexing(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 2, 7, 64} {
		got := make([]string, n)
		err := ForEach(workers, n, func(i int) error {
			got[i] = fmt.Sprintf("%d:%d", i, i*i)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range got {
			want := fmt.Sprintf("%d:%d", i, i*i)
			if got[i] != want {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", workers, i, got[i], want)
			}
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	const n = 257
	run := func(workers int) ([]int, error) {
		out := make([]int, n)
		err := ForEach(workers, n, func(i int) error {
			v := 3*i + 1
			out[i] = v*v - i
			return nil
		})
		return out, err
	}
	serial, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := run(16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("parallel result differs from serial")
	}
}

func TestFirstErrorByIndexNotCompletion(t *testing.T) {
	// Two failing items: a slow one early and a fast one late. The serial
	// loop would report index 3; the pool must do the same even though
	// index 90 finishes failing first.
	n := 100
	errEarly := errors.New("early")
	errLate := errors.New("late")
	for trial := 0; trial < 20; trial++ {
		err := ForEach(8, n, func(i int) error {
			switch i {
			case 3:
				for j := 0; j < 1000; j++ {
					runtime.Gosched()
				}
				return errEarly
			case 90:
				return errLate
			}
			return nil
		})
		if !errors.Is(err, errEarly) {
			t.Fatalf("trial %d: got %v, want the lowest-index error", trial, err)
		}
	}
}

func TestErrorCancelsLaterWork(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	err := ForEach(4, 100000, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if got := ran.Load(); got == 100000 {
		t.Fatal("error did not cancel outstanding work")
	}
}

// TestGrainRunsUnitsWhole: with a grain, every index still runs exactly
// once with the serial loop's result, each unit of consecutive indices runs
// in order on one goroutine, and no more goroutines start than there are
// units — including a short last unit when n is not a multiple of the grain.
func TestGrainRunsUnitsWhole(t *testing.T) {
	for _, n := range []int{1, 4, 23, 257} {
		for _, grain := range []int{0, 1, 2, 5, 7, 300} {
			for _, workers := range []int{1, 2, 3, 8} {
				units := (n + max(grain, 1) - 1) / max(grain, 1)
				ran := make([][]int, Workers(workers, units))
				out := make([]int, n)
				err := ForEachWorker(workers, n, grain, func(w, i int) error {
					ran[w] = append(ran[w], i) // each goroutine writes only its own slot
					out[i] = 3*i*i - i
					return nil
				})
				if err != nil {
					t.Fatalf("n=%d grain=%d workers=%d: %v", n, grain, workers, err)
				}
				for i, v := range out {
					if v != 3*i*i-i {
						t.Fatalf("n=%d grain=%d workers=%d: out[%d] = %d", n, grain, workers, i, v)
					}
				}
				g, seen := max(grain, 1), 0
				for w, idx := range ran {
					for k := 0; k < len(idx); {
						lo := idx[k]
						if lo%g != 0 {
							t.Fatalf("n=%d grain=%d workers=%d: worker %d starts a unit at %d", n, grain, workers, w, lo)
						}
						for i := lo; i < min(lo+g, n); i, k = i+1, k+1 {
							if k >= len(idx) || idx[k] != i {
								t.Fatalf("n=%d grain=%d workers=%d: worker %d ran %v, want unit [%d,%d) whole and in order",
									n, grain, workers, w, idx, lo, min(lo+g, n))
							}
							seen++
						}
					}
				}
				if seen != n {
					t.Fatalf("n=%d grain=%d workers=%d: %d items ran, want %d", n, grain, workers, seen, n)
				}
			}
		}
	}
}

// TestGrainFirstErrorByIndex: the lowest failing index wins whether the
// failures share a unit or fall in different units, even when the higher
// one fails first; inside a unit, nothing after the failure runs.
func TestGrainFirstErrorByIndex(t *testing.T) {
	const n, grain = 100, 5
	slow := func() {
		for j := 0; j < 1000; j++ {
			runtime.Gosched()
		}
	}
	for _, tc := range []struct {
		name      string
		low, high int
	}{
		{"one-unit", 11, 13},
		{"across-units", 13, 71},
		{"adjacent-units", 14, 15},
	} {
		for trial := 0; trial < 20; trial++ {
			var ranAfterLow atomic.Int64
			err := ForEachWorker(8, n, grain, func(_, i int) error {
				if i > tc.low && i/grain == tc.low/grain {
					ranAfterLow.Add(1)
				}
				switch i {
				case tc.low:
					slow()
					return fmt.Errorf("item %d", i)
				case tc.high:
					return fmt.Errorf("item %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != fmt.Sprintf("item %d", tc.low) {
				t.Fatalf("%s trial %d: got %v, want item %d", tc.name, trial, err, tc.low)
			}
			if got := ranAfterLow.Load(); got != 0 {
				t.Fatalf("%s trial %d: %d items after the failure in its unit ran", tc.name, trial, got)
			}
		}
	}
}

// TestGrainErrorCancelsLaterUnits: a failure in the first unit stops the
// pool from running the units after it.
func TestGrainErrorCancelsLaterUnits(t *testing.T) {
	const n, grain = 100000, 5
	var ran atomic.Int64
	boom := errors.New("boom")
	err := ForEachWorker(4, n, grain, func(_, i int) error {
		ran.Add(1)
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if got := ran.Load(); got > n/2 {
		t.Fatalf("%d of %d items ran after a failure in the first unit", got, n)
	}
}

func TestWorkersClamp(t *testing.T) {
	if w := Workers(0, 10); w != runtime.GOMAXPROCS(0) && w != 10 {
		t.Fatalf("Workers(0,10) = %d", w)
	}
	if w := Workers(8, 3); w != 3 {
		t.Fatalf("Workers(8,3) = %d, want 3", w)
	}
	if w := Workers(-1, 0); w != 1 {
		t.Fatalf("Workers(-1,0) = %d, want 1", w)
	}
}

func TestEmptyInput(t *testing.T) {
	if err := ForEach(8, 0, func(i int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}
