package exec

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// executors returns one of each back end at the given worker count, with
// cleanup registered on t.
func executors(t *testing.T, workers int) []Executor {
	t.Helper()
	fl, err := NewFlow(workers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })
	return []Executor{NewPool(workers), fl}
}

func TestMapMatchesSerialAcrossExecutors(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i * 3
	}
	square := func(i int, v int) (int, error) { return v*v + i, nil }

	want, err := Map(NewPool(1), items, square) // serial reference path
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		for _, ex := range executors(t, workers) {
			got, err := Map(ex, items, square)
			if err != nil {
				t.Fatalf("%s/%d: %v", ex.Name(), workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%d: results differ from serial reference", ex.Name(), workers)
			}
		}
	}
}

func TestLowestIndexErrorAcrossExecutors(t *testing.T) {
	items := make([]int, 50)
	for _, ex := range executors(t, 4) {
		_, err := Map(ex, items, func(i int, _ int) (int, error) {
			if i%13 == 7 { // fails at 7, 20, 33, 46 — serial surfaces 7
				return 0, fmt.Errorf("boom at %d", i)
			}
			return i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "boom at 7") {
			t.Errorf("%s: error = %v, want lowest-index boom at 7", ex.Name(), err)
		}
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	for _, ex := range executors(t, 3) {
		if err := ex.Run(Batch{N: 0, Fn: func(int) error { return errors.New("never") }}); err != nil {
			t.Errorf("%s: empty Run: %v", ex.Name(), err)
		}
		var ran atomic.Int64
		if err := ex.Run(Batch{N: 1, Fn: func(i int) error { ran.Add(1); return nil }}); err != nil {
			t.Errorf("%s: single Run: %v", ex.Name(), err)
		}
		if ran.Load() != 1 {
			t.Errorf("%s: single item ran %d times", ex.Name(), ran.Load())
		}
	}
}

func TestFlowRunsEveryIndexExactlyOnce(t *testing.T) {
	fl, err := NewFlow(5)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if fl.Name() != "flow" || len(fl.workers) != 5 {
		t.Fatalf("identity: name=%s workers=%d", fl.Name(), len(fl.workers))
	}
	const n = 200
	counts := make([]atomic.Int64, n)
	if err := fl.Run(Batch{N: n, Fn: func(i int) error {
		counts[i].Add(1)
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("index %d ran %d times", i, c)
		}
	}
}

func TestFlowSequentialBatches(t *testing.T) {
	fl, err := NewFlow(3)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	for batch := 0; batch < 3; batch++ {
		got, err := Map(fl, []int{10, 20, 30}, func(i int, v int) (int, error) {
			return v + batch, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []int{10 + batch, 20 + batch, 30 + batch}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("batch %d: got %v want %v", batch, got, want)
		}
	}
}

func TestFlowClosedExecutorErrors(t *testing.T) {
	fl, err := NewFlow(2)
	if err != nil {
		t.Fatal(err)
	}
	fl.Close()
	fl.Close() // idempotent
	if err := fl.Run(Batch{N: 3, Fn: func(int) error { return nil }}); err == nil {
		t.Error("Run on closed flow executor must fail")
	}
}

func TestResolve(t *testing.T) {
	if ex := Resolve(nil, 4); ex.Name() != "pool" {
		t.Errorf("Resolve(nil) = %s, want pool", ex.Name())
	}
	fl, err := NewFlow(1)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if ex := Resolve(fl, 4); ex != Executor(fl) {
		t.Error("Resolve must pass through a configured executor")
	}
	if (&Pool{}).Close() != nil {
		t.Error("pool Close must be a no-op")
	}
}
