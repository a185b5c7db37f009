package exec

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

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
		got, err := Map(NewPool(workers), items, square)
		if err != nil {
			t.Fatalf("pool/%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pool/%d: results differ from serial reference", workers)
		}
	}
}

func TestLowestIndexErrorAcrossExecutors(t *testing.T) {
	items := make([]int, 50)
	_, err := Map(NewPool(4), items, func(i int, _ int) (int, error) {
		if i%13 == 7 { // fails at 7, 20, 33, 46 — serial surfaces 7
			return 0, fmt.Errorf("boom at %d", i)
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom at 7") {
		t.Errorf("error = %v, want lowest-index boom at 7", err)
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	ex := NewPool(3)
	if err := ex.Run(Batch{N: 0, Fn: func(int) error { return errors.New("never") }}); err != nil {
		t.Errorf("empty Run: %v", err)
	}
	var ran atomic.Int64
	if err := ex.Run(Batch{N: 1, Fn: func(i int) error { ran.Add(1); return nil }}); err != nil {
		t.Errorf("single Run: %v", err)
	}
	if ran.Load() != 1 {
		t.Errorf("single item ran %d times", ran.Load())
	}
}

func TestResolve(t *testing.T) {
	if p, ok := Resolve(nil, 4).(*Pool); !ok || p.Workers != 4 {
		t.Errorf("Resolve(nil, 4) = %#v, want a 4-worker pool", p)
	}
	pool := NewPool(2)
	if ex := Resolve(pool, 4); ex != Executor(pool) {
		t.Error("Resolve must pass through a configured executor")
	}
	if (&Pool{}).Close() != nil {
		t.Error("pool Close must be a no-op")
	}
}
