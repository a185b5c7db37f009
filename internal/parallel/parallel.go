// Package parallel provides the deterministic parallel execution layer of
// the pipeline: a bounded worker pool whose results are collected by
// submission index, never by completion order.
//
// Determinism is the hard constraint of this repository — every table and
// figure must regenerate byte-identical numbers on every run — so the
// contract here is strict:
//
//   - fn(i, item) must be a pure function of its arguments (all compute
//     stages in this repo derive per-item randomness from stable keys, so
//     they qualify);
//   - results land in out[i] regardless of which worker finished first, so
//     a parallel run is indistinguishable from the serial loop;
//   - on error the pool cancels outstanding work and returns the error of
//     the *lowest* submission index that failed — exactly the error the
//     serial loop would have surfaced — not whichever failure happened to
//     complete first.
//
// Workers == 1 bypasses the pool entirely and runs the plain serial loop,
// which is what the parallel-vs-serial equivalence tests compare against.
//
// A pool worker claims a unit of consecutive indices at once — one index by
// default, `grain` of them through ForEachWorker — and runs the unit in
// index order on its own goroutine, so items that share state a worker can
// reuse (a target's models) reach it back to back at any width. The grain
// changes only which goroutine runs an index; the contract above is
// unchanged.
//
// This package is the pool back end of the Executor abstraction in
// internal/exec; the generic Map over items lives there (exec.Map), so
// the contract has a single implementation shared by every back end.
package parallel

import (
	"math"
	"runtime"
	"sync"
)

// Workers resolves a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0), and the count is clamped to n so tiny inputs do
// not spawn idle goroutines.
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(i) for i in [0, n) on up to `workers` goroutines
// (<= 0 means GOMAXPROCS). On failure it returns the error with the
// smallest index, matching serial semantics; items after a known failure
// are skipped cooperatively.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachWorker(workers, n, 1, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach with a claim unit and the executing worker's
// identity. The pool hands out units of `grain` consecutive indices (<= 1
// means one; the last unit may be short), each run in index order on one
// goroutine, and starts at most one goroutine per unit. fn receives
// (worker, i) where worker is the stable index of the pool goroutine
// running the item, in [0, Workers(workers, units)). The worker index
// exists for telemetry (task → worker placement in a recorded trace) and
// must never influence fn's result — the determinism contract is
// unchanged.
func ForEachWorker(workers, n, grain int, fn func(worker, i int) error) error {
	if n == 0 {
		return nil
	}
	unit := max(grain, 1)
	workers = Workers(workers, (n+unit-1)/unit)
	if workers == 1 {
		// Serial reference path: the behaviour every parallel run must
		// reproduce exactly.
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		mu      sync.Mutex
		firstBy = indexedError{index: math.MaxInt}
		next    int
	)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				// Claim the next unit and read the failure watermark in one
				// critical section. Cancellation is cooperative: items below
				// the first failing index still run, because the serial loop
				// would have run them too.
				mu.Lock()
				lo := next
				next += unit
				skip := firstBy.index < lo
				mu.Unlock()
				if lo >= n {
					return
				}
				if skip {
					continue
				}
				for i, hi := lo, min(lo+unit, n); i < hi; i++ {
					if err := fn(worker, i); err != nil {
						mu.Lock()
						if i < firstBy.index {
							firstBy = indexedError{index: i, err: err}
						}
						mu.Unlock()
						// The rest of the unit lies above a failure: the
						// serial loop would not have run it.
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if firstBy.index < math.MaxInt {
		return firstBy.err
	}
	return nil
}

type indexedError struct {
	index int
	err   error
}
