package exec

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/parallel"
)

// Pool is the in-process Executor: a thin adapter over the bounded,
// deterministic worker pool in internal/parallel. The zero value runs at
// GOMAXPROCS; Workers == 1 is the serial reference path the determinism
// tests compare every other executor against.
//
// A Pool runs one batch at a time, as Flow does: concurrent Runs queue on
// its mutex, so Workers bounds every item in flight across all callers
// sharing the pool, and a traced worker ID ("pool-wNNN") never runs two
// items at once. Callers that share a pool overlap only their own serial
// work with another caller's batch.
type Pool struct {
	// Workers bounds the pool (<= 0 selects GOMAXPROCS).
	Workers int

	// mu serializes batches.
	mu sync.Mutex

	// trace, when set, receives one TaskStats per executed item: the pool
	// workers stamp enqueue (batch submission), start, and finish times
	// around the closure. PayloadBytes is always 0 — nothing crosses a
	// wire in-process.
	trace *Trace
}

// NewPool returns a pool executor bounded at workers.
func NewPool(workers int) *Pool { return &Pool{Workers: workers} }

// SetTrace installs the trace every subsequent batch records into (nil
// disables tracing). Set it before the batches it should observe.
func (p *Pool) SetTrace(trace *Trace) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.trace = trace
}

// Run implements Executor by delegating to the parallel pool, which claims
// b.Grain consecutive items at a time, collects by submission index and
// surfaces the lowest-index error. It waits for any batch already running
// on the pool. With a trace attached, each pool worker stamps its items'
// timings and identity; the batch's enqueue time is taken once the batch
// holds the pool, so queue wait is time behind the batch's own items.
func (p *Pool) Run(b Batch) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.trace == nil {
		fn := b.Fn // b escapes through the traced closure below; fn does not
		return parallel.ForEachWorker(p.Workers, b.N, b.Grain, func(_, i int) error { return fn(i) })
	}
	sink := p.trace
	enqueue := time.Now()
	return parallel.ForEachWorker(p.Workers, b.N, b.Grain, func(worker, i int) error {
		start := time.Now()
		err := b.Fn(i)
		stats := TaskStats{
			TaskID:   b.taskID(i),
			Kernel:   b.Kernel,
			WorkerID: fmt.Sprintf("pool-w%03d", worker),
			Enqueue:  enqueue,
			Start:    start,
			Finish:   time.Now(),
		}
		if err != nil {
			stats.Err = err.Error()
		}
		sink.Record(stats)
		return err
	})
}

// Close implements Executor; the pool holds no persistent resources.
func (p *Pool) Close() error { return nil }
