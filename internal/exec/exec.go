// Package exec unifies the repository's two execution back ends behind one
// Executor abstraction: Pool, the bounded in-process worker pool of
// internal/parallel, which runs closures; and Flow, a client of a
// standalone internal/flow scheduler (Connect) whose workers live in other
// processes, which dispatches registered named-job specs.
//
// Every compute stage of the pipeline — feature generation, the
// (target x model) inference fan-out, the high-memory retry wave,
// relaxation and annotation — fans out through an Executor. The campaign
// stages go through MapSpecResume, so the same campaign runs on the host
// pool or across the scheduler/worker/client processes the paper deploys
// Dask as, with byte-identical results.
//
// The determinism contract is the one internal/parallel established:
//
//   - fn(i, item) must be a pure function of its arguments;
//   - results land in out[i] regardless of which worker finished first, so
//     any executor at any worker count is indistinguishable from the
//     serial loop;
//   - on failure the error of the lowest submission index is returned —
//     exactly what the serial loop would have surfaced.
//
// Alongside the results, every executor can record per-task telemetry: a
// TaskStats record ({task, kernel, worker placement, enqueue/start/finish,
// payload bytes}) per executed item, recorded into a Trace
// (Pool.SetTrace, Flow.SetTrace). The trace is the paper's processing-times
// file — an observation channel only, never an input: reports are
// byte-identical with tracing on or off, which
// TestTable1ParallelMatchesSerial in internal/experiments and the
// `submit -stats` runs of the cmd/proteomectl e2e suite
// (TestCampaignDefaultFlags, TestMonitorMidCampaign) enforce end
// to end.
package exec

import (
	"fmt"
	"strconv"

	"repro/internal/flow"
)

// Batch describes one fan-out: the item count and closure, plus the trace
// identity of the work. Kernel and TaskID only label the recorded
// TaskStats; they never influence execution.
type Batch struct {
	// N is the number of independent work items.
	N int
	// Fn runs item i. It must be safe for concurrent invocation on
	// distinct indices and a pure function of i.
	Fn func(i int) error
	// Kernel tags the batch in a recorded trace ("" = untagged).
	Kernel string
	// TaskID returns the stable trace identity of item i; nil falls back
	// to the decimal index.
	TaskID func(i int) string
	// Grain is the number of consecutive items the pool claims together
	// and runs back to back on one of its goroutines (<= 1 means one at a
	// time). A stage sets it from its own item layout, so items that share
	// work a worker can reuse — the five models of a target — sit in one
	// unit. It never changes results; spec dispatch ignores it.
	Grain int
}

// taskID resolves the trace identity of item i: the TaskID func's name,
// falling back to the decimal index when the func is nil or returns "" —
// the same fallback the spec-dispatch path applies, so every back end
// keys identical work identically in the trace.
func (b *Batch) taskID(i int) string {
	if b.TaskID != nil {
		if id := b.TaskID(i); id != "" {
			return id
		}
	}
	return strconv.Itoa(i)
}

// Executor runs batches of independent work items with the package-level
// determinism contract. Implementations decide where the work runs
// (in-process pool, flow workers); callers decide what runs.
//
// Both back ends run one batch at a time (Pool.Run, Flow.DispatchSpecs):
// batches may be submitted from several goroutines, and each waits for the
// batch ahead of it. So an item must never submit a batch to the executor
// running it — that batch waits for its own parent and deadlocks. No
// stage does; a nested fan-out needs an executor of its own.
type Executor interface {
	// Run executes b.Fn(i) for i in [0, b.N). On failure the lowest-index
	// error is returned and the output of other indices must be
	// discarded. When a Trace is attached, Run records one TaskStats
	// per executed item.
	Run(b Batch) error
	// Close releases executor resources (workers, connections). Close is
	// idempotent; the zero-cost executors treat it as a no-op.
	Close() error
}

// Map applies fn to every element of items through the executor and
// returns the results in submission order — the generic entry point every
// compute stage uses, independent of the back end.
func Map[T, R any](ex Executor, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	return mapBatch(ex, Batch{}, items, fn)
}

// mapBatch is Map with explicit trace tags; b.N and b.Fn are filled here.
func mapBatch[T, R any](ex Executor, b Batch, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	b.N = len(items)
	b.Fn = func(i int) error {
		r, err := fn(i, items[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	}
	if err := ex.Run(b); err != nil {
		return nil, err
	}
	return out, nil
}

// SpecDispatcher is the Executor extension for multi-process deployments:
// back ends whose workers live in other OS processes cannot receive
// closures, so work is shipped as registered named-job specs
// (flow.JobSpec) instead — a kernel name resolved against the worker's
// registry plus the kernel's encoded arguments. Implementing it means
// specs only: MapSpecResume never hands a SpecDispatcher a closure.
type SpecDispatcher interface {
	Executor
	// DispatchSpecs runs each spec envelope (flow.EncodeSpec of the named
	// kernel) once and returns the result payloads in spec order. On
	// failure the error of the lowest spec index is returned. ids, when
	// non-nil, names each spec in the recorded trace (ids[i] for
	// specs[i]); nil falls back to decimal indices.
	DispatchSpecs(kernel string, specs [][]byte, ids []string) ([][]byte, error)
}

// SpecResult constrains the result type R of a stage that can run
// remotely: *R decodes the kernel's result payload, the inverse of the
// kernel's encoding of the same value.
type SpecResult[R any] interface {
	*R
	UnmarshalBinary(data []byte) error
}

// MapSpecResume is Map for stages that can also run remotely: each item
// carries both a closure (fn) and a serializable spec (the registered
// kernel plus per-item args built by arg). An executor that is not a
// SpecDispatcher runs fn exactly as Map does; a SpecDispatcher never calls
// fn: it wraps arg(i, item)'s binary layout in the kernel's spec envelope,
// dispatches the envelopes to remote workers, and decodes each result
// payload into R through *R's UnmarshalBinary. The registered kernel must
// be the same pure function of its arguments as fn, so both paths produce
// identical values — the cross-process determinism contract
// TestCampaignMultiProcess enforces end to end.
//
// id(i, item), when non-nil, names item i in the recorded trace on both
// paths — the task_id column of the processing-times CSV.
//
// grain is the closure path's Batch.Grain; spec dispatch ignores it, so no
// wire byte depends on it.
//
// done, when non-nil, holds the results of an interrupted prior run:
// spec envelope to result payload, as events.CompletedFromLog reads them
// from a scheduler event log. An item whose envelope is in done is decoded
// from the logged result exactly as a dispatched result would be, and is
// neither dispatched nor computed; the cluster and the recorded trace only
// see the remaining items. The closure path runs every item anyway, so
// done is ignored there. An empty result payload is a decode error, never
// a zero value: no campaign kernel encodes a result as nothing.
func MapSpecResume[T any, A flow.BinaryAppender, R any, PR SpecResult[R]](ex Executor, kernel string, grain int, items []T, id func(i int, item T) string, arg func(i int, item T) A, fn func(i int, item T) (R, error), done map[string][]byte) ([]R, error) {
	sd, ok := ex.(SpecDispatcher)
	if !ok {
		b := Batch{Kernel: kernel, Grain: grain}
		if id != nil {
			b.TaskID = func(i int) string { return id(i, items[i]) }
		}
		return mapBatch(ex, b, items, fn)
	}
	out := make([]R, len(items))
	decode := func(i int, raw []byte) error {
		if len(raw) == 0 {
			return fmt.Errorf("exec: decoding %s result [%d]: empty payload", kernel, i)
		}
		if err := PR(&out[i]).UnmarshalBinary(raw); err != nil {
			return fmt.Errorf("exec: decoding %s result [%d]: %w", kernel, i, err)
		}
		return nil
	}
	pending := make([]int, 0, len(items))
	specs := make([][]byte, 0, len(items))
	var ids []string
	if id != nil {
		ids = make([]string, 0, len(items))
	}
	var args []byte
	for i, item := range items {
		var err error
		if args, err = arg(i, item).AppendBinary(args[:0]); err != nil {
			return nil, fmt.Errorf("exec: encoding %s args [%d]: %w", kernel, i, err)
		}
		spec, err := flow.EncodeSpec(flow.JobSpec{Kernel: kernel, Args: args})
		if err != nil {
			return nil, fmt.Errorf("exec: encoding %s spec [%d]: %w", kernel, i, err)
		}
		if raw, ok := done[string(spec)]; ok {
			if err := decode(i, raw); err != nil {
				return nil, fmt.Errorf("%w (result read from the resume log)", err)
			}
			continue
		}
		pending = append(pending, i)
		specs = append(specs, spec)
		if id != nil {
			ids = append(ids, id(i, item))
		}
	}
	if len(pending) == 0 {
		return out, nil
	}
	payloads, err := sd.DispatchSpecs(kernel, specs, ids)
	if err != nil {
		return nil, err
	}
	if len(payloads) != len(pending) {
		return nil, fmt.Errorf("exec: %s returned %d/%d results", kernel, len(payloads), len(pending))
	}
	for k, raw := range payloads {
		if err := decode(pending[k], raw); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Resolve returns ex when one was configured, else the default in-process
// pool bounded at `workers` (<= 0 selects GOMAXPROCS, 1 forces the serial
// reference path). Stages call this so an unset Executor preserves the
// pre-Executor Parallelism behaviour exactly.
func Resolve(ex Executor, workers int) Executor {
	if ex != nil {
		return ex
	}
	return &Pool{Workers: workers}
}
