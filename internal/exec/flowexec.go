package exec

import (
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/flow"
)

// Flow is the remote Executor: a client dialed into a standalone flow
// scheduler (`proteomectl sched`) whose workers run in other OS processes,
// possibly on other hosts. Closures cannot cross process boundaries, so
// work reaches it only as registered named-job specs (DispatchSpecs, via
// MapSpecResume); Run refuses closure batches.
//
// Completion order is whatever the network delivers, but nothing
// observable depends on it: results are keyed by index and errors are
// reduced to the lowest index, so a remote run at any worker count is
// byte-identical to the pool and to the serial loop.
type Flow struct {
	client *flow.Client

	// specNonce makes this client's spec-task IDs globally unique on a
	// shared scheduler: several submit clients may drive one standalone
	// scheduler concurrently, and the scheduler tracks in-flight work by
	// task ID, so bare batch indices from two clients would collide.
	// specSeq distinguishes successive batches (guarded by mu).
	specNonce string
	specSeq   uint64

	// mu serializes batches, configuration and Close.
	mu sync.Mutex

	// trace, when set, receives one TaskStats per completed flow task:
	// worker identity and timings come back over the wire in each
	// flow.Result (the scheduler stamps the enqueue, the worker brackets
	// the handler), and PayloadBytes measures the encoded result payload.
	trace *Trace

	// campaign is the multi-tenant namespace every submission travels
	// under (SetCampaign); it rides the submit frame and is echoed into
	// each TaskStats row.
	campaign string

	closeOnce sync.Once
}

// Connect returns a remote flow executor: a client dialed into a
// standalone scheduler (started with `proteomectl sched`) whose workers
// run in other processes, possibly on other hosts. The options carry the
// whole connection story — address or scheduler file, retry budget, and
// wire codec — so every deployment shape goes through this one door. The
// returned executor dispatches registered named-job specs only (see
// MapSpecResume); running a closure batch fails, because closures cannot cross
// process boundaries. The executor must be closed.
func Connect(opts flow.DialOptions) (*Flow, error) {
	c, err := flow.DialClient(opts)
	if err != nil {
		return nil, fmt.Errorf("exec: flow connect: %w", err)
	}
	return &Flow{client: c, specNonce: specBatchNonce()}, nil
}

// SetResultTimeout adjusts the client's per-result progress deadline: the
// longest a spec batch waits between consecutive scheduler messages
// before failing. Zero disables it. Remote deployments whose individual
// kernels legitimately run long (heavy species, few workers,
// race-instrumented binaries) raise or disable it; the default is
// flow.DefaultResultTimeout.
func (f *Flow) SetResultTimeout(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.client != nil {
		f.client.ResultTimeout = d
	}
}

// SetCampaign names the multi-tenant namespace every subsequent batch is
// submitted under: it travels on the submit frame, the scheduler's
// fair-share policy and admission quotas key on it, and each TaskStats
// row records it. Empty (the default) keeps the wire byte-identical to a
// single-tenant client. Set it before the batches it should cover.
func (f *Flow) SetCampaign(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.campaign = name
	if f.client != nil {
		f.client.Campaign = name
	}
}

// specBatchNonce returns the per-client random prefix of spec-task IDs.
func specBatchNonce() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return strconv.FormatInt(time.Now().UnixNano(), 16)
	}
	return hex.EncodeToString(b[:])
}

// SetTrace installs the trace every subsequent batch records into (nil
// disables tracing). Set it before the batches it should observe.
func (f *Flow) SetTrace(trace *Trace) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.trace = trace
}

// recordResult converts one flow completion record into a TaskStats row.
// id is the stable trace identity of the item (the wire task ID is a
// batch-internal index and never surfaces in the trace).
func recordResult(sink *Trace, kernel, id, campaign string, r *flow.Result) {
	sink.Record(TaskStats{
		TaskID:       id,
		Kernel:       kernel,
		WorkerID:     r.WorkerID,
		Enqueue:      r.EnqueuedAt(),
		Start:        r.Start,
		Finish:       r.End,
		PayloadBytes: len(r.Payload),
		Err:          r.Err,
		Campaign:     campaign,
	})
}

// DispatchSpecs implements SpecDispatcher: one flow task per spec
// envelope, submitted as a single batch through the client. Workers
// resolve the kernel name against their local registry (flow.Register).
// Results arrive in completion order and are re-keyed by task index, so
// the caller observes spec order; task failures reduce to the
// lowest-index error — the same contract as closure batches. With a trace
// attached, every completion record becomes a TaskStats row (named by
// ids[i] when given) as it streams in, wire bytes included — the
// statsCSV plumbing the paper's processing-times file needs, finally
// end-to-end across real processes.
func (f *Flow) DispatchSpecs(kernel string, specs [][]byte, ids []string) ([][]byte, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	if ids != nil && len(ids) != len(specs) {
		return nil, fmt.Errorf("exec: %s batch has %d ids for %d specs", kernel, len(ids), len(specs))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.client == nil {
		return nil, fmt.Errorf("exec: flow executor is closed")
	}
	// Task IDs are namespaced per client and batch ("nonce.seq.index"):
	// several submit clients may share one standalone scheduler, which
	// tracks in-flight work by task ID, so bare indices would collide
	// across clients and cross-deliver results.
	f.specSeq++
	prefix := f.specNonce + "." + strconv.FormatUint(f.specSeq, 10) + "."
	tasks := make([]flow.Task, len(specs))
	for i, spec := range specs {
		tasks[i] = flow.Task{ID: prefix + strconv.Itoa(i), Payload: spec}
	}
	traceID := func(idx int) string {
		if ids != nil && ids[idx] != "" {
			return ids[idx]
		}
		return strconv.Itoa(idx)
	}
	// The trace tag travels as the wire task's label, so the scheduler's
	// structured event stream (and a live monitor) names tasks exactly as
	// the processing-times CSV does — the wire ID is batch bookkeeping.
	for i := range tasks {
		tasks[i].Label = traceID(i)
	}
	var observe func(*flow.Result)
	if sink := f.trace; sink != nil {
		campaign := f.campaign
		observe = func(r *flow.Result) {
			if suffix, ok := strings.CutPrefix(r.TaskID, prefix); ok {
				if idx, err := strconv.Atoi(suffix); err == nil && idx >= 0 && idx < len(specs) {
					recordResult(sink, kernel, traceID(idx), campaign, r)
				}
			}
		}
	}
	results, err := f.client.Map(tasks, observe)
	if err != nil {
		return nil, fmt.Errorf("exec: dispatching %s batch: %w", kernel, err)
	}
	out := make([][]byte, len(specs))
	errIdx, errMsg := -1, ""
	for i := range results {
		r := &results[i]
		suffix, ok := strings.CutPrefix(r.TaskID, prefix)
		if !ok {
			return nil, fmt.Errorf("exec: stray result %q in %s batch", r.TaskID, kernel)
		}
		idx, err := strconv.Atoi(suffix)
		if err != nil || idx < 0 || idx >= len(specs) {
			return nil, fmt.Errorf("exec: stray result %q in %s batch", r.TaskID, kernel)
		}
		if r.Failed() {
			if errIdx == -1 || idx < errIdx {
				errIdx, errMsg = idx, r.Err
			}
			continue
		}
		out[idx] = r.Payload
	}
	if errIdx >= 0 {
		return nil, fmt.Errorf("exec: %s [%d]: %s", kernel, errIdx, errMsg)
	}
	return out, nil
}

// Run implements Executor by refusing: closures cannot cross process
// boundaries, so a non-empty batch fails. Stages that run remotely go
// through MapSpecResume, which dispatches specs instead.
func (f *Flow) Run(batch Batch) error {
	if batch.N == 0 {
		return nil
	}
	return fmt.Errorf("exec: remote flow executor cannot run closures across process boundaries; dispatch registered job specs instead (exec.MapSpecResume)")
}

// Close closes the client connection. It waits for any in-flight batch to
// drain first (batches and Close serialize on the same lock).
func (f *Flow) Close() error {
	f.closeOnce.Do(func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.client.Close()
		f.client = nil
	})
	return nil
}
