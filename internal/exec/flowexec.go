package exec

import (
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flow"
)

// Flow is the dataflow-backed Executor: a private flow cluster (one
// Scheduler, W Workers, one Client) over loopback TCP. Every batch is
// serialized through the scheduler/worker/client protocol — each index
// becomes one flow.Task, workers pull tasks in dataflow fashion, and the
// closure runs in-process on the worker's goroutine, so campaign results
// are written into the caller's slices exactly as the pool executor would.
//
// Completion order is whatever the network delivers, but nothing
// observable depends on it: results are keyed by index and errors are
// reduced to the lowest index, so a flow run at any worker count is
// byte-identical to the pool and to the serial loop.
type Flow struct {
	sched   *flow.Scheduler
	workers []*flow.Worker
	client  *flow.Client

	// remote marks a client-only executor connected to a standalone
	// scheduler whose workers live in other OS processes. A remote
	// executor cannot run closures — work reaches it only as registered
	// named-job specs via DispatchSpecs.
	remote bool

	// specNonce makes this client's spec-task IDs globally unique on a
	// shared scheduler: several submit clients may drive one standalone
	// scheduler concurrently, and the scheduler tracks in-flight work by
	// task ID, so bare batch indices from two clients would collide.
	// specSeq distinguishes successive batches (guarded by mu).
	specNonce string
	specSeq   uint64

	// mu serializes batches: the worker handler resolves tasks against the
	// single current batch.
	mu    sync.Mutex
	batch atomic.Pointer[flowBatch]

	// trace, when set, receives one TaskStats per completed flow task:
	// worker identity and timings come back over the wire in each
	// flow.Result (the scheduler stamps the enqueue, the worker brackets
	// the handler), and PayloadBytes measures the encoded result payload.
	trace TraceSink

	// campaign is the multi-tenant namespace every submission travels
	// under (SetCampaign); it rides the submit frame and is echoed into
	// each TaskStats row.
	campaign string

	closeOnce sync.Once
}

// flowBatch is the state of one in-flight Run call. bmu orders every
// handler's bookkeeping before the caller's final read, which also makes
// the closure's writes (out[i] in Map) visible to the caller.
type flowBatch struct {
	fn  func(i int) error
	bmu sync.Mutex
	// ran guards against a task being delivered twice (the scheduler
	// requeues on worker disconnect); in-process workers never disconnect,
	// but the contract of fn is exactly-once per index.
	ran  []bool
	errs []error
}

// NewFlow starts a loopback flow cluster with the given number of workers
// (<= 0 selects GOMAXPROCS). The returned executor must be closed.
func NewFlow(workers int) (*Flow, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	f := &Flow{sched: flow.NewScheduler(), specNonce: specBatchNonce()}
	addr, err := f.sched.Start("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("exec: flow scheduler: %w", err)
	}
	for i := 0; i < workers; i++ {
		w := flow.NewWorker(fmt.Sprintf("exec-w%03d", i), f.handle)
		if err := w.Connect(addr); err != nil {
			f.Close()
			return nil, fmt.Errorf("exec: flow worker %d: %w", i, err)
		}
		f.workers = append(f.workers, w)
	}
	c, err := flow.ConnectClient(addr)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("exec: flow client: %w", err)
	}
	// The progress deadline exists to fail fast against a wedged remote
	// scheduler. Here scheduler, workers, and client share one process —
	// a wedge is a bug the flow tests catch — while a single work item
	// (a heavy stage under -race, a large simulated wave) can legitimately
	// outlast any fixed deadline, which would hard-fail a healthy run the
	// pool executor completes. Disable it for the in-process cluster.
	c.ResultTimeout = 0
	f.client = c
	return f, nil
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
	return &Flow{client: c, remote: true, specNonce: specBatchNonce()}, nil
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

// Name implements Executor.
func (f *Flow) Name() string {
	if f.remote {
		return "flow-remote"
	}
	return "flow"
}

// SetTrace implements Traceable. Set it before the batches it should
// observe; the sink must be safe for concurrent use.
func (f *Flow) SetTrace(sink TraceSink) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.trace = sink
}

// recordResult converts one flow completion record into a TaskStats row.
// id is the stable trace identity of the item (the wire task ID is a
// batch-internal index and never surfaces in the trace).
func recordResult(sink TraceSink, kernel, id, campaign string, r *flow.Result) {
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

// SpecsOnly implements SpecDispatcher: only the remote executor is
// restricted to specs; the in-process cluster still runs closures.
func (f *Flow) SpecsOnly() bool { return f.remote }

// DispatchSpecs implements SpecDispatcher: one flow task per argument
// block, each carrying a flow.JobSpec envelope, submitted as a single batch
// through the client. Workers resolve the kernel name against their local
// registry (flow.Register). Results arrive in completion order and are
// re-keyed by task index, so the caller observes argument order; task
// failures reduce to the lowest-index error — the same contract as
// closure batches. With a trace attached, every completion record becomes
// a TaskStats row (named by ids[i] when given) as it streams in, wire
// bytes included — the statsCSV plumbing the paper's processing-times
// file needs, finally end-to-end across real processes.
func (f *Flow) DispatchSpecs(kernel string, args [][]byte, ids []string) ([][]byte, error) {
	if len(args) == 0 {
		return nil, nil
	}
	if ids != nil && len(ids) != len(args) {
		return nil, fmt.Errorf("exec: %s batch has %d ids for %d args", kernel, len(ids), len(args))
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
	tasks := make([]flow.Task, len(args))
	for i, a := range args {
		payload, err := flow.EncodeSpec(flow.JobSpec{Kernel: kernel, Args: a})
		if err != nil {
			return nil, fmt.Errorf("exec: encoding %s spec [%d]: %w", kernel, i, err)
		}
		tasks[i] = flow.Task{ID: prefix + strconv.Itoa(i), Payload: payload}
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
				if idx, err := strconv.Atoi(suffix); err == nil && idx >= 0 && idx < len(args) {
					recordResult(sink, kernel, traceID(idx), campaign, r)
				}
			}
		}
	}
	results, err := f.client.Map(tasks, observe)
	if err != nil {
		return nil, fmt.Errorf("exec: dispatching %s batch: %w", kernel, err)
	}
	out := make([][]byte, len(args))
	errIdx, errMsg := -1, ""
	for i := range results {
		r := &results[i]
		suffix, ok := strings.CutPrefix(r.TaskID, prefix)
		if !ok {
			return nil, fmt.Errorf("exec: stray result %q in %s batch", r.TaskID, kernel)
		}
		idx, err := strconv.Atoi(suffix)
		if err != nil || idx < 0 || idx >= len(args) {
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

// handle is the shared worker handler: spec-carrying tasks dispatch
// against the process-wide kernel registry (so the in-process cluster can
// also serve DispatchSpecs batches); plain tasks map the task ID back to
// the batch index and run the batch closure on the worker's goroutine.
func (f *Flow) handle(t flow.Task) (json.RawMessage, error) {
	if len(t.Payload) > 0 {
		return flow.RunSpec(t.Payload)
	}
	b := f.batch.Load()
	i, err := strconv.Atoi(t.ID)
	if b == nil || err != nil || i < 0 || i >= len(b.errs) {
		return nil, fmt.Errorf("exec: stray flow task %q", t.ID)
	}
	b.bmu.Lock()
	if b.ran[i] {
		b.bmu.Unlock()
		return nil, nil
	}
	b.ran[i] = true
	b.bmu.Unlock()

	ferr := b.fn(i)

	b.bmu.Lock()
	b.errs[i] = ferr
	b.bmu.Unlock()
	if ferr != nil {
		return nil, ferr
	}
	return nil, nil
}

// Run implements Executor: one flow task per index, submitted as a
// single batch through the client's Map. Unlike the pool's cooperative
// cancellation, every index runs even after a failure — fn is pure, so the
// only observable effect is identical: the lowest-index error.
//
// Batches serialize on the executor: fn must not call back into the same
// executor (the pipeline's stages fan out one batch at a time, never
// nested, so all call sites satisfy this).
func (f *Flow) Run(batch Batch) error {
	n := batch.N
	if n == 0 {
		return nil
	}
	if f.remote {
		return fmt.Errorf("exec: remote flow executor cannot run closures across process boundaries; dispatch registered job specs instead (exec.MapSpecResume)")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.client == nil {
		return fmt.Errorf("exec: flow executor is closed")
	}

	b := &flowBatch{fn: batch.Fn, ran: make([]bool, n), errs: make([]error, n)}
	f.batch.Store(b)
	defer f.batch.Store(nil)

	tasks := make([]flow.Task, n)
	for i := range tasks {
		tasks[i] = flow.Task{ID: strconv.Itoa(i)}
		// Tag the wire task with its trace identity when the batch has
		// one; unlabeled batches fall back to the wire ID (the decimal
		// index), which is already the trace fallback.
		if batch.TaskID != nil {
			tasks[i].Label = batch.TaskID(i)
		}
	}
	var observe func(*flow.Result)
	if sink := f.trace; sink != nil {
		campaign := f.campaign
		observe = func(r *flow.Result) {
			if i, err := strconv.Atoi(r.TaskID); err == nil && i >= 0 && i < n {
				recordResult(sink, batch.Kernel, batch.taskID(i), campaign, r)
			}
		}
	}
	results, err := f.client.Map(tasks, observe)
	if err != nil {
		return fmt.Errorf("exec: flow batch: %w", err)
	}
	if len(results) != n {
		return fmt.Errorf("exec: flow batch returned %d/%d results", len(results), n)
	}

	// Client.Map returned only after every worker finished, and each
	// handler's errs write is ordered before this lock — so the batch (and
	// everything fn wrote) is fully visible here.
	b.bmu.Lock()
	defer b.bmu.Unlock()
	for _, e := range b.errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// Close tears down the client, workers, and scheduler. It waits for any
// in-flight batch to drain first (batches and Close serialize on the same
// lock).
func (f *Flow) Close() error {
	f.closeOnce.Do(func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.client != nil {
			f.client.Close()
		}
		for _, w := range f.workers {
			w.Close()
		}
		if f.sched != nil {
			f.sched.Close()
		}
		f.client = nil
	})
	return nil
}
