// Package flow is the workflow-management engine of the reproduction: a
// from-scratch dataflow task system with the same architecture the paper
// deploys Dask in (Section 3.3):
//
//   - a Scheduler holding a task queue, started first, which writes a JSON
//     scheduler file advertising its address;
//   - Workers (the paper runs one per GPU across all Summit nodes) that
//     read the scheduler file, register over TCP, and then pull tasks in
//     dataflow fashion — each worker receives a new task the moment it
//     finishes the previous one, so the queue drains with no global
//     synchronization;
//   - a Client that submits the whole batch in one Map call and streams
//     completion records carrying per-task statistics (the scheduler's
//     enqueue stamp, start and end processing times, worker identity) to
//     an observer — the feed the paper's processing-times CSV is written
//     from (exec.TaskStats);
//   - read-only Monitors that subscribe to the scheduler's structured
//     event stream (internal/events): the full backlog first, then live
//     task transitions and worker membership changes, so a monitor
//     attaching mid-campaign reconstructs queue depth and per-worker
//     in-flight work with no cooperation from the submitting client.
//
// Inside the scheduler one goroutine advances one dispatcher, a value
// with a method per input (register, heartbeat, result, submit, a peer
// gone, the heartbeat sweep) that reads no clock, touches no socket and
// starts no goroutine: each input brings its own time, which stamps
// every event the input emits — the hub reads no clock, so a run's stream
// has one clock and a virtual one drives it exactly — and what comes out
// are events on the hub and frames on the peers' outboxes. A peer's death
// reaches the dispatcher only through its connection's read pump: an
// outbox that cannot write, or that overflows, closes its connection, so
// the pump's next read fails and reports the peer gone. Every task
// belongs to a tenant — its campaign, or its submitter's connection when
// it names none — resolved once, on receipt; the tenant record holds the
// lane its tasks wait in, the count Scheduler.Quota bounds and the lane
// of tasks deferred beyond it, and is released when none is left. A lane
// is a FIFO ring; the queue round-robins over the lanes that hold tasks,
// and under PolicyFIFO all tenants share one.
//
// Every connection opens with a one-line hello naming the codec and the
// wire version ("flow-wire binary 5"), staged in the same flush as the
// first frame. The paper starts scheduler, workers and client from one
// software environment inside one batch job, and so does this tree: the
// protocol has exactly one version and one codec, a length-prefixed
// positional binary layout, a peer that offers anything else is refused
// before any frame is decoded, and every frame has exactly one shape.
// Task and result payloads are opaque bytes to the engine, carried
// verbatim; what they mean is between a submitter and the kernel it
// names (see JobSpec). Only the standard library is used.
package flow

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/events"
)

// Task is one unit of work. Payload is opaque to the engine. A task
// whose worker died goes out again exactly as it was submitted: the
// paper's high-memory rerun of out-of-memory targets is the campaign's
// own second wave (core.InferenceStage), not something the scheduler does.
type Task struct {
	ID string
	// Label is the stable, human-meaningful trace identity of the task (a
	// protein ID, a "target/m3" inference slot) — the same identity the
	// processing-times CSV keys its rows by. The engine schedules by ID
	// (unique per batch and client); the label only feeds the scheduler's
	// structured event stream, so a monitor and an event log name tasks
	// the way the submitting executor's trace does. Empty falls back to ID.
	Label string
	// Weight is used by scheduling policies (e.g. sequence length for the
	// paper's longest-first sort); the engine itself does not interpret it.
	Weight float64
	// Payload is opaque bytes to the engine (a spec-serving worker reads
	// a JobSpec envelope from it).
	Payload []byte
	// EnqueuedNS is stamped by the scheduler (unix nanoseconds) when the
	// task enters its queue and travels with the assignment so the worker
	// can echo it in the Result — the queue-time half of the paper's
	// per-task processing-times telemetry. Unix nanos rather than
	// time.Time: one varint on the wire, zero for an unstamped task (a
	// client's submit). Clients leave it zero.
	EnqueuedNS int64
	// Campaign is the multi-tenant namespace of the task — the submitting
	// campaign it belongs to, as on the paper's shared Summit scheduler
	// where many submitters coexist on one worker fleet. The fair-share
	// queue policy round-robins handout across campaigns, and admission
	// quotas are charged per campaign. Usually inherited from the submit
	// frame's Campaign; a task-level value wins.
	Campaign string
}

// Result is the completion record of one task, including the timing fields
// the paper's CSV collects: worker identity, the scheduler's enqueue
// stamp, and the handler's start/end bracket.
type Result struct {
	TaskID     string
	WorkerID   string
	EnqueuedNS int64
	Start      time.Time
	End        time.Time
	// Payload is the handler's result, opaque bytes like Task.Payload.
	Payload []byte
	Err     string
}

// Duration returns the task processing time.
func (r *Result) Duration() time.Duration { return r.End.Sub(r.Start) }

// EnqueuedAt returns the scheduler's enqueue stamp as a time (zero when
// the result never passed through a scheduler queue — a quarantine
// record).
func (r *Result) EnqueuedAt() time.Time {
	if r.EnqueuedNS == 0 {
		return time.Time{}
	}
	return time.Unix(0, r.EnqueuedNS)
}

// Failed reports whether the task handler returned an error.
func (r *Result) Failed() bool { return r.Err != "" }

// message is the wire envelope. Which fields a frame carries follows from
// its Type alone; changing the set, the order or the encoding of fields
// changes the bytes pinned under testdata/wire and needs a new
// wireVersion.
type message struct {
	Type string
	// register, heartbeat
	WorkerID string
	// submit (client → scheduler) and task (scheduler → worker): a handout
	// carries one or more tasks (Scheduler.Batch).
	Tasks []Task
	// result: a worker acks a handout with one frame holding a record per
	// task; the scheduler forwards each run of consecutive records owed to
	// the same client as one frame.
	Results []Result
	// event stream (scheduler → monitor)
	Event *events.Event
	// accepted: how many tasks of a submit frame were admitted
	Count int
	// Campaign, on a submit frame, names the campaign every task in the
	// frame belongs to (tasks carrying their own Campaign win).
	Campaign string
	// Gauges, on a heartbeat frame, carries the worker's runtime snapshot
	// so the scheduler can expose per-worker occupancy.
	Gauges *WorkerGauges
}

// WorkerGauges is the worker-side runtime snapshot a heartbeat carries:
// cheap process-level gauges sampled once per beat (runtime/metrics — no
// stop-the-world), plus the worker's cumulative task work, from which the
// scheduler derives per-worker occupancy the way the paper's Fig 2 plots it.
type WorkerGauges struct {
	// Goroutines is runtime.NumGoroutine at sampling time.
	Goroutines int
	// HeapBytes is the live heap (bytes of allocated, reachable objects).
	HeapBytes uint64
	// TasksExecuted is the cumulative count of handler invocations.
	TasksExecuted uint64
	// BusyNS is cumulative nanoseconds spent inside task handlers; the
	// delta between two beats over the beat interval is occupancy.
	BusyNS int64
}

const (
	msgRegister = "register"
	msgTask     = "task"
	msgResult   = "result"
	msgSubmit   = "submit"
	msgAccepted = "accepted"
	// msgSubscribe turns a connection into a read-only monitor: the
	// scheduler replies with its full event backlog followed by the live
	// stream, one msgEvent frame per events.Event.
	msgSubscribe = "subscribe"
	msgEvent     = "event"
	// msgHeartbeat is a worker→scheduler liveness beacon carrying the
	// worker ID and its gauges, sent on an interval from a dedicated
	// goroutine so a long-running handler keeps the worker alive. A worker
	// silent past the scheduler's heartbeat deadline is declared dead
	// (worker_lost) and its in-flight tasks requeued.
	msgHeartbeat = "heartbeat"
)

// SchedulerFile is the JSON document the scheduler writes so workers and
// clients can find it, mirroring Dask's scheduler-file mechanism on Summit.
type SchedulerFile struct {
	Address   string    `json:"address"`
	StartedAt time.Time `json:"started_at"`
	// HTTP is the admin endpoint (/metrics, /healthz, /debug/pprof/) when
	// the scheduler serves one (`sched -http`); empty otherwise.
	HTTP string `json:"http,omitempty"`
}

// ParseSchedulerFile decodes a scheduler-file document and validates that
// it advertises an address. Workers and clients use it to locate a
// standalone scheduler (`proteomectl sched -scheduler-file`).
func ParseSchedulerFile(data []byte) (SchedulerFile, error) {
	var sf SchedulerFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return SchedulerFile{}, fmt.Errorf("flow: parsing scheduler file: %w", err)
	}
	if sf.Address == "" {
		return SchedulerFile{}, fmt.Errorf("flow: scheduler file advertises no address")
	}
	return sf, nil
}
