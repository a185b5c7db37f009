// Package events is the scheduler's structured observability subsystem:
// a typed per-task state-machine event record (the transition log Dask's
// scheduler keeps), stamped scheduler-side with monotonic times, fanned
// out to sinks (the JSONL event log, the live metrics) and to live
// subscribers (the `proteomectl monitor` wire stream).
//
// The task state machine is
//
//	received → queued → assigned → running → done | failed
//
// with two re-entries: a task whose worker dies is queued again, and a
// task whose client disconnects before assignment is dropped. Worker
// membership changes are events too (worker_join / worker_leave), so a
// log alone reconstructs queue depth over time and per-worker busy
// intervals without any client cooperation.
//
// One reducer, Fold, interprets that machine; every view of the stream —
// `proteomectl monitor` and `top` live, flow.SchedulerMetrics on
// /metrics, ReplayEvents offline — is a projection of it, so they cannot
// disagree about what an event means.
//
// Events are an observation channel only, never an input: nothing in a
// campaign report depends on them, and emitting, logging, or streaming
// them must never change a result byte.
package events

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Type is the kind of one scheduler event.
type Type string

// Task-transition and worker-membership event types. The task types
// follow the scheduler's state machine in order; worker types bracket a
// worker's registration lifetime.
const (
	// TaskReceived: the scheduler accepted the task from a client.
	TaskReceived Type = "received"
	// TaskQueued: the task entered the queue (immediately after received,
	// and again when a dead worker's in-flight task is requeued).
	TaskQueued Type = "queued"
	// TaskAssigned: the scheduler picked a worker for the task.
	TaskAssigned Type = "assigned"
	// TaskRunning: the task was delivered and is running on the worker
	// (workers are single-slot and start the handler on receipt).
	TaskRunning Type = "running"
	// TaskDone: the worker returned a successful result.
	TaskDone Type = "done"
	// TaskFailed: the worker returned a task error.
	TaskFailed Type = "failed"
	// TaskDropped: the task was discarded before assignment (its client
	// disconnected).
	TaskDropped Type = "dropped"
	// TaskQuarantined: the task exhausted its retry budget (every attempt
	// ended with its worker dying mid-task) and was removed from
	// scheduling. Always immediately preceded by the terminal failed event
	// carrying the attempt history.
	TaskQuarantined Type = "quarantined"
	// WorkerJoin: a worker registered.
	WorkerJoin Type = "worker_join"
	// WorkerLeave: a worker disconnected (or failed a task send).
	WorkerLeave Type = "worker_leave"
	// WorkerLost: the scheduler declared a still-connected worker dead
	// because it fell silent past the heartbeat deadline (wedged process,
	// dead network path). Its in-flight task is requeued like worker_leave.
	WorkerLost Type = "worker_lost"
	// Truncated: a marker synthesized for a subscriber whose cursor points
	// before the oldest event retained by a bounded hub backlog; Err says
	// how many events were evicted. It is never emitted into a persisted
	// log — only cursors observe it.
	Truncated Type = "truncated"
)

// TaskTypes lists the task-scoped event types, in state-machine order.
var TaskTypes = []Type{
	TaskReceived, TaskQueued, TaskAssigned, TaskRunning,
	TaskDone, TaskFailed, TaskDropped, TaskQuarantined,
}

// Valid reports whether t is a known event type.
func (t Type) Valid() bool {
	switch t {
	case TaskReceived, TaskQueued, TaskAssigned, TaskRunning,
		TaskDone, TaskFailed, TaskDropped, TaskQuarantined,
		WorkerJoin, WorkerLeave, WorkerLost, Truncated:
		return true
	}
	return false
}

// TaskScoped reports whether events of this type must name a task.
func (t Type) TaskScoped() bool {
	switch t {
	case TaskReceived, TaskQueued, TaskAssigned, TaskRunning,
		TaskDone, TaskFailed, TaskDropped, TaskQuarantined:
		return true
	}
	return false
}

// Event is one scheduler-side state transition. Seq and TimeNS are
// stamped by the Hub: Seq is the 1-based position in the stream and
// TimeNS the monotonic nanoseconds since the hub (scheduler) started, so
// an event log replays identically regardless of wall-clock adjustments.
type Event struct {
	Seq    uint64 `json:"seq"`
	TimeNS int64  `json:"t_ns"`
	Type   Type   `json:"type"`
	// Task is the stable trace identity of the task (flow.Task.Label when
	// the submitting executor tagged it, else the wire task ID) — the same
	// identity the processing-times CSV keys its rows by.
	Task string `json:"task,omitempty"`
	// Worker identifies the placement for assigned/running/done/failed
	// and the subject of worker_join/worker_leave.
	Worker string `json:"worker,omitempty"`
	// Err carries the task error of a failed event.
	Err string `json:"error,omitempty"`
	// Attempt is the 1-based delivery attempt for requeue/failure events
	// under a scheduler retry budget (0 = first attempt / not tracked).
	Attempt int `json:"attempt,omitempty"`
	// Campaign is the multi-tenant namespace of the task on task-scoped
	// events — the submitting campaign (flow.Task.Campaign). Empty for
	// single-tenant submissions and worker-membership events, keeping the
	// JSONL log byte-identical to earlier releases in that case.
	Campaign string `json:"campaign,omitempty"`
}

// Seconds returns the monotonic stamp in seconds since the hub started.
func (e *Event) Seconds() float64 { return float64(e.TimeNS) / 1e9 }

// Validate checks the structural invariants a decoded event must hold:
// a known type, a task on task-scoped events, and a worker on
// worker-membership events.
func (e *Event) Validate() error {
	if !e.Type.Valid() {
		return fmt.Errorf("events: unknown event type %q", e.Type)
	}
	if e.Type.TaskScoped() && e.Task == "" {
		return fmt.Errorf("events: %s event names no task", e.Type)
	}
	if (e.Type == WorkerJoin || e.Type == WorkerLeave || e.Type == WorkerLost) && e.Worker == "" {
		return fmt.Errorf("events: %s event names no worker", e.Type)
	}
	return nil
}

// Hub is the scheduler-side event recorder: it stamps every emitted
// event with a sequence number and a monotonic time, retains the history
// (all of it by default, or a bounded tail under SetLimit — so a
// subscriber that attaches mid-campaign observes the same sequence as
// the persisted log), fans events out to synchronous sinks, and wakes
// blocking subscriber cursors.
//
// The history is kept in fixed-size blocks of blockLen events: an event
// stays where it was first written, appending never copies the events
// before it, and a bounded hub recycles the blocks it evicts. A retained
// event costs about 104 B plus its strings, so a paper-sized campaign
// (about 250k tasks, some four events each) holds some 10⁶ events,
// about 100 MB, unless bounded with SetLimit.
//
// Emit is safe for concurrent use, though the scheduler calls it from
// its single event-loop goroutine; sinks run on the emitting goroutine
// under the hub lock, in stream order — they must be fast and must never
// block (RPCs and anything that can stall on I/O belong behind
// AddAsyncSink, which keeps stream order while moving the work to a
// dedicated writer goroutine). Sink errors are the sink's problem:
// recording must never stall scheduling.
type Hub struct {
	mu     sync.Mutex
	cond   *sync.Cond
	start  time.Time
	hist   history
	sinks  []func(Event)
	closed bool

	// drains are the Close hooks of registered async sinks, run (outside
	// the lock) by Hub.Close so buffered events are flushed before it
	// returns.
	drains []func()

	// lastSeq is the sequence of the most recently stamped (or restored)
	// event; it keeps counting even when eviction shrinks hist.
	lastSeq uint64
	// limit bounds hist.n; 0 means unbounded.
	limit int
	// evictedNS is the TimeNS of the newest evicted event — the stamp the
	// synthesized Truncated marker carries.
	evictedNS int64
}

// blockLen is the number of events in one history block (about 104 KB).
const blockLen = 1024

// history is the hub's retained events, oldest first, in blocks of
// blockLen: event i of the window is at(i). Only the tail block has free
// slots; dropping from the front releases a block once all of its events
// are gone.
type history struct {
	blocks [][]Event
	off    int // index in blocks[0] of the oldest retained event
	n      int // retained events
	// spare is a released block, cleared, that the next push needing a
	// block takes instead of allocating one: a bounded hub's window slides
	// without allocating.
	spare []Event
}

// at returns the i-th retained event, 0 being the oldest.
func (h *history) at(i int) *Event {
	i += h.off
	return &h.blocks[i/blockLen][i%blockLen]
}

func (h *history) push(e Event) {
	if h.off+h.n == len(h.blocks)*blockLen {
		b := h.spare
		if b == nil {
			b = make([]Event, blockLen)
		}
		h.blocks, h.spare = append(h.blocks, b), nil
	}
	*h.at(h.n) = e
	h.n++
}

// dropFront forgets the k oldest events. A block they emptied becomes
// the spare, cleared so it pins none of their strings, unless there is
// one already.
func (h *history) dropFront(k int) {
	h.off += k
	h.n -= k
	for h.off >= blockLen {
		if h.spare == nil {
			h.spare = h.blocks[0]
			clear(h.spare)
		}
		// Shift rather than re-slice, so the block list's array is reused
		// by the next push instead of sliding out of its capacity.
		copy(h.blocks, h.blocks[1:])
		h.blocks[len(h.blocks)-1] = nil
		h.blocks = h.blocks[:len(h.blocks)-1]
		h.off -= blockLen
	}
}

// NewHub creates a hub whose monotonic clock starts now.
func NewHub() *Hub {
	h := &Hub{start: time.Now()}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// AddSink registers a synchronous view of the stream. Register sinks
// before events flow; events emitted earlier are not replayed to sinks
// (subscribe with a Cursor for backlog semantics).
func (h *Hub) AddSink(fn func(Event)) {
	if fn == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sinks = append(h.sinks, fn)
}

// SetLimit bounds the in-memory backlog to at most n events, evicting
// oldest-first (the hub-scaling fix for proteome-sized campaigns: a
// 6,000-worker run emits millions of events, about 104 B each plus their
// strings, and the hub must not hold them all). A block whose events are
// all evicted is cleared and reused as the next tail block, so a bounded
// hub allocates nothing once its window has filled. A cursor that falls
// behind the retained window receives a single synthesized Truncated
// marker and resumes at the oldest retained event. n <= 0 restores the
// default unbounded retention. Sinks (the persisted JSONL log) are
// unaffected — they observe every event as it is emitted.
func (h *Hub) SetLimit(n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n <= 0 {
		h.limit = 0
		return
	}
	h.limit = n
	h.evict()
}

// record appends e to the history and evicts beyond the limit, oldest
// first. Caller holds mu.
func (h *Hub) record(e Event) {
	h.hist.push(e)
	h.evict()
}

// evict drops history beyond the limit, oldest first. Caller holds mu.
func (h *Hub) evict() {
	if h.limit <= 0 || h.hist.n <= h.limit {
		return
	}
	k := h.hist.n - h.limit
	h.evictedNS = h.hist.at(k - 1).TimeNS
	h.hist.dropFront(k)
}

// Restore seeds a fresh hub with a previously recorded stream (a
// restarted `sched -event-log` replaying its own log), so sequence
// numbers and monotonic stamps continue where the crashed scheduler
// stopped and late subscribers still see the full campaign backlog.
// Events must be valid with contiguous sequences; the hub must not have
// emitted yet. The monotonic clock is rebased so the next Emit stamps a
// time after the last restored event.
func (h *Hub) Restore(evs []Event) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.lastSeq != 0 {
		return fmt.Errorf("events: restore on a hub that already has events")
	}
	for i := range evs {
		e := &evs[i]
		if err := e.Validate(); err != nil {
			return fmt.Errorf("events: restoring event %d: %w", i+1, err)
		}
		want := uint64(i) + 1
		if i > 0 {
			want = evs[i-1].Seq + 1
		}
		if e.Seq != want {
			return fmt.Errorf("events: restoring event %d: sequence %d, want %d", i+1, e.Seq, want)
		}
	}
	if len(evs) == 0 {
		return nil
	}
	for i := range evs {
		h.record(evs[i])
	}
	last := evs[len(evs)-1]
	h.lastSeq = last.Seq
	h.start = time.Now().Add(-time.Duration(last.TimeNS))
	return nil
}

// Emit stamps e (Seq, TimeNS), appends it to the history, feeds the
// sinks, wakes subscribers, and returns the stamped event. Emitting on a
// closed hub is a no-op returning the zero event.
func (h *Hub) Emit(e Event) Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return Event{}
	}
	h.lastSeq++
	e.Seq = h.lastSeq
	e.TimeNS = time.Since(h.start).Nanoseconds()
	h.record(e)
	for _, fn := range h.sinks {
		fn(e)
	}
	h.cond.Broadcast()
	return e
}

// Snapshot returns a copy of the retained event history.
func (h *Hub) Snapshot() []Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Event, h.hist.n)
	for i := range out {
		out[i] = *h.hist.at(i)
	}
	return out
}

// Close wakes every blocked cursor; once the backlog is drained their
// Next returns false. Registered async sinks are then drained and closed
// (outside the hub lock), so when Close returns every event emitted
// before it has been handed to every sink's underlying writer. Close is
// idempotent and does not discard history.
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed = true
	drains := h.drains
	h.drains = nil
	h.cond.Broadcast()
	h.mu.Unlock()
	for _, d := range drains {
		d()
	}
}

// Subscribe returns a cursor positioned at the start of the stream, so
// a subscriber attaching mid-campaign first replays the backlog and then
// follows the live stream. On a bounded hub whose oldest events were
// already evicted, the cursor's first read yields a Truncated marker and
// resumes at the oldest retained event.
func (h *Hub) Subscribe() *Cursor {
	return &Cursor{h: h, nextSeq: 1}
}

// Cursor is one subscriber's position in the hub's stream, tracked by
// sequence number so oldest-first eviction cannot silently skip or
// re-deliver events.
type Cursor struct {
	h         *Hub
	nextSeq   uint64
	cancelled bool
}

// Next blocks until the next event is available and returns it. It
// returns ok=false once the hub is closed and the backlog is drained, or
// as soon as the cursor is cancelled. When the cursor's position was
// evicted from a bounded backlog, Next returns one synthesized Truncated
// marker (Err states how many events are gone) and continues from the
// oldest retained event.
func (c *Cursor) Next() (Event, bool) {
	h := c.h
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if c.cancelled {
			return Event{}, false
		}
		if c.nextSeq <= h.lastSeq && h.hist.n > 0 {
			break
		}
		if h.closed {
			return Event{}, false
		}
		h.cond.Wait()
	}
	first := h.hist.at(0).Seq
	if c.nextSeq < first {
		// The events between the cursor and the retained window were
		// evicted: surface that explicitly instead of silently jumping.
		n := first - c.nextSeq
		marker := Event{
			Seq:    first - 1,
			TimeNS: h.evictedNS,
			Type:   Truncated,
			Err:    fmt.Sprintf("events: %d events evicted from bounded backlog", n),
		}
		c.nextSeq = first
		return marker, true
	}
	e := *h.hist.at(int(c.nextSeq - first))
	c.nextSeq++
	return e, true
}

// Cancel unblocks a pending Next and makes every future Next return
// false — how a subscriber's pump is torn down when its consumer goes
// away with no events flowing (a detached monitor on an idle
// scheduler). Safe to call from any goroutine, idempotent.
func (c *Cursor) Cancel() {
	h := c.h
	h.mu.Lock()
	defer h.mu.Unlock()
	c.cancelled = true
	h.cond.Broadcast()
}

// LogSink returns a synchronous sink appending every event to w as one
// JSON document per line — the `sched -event-log` format ReadLog
// decodes. Write errors are ignored: logging must never stall the
// scheduler.
func LogSink(w io.Writer) func(Event) {
	enc := json.NewEncoder(w)
	return func(e Event) { _ = enc.Encode(e) }
}
