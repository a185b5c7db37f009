// Package events is the scheduler's structured observability subsystem:
// a typed per-task state-machine event record (the transition log Dask's
// scheduler keeps), each event stamped with the time of the scheduler
// input that caused it, fanned out to sinks (the JSONL event log, the
// live metrics) and to live subscribers (the `proteomectl monitor` wire
// stream).
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
// Emitting, logging, or streaming events must never change a result
// byte. The stream feeds back into a campaign in one place only: the
// received and done events carry the task and result payloads, so a
// resumed campaign (`submit -resume`) reads a finished task's result back
// from the log (CompletedFromLog) instead of dispatching it again.
package events

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
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
	// Truncated: a marker synthesized for a cursor that points before the
	// oldest event retained by a bounded hub backlog; Err says how many
	// events were evicted. The hub never emits it, so a synchronous sink
	// never sees one; a persisted log holds one exactly where its writer,
	// a follower of the bounded history, lost events.
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

// Event is one scheduler-side state transition. The Hub stamps Seq, the
// 1-based position in the stream. TimeNS is the emitter's: the scheduler
// stamps every event of one input with that input's monotonic time, in
// nanoseconds since the scheduler's epoch (its start, less the stream it
// restored), so an event log replays identically regardless of
// wall-clock adjustments and a virtual clock stamps exactly.
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
	// Payload is the task payload as submitted on a received event and
	// the worker's result payload on a done event; nil on every other
	// type. The scheduler shares the bytes it holds instead of copying
	// them, so nothing may write to them.
	Payload []byte `json:"payload,omitempty"`
}

// Seconds returns the stamp in seconds since the scheduler's epoch.
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
// event with a sequence number (and reads no clock: TimeNS is the
// emitter's), retains the history (all of it by default, or a bounded
// tail under SetLimit), fans events out to synchronous sinks, and wakes
// the cursors that follow the history: live subscribers and the
// persisted log's writer alike, so a subscriber that attaches
// mid-campaign observes the same sequence as the log.
//
// The history is kept in fixed-size blocks of blockLen events: an event
// stays where it was first written, appending never copies the events
// before it, and a bounded hub recycles the blocks it evicts. A retained
// event costs 128 B plus its strings and payload, so a paper-sized
// campaign (about 250k tasks, some four events each) holds some 10⁶
// events, about 130 MB before payloads, unless bounded with SetLimit.
//
// Emit is safe for concurrent use, though the scheduler calls it from
// its single event-loop goroutine; sinks run on the emitting goroutine
// under the hub lock, in stream order — they must be fast and must never
// block. Anything that can stall on I/O belongs behind AddAsyncSink,
// which follows the history on its own goroutine: it misses nothing an
// unbounded hub holds, and gaps only on a bounded hub, at a Truncated
// marker. Sink errors are the sink's problem: recording must never stall
// scheduling.
type Hub struct {
	mu     sync.Mutex
	cond   *sync.Cond
	hist   history
	sinks  []func(Event)
	closed bool

	// drains wait for the async sinks' followers, run (outside the lock)
	// by Hub.Close so their backlogs are written before it returns.
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

// blockLen is the number of events in one history block (128 KB).
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

// NewHub creates an empty hub.
func NewHub() *Hub {
	h := &Hub{}
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

// AddAsyncSink registers fn as a follower of the hub's history: one
// goroutine reads a cursor positioned after the last event emitted so far
// and calls fn for each event from then on, in stream order, off the
// emitting goroutine — how `sched -event-log` writes its file without
// putting I/O on the dispatch path. The follower reads the history the
// hub already keeps, so it sees every event an unbounded hub emits
// however far it falls behind; on a bounded hub (SetLimit) a follower
// more than the limit behind gets the Truncated marker a late subscriber
// gets, then the retained tail. The follower takes the hub lock once per
// batch, not once per event: it copies every event available (up to
// followBatch) under one hold and calls fn on each outside it, so a slow
// fn never holds up Emit. Hub.Close waits until the follower has
// handed fn every event emitted before it. On a closed hub fn is never
// called. depth is unused; the benchmark module still passes one.
func (h *Hub) AddAsyncSink(fn func(Event), depth int) {
	if fn == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	c := &Cursor{h: h, nextSeq: h.lastSeq + 1}
	done := make(chan struct{})
	h.drains = append(h.drains, func() { <-done })
	go func() {
		defer close(done)
		// Copy what is there under one lock, hand it on outside it.
		buf := make([]Event, followBatch)
		for n := c.fill(buf); n > 0; n = c.fill(buf) {
			for i := range buf[:n] {
				fn(buf[i])
			}
		}
	}()
}

// followBatch is the most events an async sink's follower copies out of
// the history per hold of the hub lock (32 KB of events).
const followBatch = 256

// SetLimit bounds the in-memory backlog to at most n events, evicting
// oldest-first (the hub-scaling fix for proteome-sized campaigns: a
// 6,000-worker run emits millions of events, 128 B each plus their
// strings and payloads, and the hub must not hold them all). A block
// whose events are all evicted is cleared and reused as the next tail
// block, so a bounded hub allocates nothing once its window has filled.
// A cursor that falls behind the retained window, an async sink's
// follower included, receives a single synthesized Truncated marker and
// resumes at the oldest retained event. n <= 0 restores the default
// unbounded retention. Synchronous sinks are unaffected — they observe
// every event as it is emitted.
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
// numbers continue where the crashed scheduler stopped and late
// subscribers still see the full campaign backlog. Events must be valid
// with contiguous sequences and hold no Truncated marker — a marker
// stands for events the log lost, and one standing for a single event
// keeps the sequence contiguous, so the numbers alone cannot tell; the
// hub must not have emitted yet. Restore touches no time: continuing the
// stamps is the emitter's business.
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
		if e.Type == Truncated {
			return fmt.Errorf("events: restoring event %d: the log is missing events (%s)", i+1, e.Err)
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
	h.lastSeq = evs[len(evs)-1].Seq
	return nil
}

// Emit stamps e's Seq, keeping its TimeNS, appends it to the history,
// feeds the sinks, wakes subscribers, and returns the stamped event.
// Emitting on a closed hub is a no-op returning the zero event.
func (h *Hub) Emit(e Event) Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return Event{}
	}
	h.lastSeq++
	e.Seq = h.lastSeq
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
// Next returns false. Close then waits (outside the hub lock) for every
// async sink's follower to drain, so when it returns every event emitted
// before it has been handed to every sink. Close is idempotent and does
// not discard history.
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
	var e [1]Event
	if c.fill(e[:]) == 0 {
		return Event{}, false
	}
	return e[0], true
}

// fill blocks as Next does, then copies into buf, under one hold of the
// hub lock, the events successive Next calls would return, as many as are
// available and fit. It returns how many it copied; 0 stands for Next's
// ok=false.
func (c *Cursor) fill(buf []Event) int {
	h := c.h
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if c.cancelled {
			return 0
		}
		if c.nextSeq <= h.lastSeq && h.hist.n > 0 {
			break
		}
		if h.closed {
			return 0
		}
		h.cond.Wait()
	}
	n := 0
	first := h.hist.at(0).Seq
	if c.nextSeq < first {
		// The events between the cursor and the retained window were
		// evicted: surface that explicitly instead of silently jumping.
		buf[0] = Event{
			Seq:    first - 1,
			TimeNS: h.evictedNS,
			Type:   Truncated,
			Err:    fmt.Sprintf("events: %d events evicted from bounded backlog", first-c.nextSeq),
		}
		c.nextSeq = first
		n++
	}
	for ; n < len(buf) && c.nextSeq <= h.lastSeq; n++ {
		buf[n] = *h.hist.at(int(c.nextSeq - first))
		c.nextSeq++
	}
	return n
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
