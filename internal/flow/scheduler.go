package flow

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/events"
)

// Scheduler is the central dataflow coordinator. It owns the task queue and
// assigns tasks to registered workers as they become free. All state
// transitions happen on a single event loop goroutine; connection
// goroutines communicate with it over channels.
//
// Every transition is also emitted as a structured events.Event through
// the scheduler's Hub — the per-task state-machine record Dask's
// scheduler keeps (received → queued → assigned → running → done/failed,
// plus worker join/leave), stamped scheduler-side with monotonic times.
// The JSONL EventLog and the Metrics are views over that stream, and
// read-only monitor connections (ConnectMonitor) subscribe to it live over
// the wire.
type Scheduler struct {
	// EventLog, when set before Start, receives the full structured
	// stream as JSONL (`sched -event-log`): one events.Event per line,
	// decodable by events.ReadLog and replayable by events.ReplayEvents.
	// Write errors are ignored (logging must never stall scheduling).
	EventLog io.Writer

	// Metrics, when set before Start, folds the event stream into live
	// Prometheus series (served as GET /metrics by `sched -http`). It is
	// attached as a synchronous hub sink — atomic counter updates on the
	// same emit the dispatch path already pays — and additionally receives
	// heartbeat-carried worker runtime gauges and outbox overflow counts,
	// which never appear on the event stream.
	Metrics *SchedulerMetrics

	// AdminHTTP, when set before WriteSchedulerFile, is advertised as the
	// scheduler file's "http" field so tooling (`proteomectl top`,
	// curl /metrics, readiness probes) can find the admin endpoint without
	// extra configuration. The scheduler does not serve HTTP itself; the
	// owning process (cmd/proteomectl) binds the listener and reports the
	// address here.
	AdminHTTP string

	// MaxRetries, when positive, bounds how many times a task is requeued
	// after its worker died mid-task. A task whose worker dies a
	// (MaxRetries+1)-th time is quarantined: a terminal failed event with
	// the attempt history is emitted (and a failed Result returned to the
	// submitting client) instead of requeueing forever — the poison-task
	// guard. Zero requeues without limit.
	MaxRetries int

	// HeartbeatTimeout, when positive, declares a worker dead once it has
	// been silent (no heartbeat, result, or registration) for this long:
	// a worker_lost event is emitted, its in-flight task requeued under
	// the retry budget, and its connection closed. Catching
	// wedged-but-connected workers requires workers to send heartbeats
	// (Worker.HeartbeatInterval) at a few multiples below this deadline.
	// Zero disables the check.
	HeartbeatTimeout time.Duration

	// Batch is how many queued tasks a free worker is handed in one frame
	// (`sched -batch`); the worker runs them in order and acks them all in
	// one frame back, which amortizes the per-frame cost (encode, write
	// syscall, event-loop round trip) that dominates short tasks. Zero,
	// the default, lets the scheduler size each handout itself: about a
	// millisecond of handler time, estimated from the running mean of the
	// End − Start the results of the same submit frame have reported, at
	// most 64 tasks — so the paper's minute-long targets still go out one
	// per worker in longest-first order, and microsecond kernels some
	// twenty at a time. A task whose frame has reported nothing yet, and
	// any task being redelivered after its worker died, travels alone: a
	// worker-killing task is isolated on its second delivery. N ≥ 1 hands
	// out up to exactly N tasks, whatever they are.
	Batch int

	// Policy selects the queue discipline (`sched -policy`): PolicyFIFO
	// (or empty) keeps the classic global FIFO, byte-identical in handout
	// order and wire traffic; PolicyFair round-robins handout across
	// campaigns so concurrent campaigns share the fleet without
	// starvation. Set before Start, which validates the name.
	Policy string

	// Quota, when positive, bounds how many tasks per campaign (per
	// client connection for unnamed submissions) may be admitted —
	// queued plus in flight — at once (`sched -quota`). Tasks submitted
	// beyond the quota are deferred, and the submit's accepted ack is
	// withheld until every task of the frame has been admitted: the
	// backpressure signal for submitters that pace on the ack. Zero
	// disables quotas.
	Quota int

	// OutboxDepth bounds each peer connection's outbound frame queue
	// (`sched -outbox-depth`). The event loop never writes to a socket:
	// it enqueues frames on the peer's outbox and a per-connection writer
	// goroutine drains them, coalescing bursts into one flush. A peer
	// whose queue fills — it has stopped draining an entire queue's worth
	// of frames — is declared dead and its work requeued under the retry
	// budget. Zero selects DefaultOutboxDepth.
	OutboxDepth int

	// WriteTimeout bounds every peer write (`sched -write-timeout`):
	// handouts to workers, result/ack frames to clients, and event frames
	// to monitors. A write that cannot complete within the deadline marks
	// the peer dead, exactly like a disconnect. Zero selects
	// DefaultWriteTimeout.
	WriteTimeout time.Duration

	// policy is the queue built by Start from Policy; only the event
	// loop touches it afterwards.
	policy queuePolicy

	hub *events.Hub

	ln   net.Listener
	done chan struct{}
	wg   sync.WaitGroup

	events chan schedEvent

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool
}

type schedEvent struct {
	kind string // "register", "result", "submit", "workerGone", "clientGone", "heartbeat"
	wc   *workerConn
	cc   *clientConn
	ress []Result
	tsk  []Task
	// campaign is the submit frame's campaign namespace; tasks carrying
	// their own Campaign win over it.
	campaign string
	// gauges is the runtime snapshot a heartbeat frame carried.
	gauges *WorkerGauges
}

type workerConn struct {
	id string
	// current holds the unacked tasks of the worker's handout, in handout
	// order — the scheduler's only record of in-flight work: a result
	// settles against it, a death requeues it. Only the event loop touches
	// it.
	current []queued
	busy    bool
	// lastBeat is the last time the worker proved liveness (register,
	// result, or heartbeat frame). Only the event loop touches it.
	lastBeat time.Time
	// ob is the connection's outbound frame queue — the only way the event
	// loop writes to, or closes, the connection.
	ob *outbox
	// handouts counts frames the event loop enqueued on ob; comparing it
	// against ob.encoded tells the loop whether the writer has serialized
	// everything it was handed, and therefore whether the encode scratch
	// below may be reused for the next handout. Only the event loop
	// touches handouts, taskBuf, and outMsg.
	handouts uint64
	taskBuf  []Task
	outMsg   message
}

type clientConn struct {
	pending int // results still owed to this client
	// ob is the connection's outbound frame queue (results, accepted acks).
	ob *outbox
}

// NewScheduler creates a scheduler (not yet listening).
func NewScheduler() *Scheduler {
	return &Scheduler{
		done:   make(chan struct{}),
		events: make(chan schedEvent, 256),
		hub:    events.NewHub(),
		conns:  make(map[net.Conn]bool),
	}
}

// Events returns the scheduler's event hub. Snapshot it for the full
// history, or Subscribe for backlog-then-live consumption; in another
// process, use ConnectMonitor instead.
func (s *Scheduler) Events() *events.Hub { return s.hub }

// RestoreEvents seeds the scheduler's event hub with a previously
// persisted stream before Start — how a restarted `sched -event-log`
// rebuilds its record from its own log, so sequence numbers and
// monotonic stamps continue where the crashed scheduler stopped and a
// monitor attaching after the restart still replays the full campaign
// backlog. Task payloads do not survive a restart (the log records
// transitions, not work): interrupted clients re-submit, skipping
// completed tasks via `submit -resume`.
func (s *Scheduler) RestoreEvents(evs []events.Event) error {
	if s.ln != nil {
		return fmt.Errorf("flow: RestoreEvents after Start")
	}
	return s.hub.Restore(evs)
}

// Start listens on addr (e.g. "127.0.0.1:0") and runs the scheduler loop in
// the background. It returns the bound address.
func (s *Scheduler) Start(addr string) (string, error) {
	policy, err := newQueuePolicy(s.Policy)
	if err != nil {
		return "", err
	}
	s.policy = policy
	if s.Batch < 0 {
		return "", fmt.Errorf("flow: batch %d: want 0 (self-sizing handouts) or a fixed size >= 1", s.Batch)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("flow: scheduler listen: %w", err)
	}
	// The views attach before any event can flow. The file-backed view
	// runs behind an async sink so its writes happen off the dispatch
	// path: the event loop only enqueues, a writer goroutine performs
	// the I/O in stream order, and Hub.Close (called from
	// Scheduler.Close) drains whatever is buffered before returning — so
	// a cleanly shut down scheduler persists its complete log. Only a
	// crash, or a writer so slow the bounded buffer overflows, loses
	// events (see events.AsyncSink).
	if s.EventLog != nil {
		sink := s.hub.AddAsyncSink(events.LogSink(s.EventLog), 0)
		if s.Metrics != nil {
			s.Metrics.AddDropSource(sink.Dropped)
		}
	}
	// The metrics view is synchronous — per-event work is a cached map hit
	// plus atomic adds, cheap enough to ride the emit the dispatch path
	// already performs, and a scrape always reflects every emitted event.
	if s.Metrics != nil {
		s.hub.AddSink(s.Metrics.Observe)
	}
	s.ln = ln
	s.wg.Add(2)
	go s.acceptLoop()
	go s.eventLoop()
	return ln.Addr().String(), nil
}

// WriteSchedulerFile writes the JSON scheduler file workers use to find the
// scheduler, as in the paper's Summit deployment (step 2 of Section 3.3).
func (s *Scheduler) WriteSchedulerFile(path string) error {
	if s.ln == nil {
		return fmt.Errorf("flow: scheduler not started")
	}
	doc := SchedulerFile{Address: s.ln.Addr().String(), StartedAt: time.Now(), HTTP: s.AdminHTTP}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	// Publish atomically (write + rename): workers and clients poll this
	// file the moment the scheduler starts and must never read a torn
	// document.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Healthy reports whether the scheduler is started and accepting work:
// false before Start and from the moment Close begins. Close flips the
// closed flag before draining connections, so a /healthz probe reads 503
// for the whole shutdown window, not just after it completes.
func (s *Scheduler) Healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ln != nil && !s.closed
}

// Close shuts down the scheduler and all its connections.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	// Snapshot open connections so blocked readers (worker/client pumps
	// waiting in Decode, monitor pumps waiting for events) unblock and
	// their goroutines exit before wg.Wait below.
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	close(s.done)
	if s.ln != nil {
		s.ln.Close()
	}
	s.hub.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// track registers a live connection for Close; it reports false when the
// scheduler is already closed (the caller should drop the conn).
func (s *Scheduler) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = true
	return true
}

func (s *Scheduler) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

func (s *Scheduler) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				continue
			}
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn checks the connection's wire hello, reads the first frame
// to classify the peer (worker, client, or monitor), then pumps its
// messages into the event loop — or, for a monitor, pumps the event
// stream out to it.
func (s *Scheduler) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	if !s.track(conn) {
		return
	}
	defer s.untrack(conn)
	codec, err := acceptCodec(bufio.NewReader(conn), bufio.NewWriter(conn))
	if err != nil {
		return
	}

	var first message
	if err := codec.Decode(&first); err != nil {
		return
	}
	switch first.Type {
	case msgRegister:
		// The event loop never touches a socket: every frame it sends goes
		// through the connection's outbox, and a write failure there
		// reports the peer gone through the same event a read failure does.
		wc := &workerConn{id: first.WorkerID}
		wc.ob = s.newOutbox(conn, codec, func(error) {
			s.sendEvent(schedEvent{kind: "workerGone", wc: wc})
		})
		s.sendEvent(schedEvent{kind: "register", wc: wc})
		for {
			var m message
			if err := codec.Decode(&m); err != nil {
				s.sendEvent(schedEvent{kind: "workerGone", wc: wc})
				return
			}
			// m is fresh each iteration, so its slices and pointers can
			// ride the schedEvent without copying.
			if m.Type == msgResult && len(m.Results) > 0 {
				s.sendEvent(schedEvent{kind: "result", wc: wc, ress: m.Results})
			} else if m.Type == msgHeartbeat {
				s.sendEvent(schedEvent{kind: "heartbeat", wc: wc, gauges: m.Gauges})
			}
		}
	case msgSubmit:
		cc := &clientConn{}
		cc.ob = s.newOutbox(conn, codec, func(error) {
			s.sendEvent(schedEvent{kind: "clientGone", cc: cc})
		})
		s.sendEvent(schedEvent{kind: "submit", cc: cc, tsk: first.Tasks, campaign: first.Campaign})
		// Keep reading to detect disconnect and accept more submissions.
		for {
			var m message
			if err := codec.Decode(&m); err != nil {
				s.sendEvent(schedEvent{kind: "clientGone", cc: cc})
				return
			}
			if m.Type == msgSubmit {
				s.sendEvent(schedEvent{kind: "submit", cc: cc, tsk: m.Tasks, campaign: m.Campaign})
			}
		}
	case msgSubscribe:
		// A read-only monitor: replay the backlog, then follow the live
		// stream. The cursor reads from the hub's retained history, so a
		// slow monitor can never stall the scheduler — it only falls
		// behind on its own connection. Event frames route through an
		// outbox like every other peer write: bursts coalesce into one
		// flush, and a wedged monitor is cut off by the write deadline.
		// This pump blocks (enqueueWait) when the outbox fills — it is a
		// dedicated goroutine, so parking it costs the fleet nothing.
		cur := s.hub.Subscribe()
		ob := s.newOutbox(conn, codec, nil)
		// Peer-close watchdog: monitors never send after subscribing, so
		// any read result means the monitor went away. Cancelling the
		// cursor unblocks the pump below even when no events are flowing
		// (a detached monitor on an idle scheduler must not leak this
		// goroutine and socket until the next event).
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			var m message
			_ = codec.Decode(&m)
			cur.Cancel()
			ob.shutdown()
		}()
		defer ob.shutdown()
		for {
			e, ok := cur.Next()
			if !ok {
				return // scheduler closed or monitor detached
			}
			ev := e
			if err := ob.enqueueWait(&message{Type: msgEvent, Event: &ev}, s.done); err != nil {
				return // monitor went away or scheduler closed
			}
		}
	}
}

func (s *Scheduler) sendEvent(e schedEvent) {
	select {
	case s.events <- e:
	case <-s.done:
	}
}

// taskLabel is the event-stream identity of a task: the submitting
// executor's trace tag when present, else the wire ID.
func taskLabel(t *Task) string {
	if t.Label != "" {
		return t.Label
	}
	return t.ID
}

// emit records one structured event (Seq and TimeNS are stamped by the
// hub). Called only from the event loop goroutine, so views observe
// transitions in scheduling order.
func (s *Scheduler) emit(typ events.Type, task, worker, errMsg string) {
	s.hub.Emit(events.Event{Type: typ, Task: task, Worker: worker, Err: errMsg})
}

// emitTask records one task-scoped event, carrying the task's campaign
// namespace so monitors and the event log can attribute the transition.
func (s *Scheduler) emitTask(typ events.Type, t *Task, worker, errMsg string) {
	s.hub.Emit(events.Event{Type: typ, Task: taskLabel(t), Worker: worker, Err: errMsg, Campaign: t.Campaign})
}

// emitQ is emitTask for a queued entry, using the label cached at
// admission instead of re-deriving it — the emit path runs six times per
// task at steady state, so the hot loop never recomputes or reallocates
// the label string.
func (s *Scheduler) emitQ(typ events.Type, q *queued, worker, errMsg string) {
	s.hub.Emit(events.Event{Type: typ, Task: q.label, Worker: worker, Err: errMsg, Campaign: q.task.Campaign})
}

// eventLoop is the single-threaded heart of the scheduler: a policy-owned
// task queue plus a free-worker list, draining in dataflow fashion.
func (s *Scheduler) eventLoop() {
	defer s.wg.Done()

	queue := s.policy
	var free []*workerConn
	workers := map[*workerConn]bool{}

	// --- admission (quota) state ---
	//
	// A task is "admitted" from the moment it enters the queue until it
	// settles (result forwarded, quarantined, or dropped). Admission is
	// charged per campaign for named submissions (campAdmitted), and per
	// client connection otherwise — clientConn.pending is that counter.
	// Tasks submitted beyond the quota wait in deferred, in arrival
	// order, and their submit frame's accepted ack is withheld until the
	// whole frame has been admitted.

	// submission tracks one submit frame's deferred-ack bookkeeping and
	// the handler times its tasks report back.
	type submission struct {
		cc      *clientConn
		total   int
		waiting int // tasks of this frame still deferred
		wave    wave
	}
	type deferredTask struct {
		q   queued
		sub *submission
	}
	campAdmitted := map[string]int{}      // campaign -> admitted tasks
	deferred := map[any][]*deferredTask{} // admission key -> waiting, FIFO

	// admissionKey mirrors fairLaneKey: the campaign when named, else the
	// submitting client connection.
	admissionKey := func(q *queued) any {
		if q.task.Campaign != "" {
			return q.task.Campaign
		}
		return q.client
	}

	// quotaOK reports whether the namespace behind key may admit one more
	// task.
	quotaOK := func(key any) bool {
		if s.Quota <= 0 {
			return true
		}
		switch k := key.(type) {
		case string:
			return campAdmitted[k] < s.Quota
		case *clientConn:
			return k != nil && k.pending < s.Quota
		}
		return true
	}

	// admit charges the task against its namespace, stamps the enqueue
	// time, and queues it.
	admit := func(q queued, now int64) {
		q.task.EnqueuedNS = now
		if q.task.Campaign != "" {
			campAdmitted[q.task.Campaign]++
		}
		if q.client != nil {
			q.client.pending++
		}
		s.emitQ(events.TaskQueued, &q, "", "")
		queue.Push(q)
	}

	// fwd is the open run of consecutive records of the worker ack being
	// settled that are owed to one client. The run goes out as one frame —
	// a sub-slice of the ack's own slice — when a record for another
	// client, or one that is not forwarded at all, ends it, and at the end
	// of the ack: an n-task ack costs its client's outbox one slot and one
	// encode, not n.
	var fwd struct {
		cc   *clientConn
		ress []Result
	}
	flushForward := func() {
		if fwd.cc != nil {
			_ = fwd.cc.ob.enqueue(&message{Type: msgResult, Results: fwd.ress})
			fwd.cc, fwd.ress = nil, nil
		}
	}

	// admitDeferred admits as many of key's deferred tasks as the quota
	// now allows, releasing each submit's accepted ack once its last task
	// is admitted. The open forward run is flushed first, so the result
	// whose settling freed the slot is enqueued no later than the ack.
	admitDeferred := func(key any) {
		list := deferred[key]
		if len(list) == 0 {
			return
		}
		for len(list) > 0 && quotaOK(key) {
			d := list[0]
			list = list[1:]
			admit(d.q, time.Now().UnixNano())
			d.sub.waiting--
			if d.sub.waiting == 0 {
				flushForward()
				_ = d.sub.cc.ob.enqueue(&message{Type: msgAccepted, Count: d.sub.total})
			}
		}
		if len(list) == 0 {
			delete(deferred, key)
		} else {
			deferred[key] = list
		}
	}

	// settle releases an admitted task's quota charge (its result was
	// forwarded, or it was quarantined or dropped) and admits any work
	// that was waiting on the freed slot.
	settle := func(q *queued) {
		if q.task.Campaign != "" {
			if campAdmitted[q.task.Campaign]--; campAdmitted[q.task.Campaign] <= 0 {
				delete(campAdmitted, q.task.Campaign)
			}
		}
		if q.client != nil {
			q.client.pending--
		}
		admitDeferred(admissionKey(q))
	}

	// requeue returns a task whose worker died to the front of the queue,
	// charging one attempt against the retry budget. Over budget, the
	// task is quarantined: a terminal failed event (with the attempt
	// history) then a quarantined marker, and the submitting client gets
	// a failed Result so its Map completes instead of waiting forever.
	requeue := func(q queued) {
		label := q.label
		q.attempts++
		if s.MaxRetries > 0 && q.attempts > s.MaxRetries {
			errMsg := fmt.Sprintf("flow: task %s quarantined: worker died on all %d attempts (retry budget %d)",
				label, q.attempts, s.MaxRetries)
			s.hub.Emit(events.Event{Type: events.TaskFailed, Task: label, Err: errMsg, Attempt: q.attempts, Campaign: q.task.Campaign})
			s.hub.Emit(events.Event{Type: events.TaskQuarantined, Task: label, Attempt: q.attempts, Campaign: q.task.Campaign})
			if q.client != nil {
				_ = q.client.ob.enqueue(&message{Type: msgResult, Results: []Result{{TaskID: q.task.ID, Err: errMsg}}})
			}
			settle(&q)
			return
		}
		// Resource escalation on retry (the paper's high-memory wave,
		// scheduler-side): a task that killed its worker is redelivered
		// with its escalated payload.
		if len(q.task.EscalatePayload) > 0 {
			q.task.Payload = q.task.EscalatePayload
		}
		q.task.Attempt = q.attempts
		q.running = false
		queue.PushFront(q)
		s.hub.Emit(events.Event{Type: events.TaskQueued, Task: label, Attempt: q.attempts, Campaign: q.task.Campaign})
	}

	// dropWorker is the one teardown of a worker, whoever noticed it gone:
	// the heartbeat sweep (typ worker_lost), its read pump or outbox writer
	// failing (worker_leave), or a handout that could not be enqueued
	// because the outbox had already failed or overflowed (worker_leave).
	// The worker leaves the fleet and the free list, its outbox stops —
	// which closes the conn, so a still-running read pump fails soon after
	// and finds the worker already gone — and its unacked handout returns
	// to the queue back to front, so the queue head ends up in original
	// handout order. Going through requeue charges every one of those
	// deliveries against the retry budget: a worker dying exactly at send
	// time must not grant its batch a free attempt, or a poison task could
	// cycle through send failures forever.
	dropWorker := func(wc *workerConn, typ events.Type, reason string) {
		delete(workers, wc)
		for i, w := range free {
			if w == wc {
				free = append(free[:i], free[i+1:]...)
				break
			}
		}
		wc.ob.shutdown()
		s.emit(typ, "", wc.id, reason)
		for i := len(wc.current) - 1; i >= 0; i-- {
			requeue(wc.current[i])
		}
		wc.current = nil
	}

	// Sweep for heartbeat-silent workers at a fraction of the deadline,
	// so detection lags the deadline by at most a quarter of it.
	var beatCheck <-chan time.Time
	if s.HeartbeatTimeout > 0 {
		interval := s.HeartbeatTimeout / 4
		if interval <= 0 {
			interval = s.HeartbeatTimeout
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		beatCheck = ticker.C
	}

	assign := func() {
		for queue.Len() > 0 && len(free) > 0 {
			w := free[0]
			free = free[1:]
			w.busy = true
			// The worker's encode scratch (taskBuf, outMsg) is handed to
			// its outbox writer by reference, so it may be reused only once
			// the writer has serialized every frame this loop enqueued —
			// the atomic counter pair is the happens-before edge. A worker
			// re-handed work before its writer caught up (possible under
			// partial acks) gets freshly allocated wire state instead.
			reuse := w.ob.encoded.Load() >= w.handouts
			var tasks []Task
			m := &w.outMsg
			if reuse {
				tasks = w.taskBuf[:0]
			} else {
				m = new(message)
			}
			w.current = fillHandout(w.current[:0], queue, s.Batch)
			for i := range w.current {
				tasks = append(tasks, w.current[i].task)
				s.emitQ(events.TaskAssigned, &w.current[i], w.id, "")
			}
			if s.Metrics != nil {
				s.Metrics.handoutTasks.Observe(float64(len(tasks)))
			}
			if reuse {
				w.taskBuf = tasks
			}
			// One frame per handout; the outbox writer coalesces bursts of
			// handouts into one flush.
			*m = message{Type: msgTask, Tasks: tasks}
			if err := w.ob.enqueue(m); err != nil {
				dropWorker(w, events.WorkerLeave, "")
				continue
			}
			w.handouts++
			// Delivered: the worker starts the batch head on receipt and
			// runs the rest in order, so only the head is running now. The
			// others stay assigned until a partial ack reveals the worker
			// moved on; the exact per-task execution bracket is always the
			// Result's Start/End stamps, the event stream records when the
			// scheduler learned of each transition.
			w.current[0].running = true
			s.emitQ(events.TaskRunning, &w.current[0], w.id, "")
		}
	}

	for {
		select {
		case <-s.done:
			return
		case now := <-beatCheck:
			// Declare workers silent past the deadline dead: wedged-but-
			// connected processes never fail the read pump, so the only
			// signal is the heartbeat going quiet.
			for wc := range workers {
				silent := now.Sub(wc.lastBeat)
				if silent <= s.HeartbeatTimeout {
					continue
				}
				dropWorker(wc, events.WorkerLost,
					fmt.Sprintf("flow: worker %s silent for %s (heartbeat deadline %s)",
						wc.id, silent.Round(time.Millisecond), s.HeartbeatTimeout))
			}
			assign()
		case e := <-s.events:
			switch e.kind {
			case "register":
				workers[e.wc] = true
				free = append(free, e.wc)
				e.wc.lastBeat = time.Now()
				s.emit(events.WorkerJoin, "", e.wc.id, "")
				assign()
			case "heartbeat":
				if workers[e.wc] {
					e.wc.lastBeat = time.Now()
					if s.Metrics != nil {
						s.Metrics.SetWorkerGauges(e.wc.id, e.gauges)
					}
				}
			case "workerGone":
				// The read pump or the outbox writer failed. Either may
				// report after the other, or after the sweep or a failed
				// handout already dropped the worker.
				if workers[e.wc] {
					dropWorker(e.wc, events.WorkerLeave, "")
					assign()
				}
			case "result":
				// A result from a worker no longer in the fleet — its read
				// pump failed, or the heartbeat sweep dropped it while this
				// frame sat in the channel — must not be settled: its batch
				// was already requeued (and possibly reassigned), so settling
				// here would duplicate the client's result and misattribute
				// a done event to a dead worker.
				if !workers[e.wc] {
					break
				}
				e.wc.lastBeat = time.Now()
				// One frame may ack a whole handout. Each record is settled
				// individually and forwarded in a frame with its neighbours
				// for the same client (fwd).
				for i := range e.ress {
					res := &e.ress[i]
					// The record must ack a task this worker currently holds:
					// a duplicate reply, or a reply to a delivery that was
					// since requeued to another worker, is dropped.
					cur := e.wc.current
					j := 0
					for j < len(cur) && cur[j].task.ID != res.TaskID {
						j++
					}
					if j == len(cur) {
						flushForward()
						continue
					}
					q := cur[j]
					e.wc.current = slices.Delete(cur, j, j+1) // clears the vacated slot
					if res.Err != "" {
						s.emitQ(events.TaskFailed, &q, e.wc.id, res.Err)
					} else {
						s.emitQ(events.TaskDone, &q, e.wc.id, "")
					}
					q.wave.observe(res.End.Sub(res.Start))
					if q.client != fwd.cc {
						flushForward()
						fwd.cc = q.client
					}
					if fwd.cc != nil {
						// The run is consecutive, so it ends at record i.
						fwd.ress = e.ress[i-len(fwd.ress) : i+1 : i+1]
					}
					settle(&q)
				}
				flushForward()
				// A partial ack reveals the worker moved on: the head of the
				// remaining batch is the task running now. Tasks deeper in
				// the batch stay assigned until their turn is observable.
				if len(e.wc.current) > 0 {
					if head := &e.wc.current[0]; !head.running {
						head.running = true
						s.emitQ(events.TaskRunning, head, e.wc.id, "")
					}
				}
				// Only a worker that was actually busy — and whose batch is
				// fully acked — returns to the free list: a stray result
				// (unknown task, duplicate reply) must not enlist the worker
				// twice, and a partial ack leaves it busy on the remainder.
				if len(e.wc.current) == 0 {
					wasBusy := e.wc.busy
					e.wc.busy = false
					if workers[e.wc] && wasBusy {
						free = append(free, e.wc)
					}
				}
				assign()
			case "submit":
				// The scheduler owns the enqueue stamp: it marks when the
				// task entered the queue, and travels with the assignment
				// so the worker can echo it back in the Result. Tasks beyond
				// the campaign quota are deferred instead of admitted, and
				// the accepted ack is withheld until the whole frame is in —
				// the backpressure signal.
				sub := &submission{cc: e.cc, total: len(e.tsk)}
				now := time.Now().UnixNano()
				for _, t := range e.tsk {
					if t.Campaign == "" {
						t.Campaign = e.campaign
					}
					s.emitTask(events.TaskReceived, &t, "", "")
					q := queued{task: t, client: e.cc, label: taskLabel(&t), wave: &sub.wave}
					key := admissionKey(&q)
					// Anything already deferred for this namespace keeps
					// arrival order: later tasks queue behind it even if a
					// slot happens to be free right now.
					if s.Quota > 0 && (!quotaOK(key) || len(deferred[key]) > 0) {
						sub.waiting++
						deferred[key] = append(deferred[key], &deferredTask{q: q, sub: sub})
						continue
					}
					admit(q, now)
				}
				if sub.waiting == 0 {
					_ = e.cc.ob.enqueue(&message{Type: msgAccepted, Count: sub.total})
				}
				assign()
			case "clientGone":
				e.cc.ob.shutdown()
				// Purge this client's deferred submissions first: settling
				// its dropped queued tasks below re-admits deferred work in
				// the same namespace, and the gone client's own tasks must
				// not be the ones admitted.
				for key, list := range deferred {
					kept := list[:0]
					for _, d := range list {
						if d.sub.cc == e.cc {
							s.emitQ(events.TaskDropped, &d.q, "", "")
						} else {
							kept = append(kept, d)
						}
					}
					if len(kept) == 0 {
						delete(deferred, key)
					} else {
						deferred[key] = kept
					}
				}
				// Orphan this client's queued tasks: drop them, releasing
				// their admission slots to surviving campaign peers.
				for _, q := range queue.DropClient(e.cc) {
					s.emitQ(events.TaskDropped, &q, "", "")
					settle(&q)
				}
				// Its in-flight tasks finish with nobody to forward to.
				for wc := range workers {
					for i := range wc.current {
						if wc.current[i].client == e.cc {
							wc.current[i].client = nil
						}
					}
				}
				// Releasing the gone client's admission slots may have
				// admitted deferred work from surviving clients.
				assign()
			}
		}
	}
}
