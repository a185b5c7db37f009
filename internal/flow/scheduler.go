package flow

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/events"
)

// Scheduler is the central dataflow coordinator. It owns the task queue and
// assigns tasks to registered workers as they become free. All state
// lives in one dispatcher that a single event loop goroutine advances;
// connection goroutines communicate with it over channels.
//
// Every transition is also emitted as a structured events.Event through
// the scheduler's Hub — the per-task state-machine record Dask's
// scheduler keeps (received → queued → assigned → running → done/failed,
// plus worker join/leave), each stamped with the monotonic time of the
// input that caused it.
// The JSONL EventLog and the Metrics are views over that stream, and
// read-only monitor connections (DialMonitor) subscribe to it live over
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
	// (or empty) keeps every tenant's tasks in one shared lane, a global
	// FIFO; PolicyFair gives each tenant its own lane and round-robins
	// handout across them, so concurrent campaigns share the fleet without
	// starvation. Set before Start, which validates the name.
	Policy string

	// Quota, when positive, bounds how many tasks per tenant — a named
	// campaign, or one connection's unnamed submissions — may be admitted,
	// queued plus in flight, at once (`sched -quota`). Tasks submitted
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

	hub *events.Hub
	// restoredNS is the stamp of the last event RestoreEvents restored:
	// Start sets the stream's epoch that far back, so the stamps continue.
	restoredNS int64

	ln   net.Listener
	done chan struct{}
	wg   sync.WaitGroup

	events chan schedEvent

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool
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
// process, use DialMonitor instead.
func (s *Scheduler) Events() *events.Hub { return s.hub }

// RestoreEvents seeds the scheduler's event hub with a previously
// persisted stream before Start — how a restarted `sched -event-log`
// rebuilds its record from its own log, so sequence numbers and stamps
// continue where the crashed scheduler stopped (the hub continues the
// sequence, Start the clock) and a monitor attaching after the restart
// still replays the full campaign backlog. The restored stream is a
// record, not a queue: no task is re-queued from it. Interrupted clients
// re-submit, and `submit -resume` reads back from the log (whose received
// and done events carry task and result payloads) what already finished,
// so only the rest is dispatched again.
func (s *Scheduler) RestoreEvents(evs []events.Event) error {
	if s.ln != nil {
		return fmt.Errorf("flow: RestoreEvents after Start")
	}
	if err := s.hub.Restore(evs); err != nil {
		return err
	}
	if len(evs) > 0 {
		s.restoredNS = evs[len(evs)-1].TimeNS
	}
	return nil
}

// Start listens on addr (e.g. "127.0.0.1:0") and runs the scheduler loop in
// the background. It returns the bound address.
func (s *Scheduler) Start(addr string) (string, error) {
	d, err := s.newDispatcher(time.Now().Add(-time.Duration(s.restoredNS)))
	if err != nil {
		return "", err
	}
	if s.Batch < 0 {
		return "", fmt.Errorf("flow: batch %d: want 0 (self-sizing handouts) or a fixed size >= 1", s.Batch)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("flow: scheduler listen: %w", err)
	}
	// The views attach before any event can flow. The file-backed view
	// follows the hub's history on its own goroutine, so its writes
	// happen off the dispatch path: the event loop only records, the
	// follower performs the I/O in stream order however far behind it
	// falls, and Hub.Close (called from Scheduler.Close) waits for it to
	// catch up — so a cleanly shut down scheduler persists its complete
	// log. Only a crash loses the unwritten tail, and only a bounded hub
	// (`sched -event-backlog`) leaves a gap: a follower more than the
	// bound behind writes a truncated marker where the evicted events
	// were (see events.Hub.AddAsyncSink).
	if s.EventLog != nil {
		s.hub.AddAsyncSink(events.LogSink(s.EventLog), 0)
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
	go s.eventLoop(d)
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
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			// An error that persists — EMFILE, at the paper's fleet sizes
			// under a 1,024-descriptor limit — must not spin a core: wait
			// 5 ms, doubling to a second, before asking again.
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			select {
			case <-s.done:
				return
			case <-time.After(backoff):
				continue
			}
		}
		backoff = 0
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
		// The peer itself reads only EOF, so say here why it was turned
		// away, unless Close cut the hello short.
		select {
		case <-s.done:
		default:
			log.Printf("flow: scheduler refused peer %s: %v", conn.RemoteAddr(), err)
		}
		return
	}

	var first message
	if err := codec.Decode(&first); err != nil {
		return
	}
	switch first.Type {
	case msgRegister:
		// The event loop never touches a socket: every frame it sends goes
		// through the connection's outbox, and a write failure there closes
		// the conn, so this pump's next Decode fails and reports the peer
		// gone — the one way a peer's death reaches the event loop.
		wc := &workerConn{id: first.WorkerID, ob: s.newOutbox(conn, codec)}
		s.sendEvent(schedEvent{kind: inRegister, wc: wc})
		for {
			var m message
			if err := codec.Decode(&m); err != nil {
				s.sendEvent(schedEvent{kind: inWorkerGone, wc: wc})
				return
			}
			// m is fresh each iteration, so its slices and pointers can
			// ride the schedEvent without copying.
			if m.Type == msgResult && len(m.Results) > 0 {
				s.sendEvent(schedEvent{kind: inResult, wc: wc, ress: m.Results})
			} else if m.Type == msgHeartbeat {
				s.sendEvent(schedEvent{kind: inHeartbeat, wc: wc, gauges: m.Gauges})
			}
		}
	case msgSubmit:
		cc := &clientConn{ob: s.newOutbox(conn, codec)}
		s.sendEvent(schedEvent{kind: inSubmit, cc: cc, tsk: first.Tasks, campaign: first.Campaign})
		// Keep reading to detect disconnect and accept more submissions.
		for {
			var m message
			if err := codec.Decode(&m); err != nil {
				s.sendEvent(schedEvent{kind: inClientGone, cc: cc})
				return
			}
			if m.Type == msgSubmit {
				s.sendEvent(schedEvent{kind: inSubmit, cc: cc, tsk: m.Tasks, campaign: m.Campaign})
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
		ob := s.newOutbox(conn, codec)
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

// eventLoop is the one goroutine that advances the dispatcher: it reads
// the clock, once per input, and hands the input over. A sweep reads it
// too, rather than taking the ticker's send time, so that a late sweep
// never stamps an event before the input handled ahead of it.
func (s *Scheduler) eventLoop(d *dispatcher) {
	defer s.wg.Done()
	// Sweep for heartbeat-silent workers at a fraction of the deadline,
	// so detection lags the deadline by at most a quarter of it.
	var beatCheck <-chan time.Time
	if s.HeartbeatTimeout > 0 {
		ticker := time.NewTicker(max(s.HeartbeatTimeout/4, 1))
		defer ticker.Stop()
		beatCheck = ticker.C
	}
	for {
		select {
		case <-s.done:
			return
		case <-beatCheck:
			d.sweep(time.Now())
		case e := <-s.events:
			d.handle(e, time.Now())
		}
	}
}
