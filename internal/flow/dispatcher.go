package flow

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/events"
)

// peer is the dispatcher's end of one connection, a queue of outbound
// frames that never blocks the caller and never fails: an outbox, or a
// recorder in tests that drive the dispatcher without sockets. A peer
// that can no longer take frames drops them; its death reaches the
// dispatcher as an input from the connection's read pump.
type peer interface {
	// enqueue hands over one frame.
	enqueue(m *message)
	// shutdown drops the peer: frames still queued are discarded.
	shutdown()
}

type workerConn struct {
	id string
	// live is set from register until the worker is dropped.
	live bool
	// current holds the unacked tasks of the worker's handout, in handout
	// order — the scheduler's only record of in-flight work: a result
	// settles against it, a death requeues it.
	current []queued
	// lastBeat is the last time the worker proved liveness (register,
	// result, or heartbeat frame).
	lastBeat time.Time
	// ob is the only way the dispatcher writes to, or closes, the
	// connection.
	ob peer
}

type clientConn struct {
	ob peer // results, accepted acks
	// gone is set when the client has left: what it still has in flight
	// finishes with nobody to forward to.
	gone bool
}

// inputKind says which of the dispatcher's inputs a schedEvent carries.
type inputKind uint8

const (
	inRegister inputKind = iota
	inHeartbeat
	inResult
	inSubmit
	inWorkerGone
	inClientGone
)

type schedEvent struct {
	kind inputKind
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

// dispatcher is the scheduler's state machine (see the package comment):
// the queue, the fleet and the tenants, advanced one input at a time by
// the method named after the input. Scheduler.eventLoop is its only caller
// outside tests, so nothing here needs a lock.
type dispatcher struct {
	quota, batch, maxRetries int
	beatTimeout              time.Duration
	// epoch is time zero of the event stream: an input at now stamps its
	// events now − epoch.
	epoch   time.Time
	hub     *events.Hub
	metrics *SchedulerMetrics

	queue taskQueue
	// shared is the one lane of every tenant under PolicyFIFO; under
	// PolicyFair it is nil and each tenant has its own.
	shared *lane
	free   []*workerConn
	// workers and tenants are kept in first-seen order, so that a sweep or
	// a client's departure emits the same stream for the same inputs.
	workers []*workerConn
	tenants []*tenant
	byKey   map[tenantKey]*tenant

	// fwd is the open run of consecutive records of the worker ack being
	// settled that are owed to one client, fwdTo. The run goes out as one
	// frame — a sub-slice of the ack's own slice — when a record for
	// another client, or one that is not forwarded at all, ends it, and at
	// the end of the ack: an n-task ack costs its client's outbox one slot
	// and one encode, not n.
	fwdTo *clientConn
	fwd   []Result
}

// newDispatcher builds the state machine of a scheduler configured as s
// is, whose event stream starts at epoch, validating the policy name.
func (s *Scheduler) newDispatcher(epoch time.Time) (*dispatcher, error) {
	d := &dispatcher{
		quota: s.Quota, batch: s.Batch, maxRetries: s.MaxRetries, beatTimeout: s.HeartbeatTimeout, epoch: epoch,
		hub: s.hub, metrics: s.Metrics, byKey: map[tenantKey]*tenant{},
	}
	switch s.Policy {
	case "", PolicyFIFO:
		d.shared = &lane{}
	case PolicyFair:
	default:
		return nil, fmt.Errorf("flow: unknown queue policy %q (want %q or %q)", s.Policy, PolicyFIFO, PolicyFair)
	}
	return d, nil
}

// handle applies one input from a connection's read pump.
func (d *dispatcher) handle(e schedEvent, now time.Time) {
	switch e.kind {
	case inRegister:
		d.register(e.wc, now)
	case inHeartbeat:
		d.heartbeat(e.wc, e.gauges, now)
	case inResult:
		d.result(e.wc, e.ress, now)
	case inSubmit:
		d.submit(e.cc, e.tsk, e.campaign, now)
	case inWorkerGone:
		d.workerGone(e.wc, now)
	case inClientGone:
		d.clientGone(e.cc, now)
	}
}

// emit records one event at the time of the input that caused it; the
// hub adds the sequence number.
func (d *dispatcher) emit(e events.Event, now time.Time) {
	e.TimeNS = now.Sub(d.epoch).Nanoseconds()
	d.hub.Emit(e)
}

// emitQ records one task-scoped event, carrying the task's campaign
// namespace so monitors and the event log can attribute the transition,
// and the label cached at admission — the emit path runs some five times
// per task, so it never recomputes the label string.
func (d *dispatcher) emitQ(typ events.Type, q *queued, worker, errMsg string, now time.Time) {
	d.emit(events.Event{Type: typ, Task: q.label, Worker: worker, Err: errMsg, Campaign: q.task.Campaign}, now)
}

// tenantOf is the one place that answers "whose task is this?": the
// campaign's record when the task names one, else the submitting
// connection's.
func (d *dispatcher) tenantOf(campaign string, cc *clientConn) *tenant {
	key := tenantKey{campaign: campaign}
	if campaign == "" {
		key.client = cc
	}
	t := d.byKey[key]
	if t == nil {
		t = &tenant{key: key, lane: d.shared}
		if t.lane == nil {
			t.lane = &lane{}
		}
		d.byKey[key] = t
		d.tenants = append(d.tenants, t)
	}
	return t
}

// admit charges the task against its tenant, stamps the enqueue time —
// it travels with the assignment so the worker can echo it back in the
// Result — and queues it.
func (d *dispatcher) admit(q queued, now time.Time) {
	q.task.EnqueuedNS = now.UnixNano()
	q.tenant.admitted++
	d.emitQ(events.TaskQueued, &q, "", "", now)
	d.queue.Push(q)
}

func (d *dispatcher) flushForward() {
	if d.fwdTo != nil {
		d.fwdTo.ob.enqueue(&message{Type: msgResult, Results: d.fwd})
		d.fwdTo, d.fwd = nil, nil
	}
}

// settle releases an admitted task's quota charge (its result was
// forwarded, or it was quarantined or dropped) and admits as much of the
// tenant's deferred work as the quota now allows, releasing each submit's
// accepted ack once its last task is admitted. The open forward run is
// flushed first, so the result whose settling freed the slot is enqueued
// no later than the ack.
func (d *dispatcher) settle(q *queued, now time.Time) {
	t := q.tenant
	t.admitted--
	for t.deferred.n > 0 && t.admitted < d.quota {
		next, _ := t.deferred.Pop()
		d.admit(next, now)
		sub := next.sub
		sub.waiting--
		if sub.waiting == 0 {
			d.flushForward()
			sub.cc.ob.enqueue(&message{Type: msgAccepted, Count: sub.total})
		}
	}
	if t.admitted == 0 && t.deferred.n == 0 {
		delete(d.byKey, t.key)
		i := slices.Index(d.tenants, t)
		d.tenants = slices.Delete(d.tenants, i, i+1)
	}
}

// requeue returns a task whose worker died to the front of its lane,
// unchanged, charging one attempt against the retry budget; the queued
// event records the attempt, the worker is never told. Over budget, the
// task is quarantined: a terminal failed event (with the attempt history)
// then a quarantined marker, and the submitting client gets a failed
// Result so its Map completes instead of waiting forever.
func (d *dispatcher) requeue(q queued, now time.Time) {
	q.attempts++
	if d.maxRetries > 0 && q.attempts > d.maxRetries {
		errMsg := fmt.Sprintf("flow: task %s quarantined: worker died on all %d attempts (retry budget %d)",
			q.label, q.attempts, d.maxRetries)
		d.emit(events.Event{Type: events.TaskFailed, Task: q.label, Err: errMsg, Attempt: q.attempts, Campaign: q.task.Campaign}, now)
		d.emit(events.Event{Type: events.TaskQuarantined, Task: q.label, Attempt: q.attempts, Campaign: q.task.Campaign}, now)
		if !q.client.gone {
			q.client.ob.enqueue(&message{Type: msgResult, Results: []Result{{TaskID: q.task.ID, Err: errMsg}}})
		}
		d.settle(&q, now)
		return
	}
	q.running = false
	d.queue.PushFront(q)
	d.emit(events.Event{Type: events.TaskQueued, Task: q.label, Attempt: q.attempts, Campaign: q.task.Campaign}, now)
}

// dropWorker is the one teardown of a worker, with two callers: the
// heartbeat sweep (typ worker_lost) and workerGone (worker_leave), which
// is how a failed or overflowed outbox is reported too, since it closes
// the conn under the read pump. The worker leaves the fleet and the free
// list, its outbox stops — which closes the conn, so a still-running read
// pump fails soon after and finds the worker already gone — and its
// unacked handout returns to the queue back to front, so the queue head
// ends up in original handout order. Going through requeue charges every
// one of those deliveries against the retry budget: a worker dying
// exactly at send time must not grant its batch a free attempt, or a
// poison task could cycle through send failures forever.
func (d *dispatcher) dropWorker(wc *workerConn, typ events.Type, reason string, now time.Time) {
	wc.live = false
	d.workers = slices.DeleteFunc(d.workers, func(w *workerConn) bool { return w == wc })
	d.free = slices.DeleteFunc(d.free, func(w *workerConn) bool { return w == wc })
	wc.ob.shutdown()
	d.emit(events.Event{Type: typ, Worker: wc.id, Err: reason}, now)
	for i := len(wc.current) - 1; i >= 0; i-- {
		d.requeue(wc.current[i], now)
	}
	wc.current = nil
}

// assign hands queued tasks to free workers until one of the two runs
// out.
func (d *dispatcher) assign(now time.Time) {
	for d.queue.Len() > 0 && len(d.free) > 0 {
		w := d.free[0]
		d.free = d.free[1:]
		w.current = fillHandout(w.current[:0], &d.queue, d.batch)
		tasks := make([]Task, len(w.current))
		for i := range w.current {
			tasks[i] = w.current[i].task
			d.emitQ(events.TaskAssigned, &w.current[i], w.id, "", now)
		}
		if d.metrics != nil {
			d.metrics.handoutTasks.Observe(float64(len(tasks)))
		}
		// One frame per handout; the outbox writer coalesces bursts of
		// handouts into one flush. The worker starts the batch head on
		// receipt and runs the rest in order, so only the head is running
		// now — even if the write then fails, which the read pump reports
		// as the worker gone. The others stay assigned until a partial ack
		// reveals the worker moved on; the exact per-task execution bracket
		// is always the Result's Start/End stamps, the event stream records
		// when the scheduler learned of each transition.
		w.ob.enqueue(&message{Type: msgTask, Tasks: tasks})
		w.current[0].running = true
		d.emitQ(events.TaskRunning, &w.current[0], w.id, "", now)
	}
}

func (d *dispatcher) register(wc *workerConn, now time.Time) {
	wc.live, wc.lastBeat = true, now
	d.workers = append(d.workers, wc)
	d.free = append(d.free, wc)
	d.emit(events.Event{Type: events.WorkerJoin, Worker: wc.id}, now)
	d.assign(now)
}

func (d *dispatcher) heartbeat(wc *workerConn, gauges *WorkerGauges, now time.Time) {
	if wc.live {
		wc.lastBeat = now
		if d.metrics != nil {
			d.metrics.SetWorkerGauges(wc.id, gauges)
		}
	}
}

// workerGone: the read pump failed — the peer closed the conn, or the
// outbox did after a failed write or an overflow. It may report after the
// sweep already dropped the worker.
func (d *dispatcher) workerGone(wc *workerConn, now time.Time) {
	if wc.live {
		d.dropWorker(wc, events.WorkerLeave, "", now)
		d.assign(now)
	}
}

// sweep declares workers silent past the heartbeat deadline dead:
// wedged-but-connected processes never fail the read pump, so the only
// signal is the heartbeat going quiet.
func (d *dispatcher) sweep(now time.Time) {
	for _, wc := range slices.Clone(d.workers) {
		if silent := now.Sub(wc.lastBeat); silent > d.beatTimeout {
			d.dropWorker(wc, events.WorkerLost,
				fmt.Sprintf("flow: worker %s silent for %s (heartbeat deadline %s)",
					wc.id, silent.Round(time.Millisecond), d.beatTimeout), now)
		}
	}
	d.assign(now)
}

// result settles one worker ack, which may cover a whole handout. Each
// record is settled individually and forwarded in a frame with its
// neighbours for the same client (fwd).
func (d *dispatcher) result(wc *workerConn, ress []Result, now time.Time) {
	// A result from a worker no longer in the fleet — its read pump
	// failed, or the heartbeat sweep dropped it while this frame sat in
	// the channel — must not be settled: its batch was already requeued
	// (and possibly reassigned), so settling here would duplicate the
	// client's result and misattribute a done event to a dead worker.
	if !wc.live {
		return
	}
	wc.lastBeat = now
	busy := len(wc.current) > 0
	for i := range ress {
		res := &ress[i]
		// The record must ack a task this worker currently holds: a
		// duplicate reply, or a reply to a delivery that was since
		// requeued to another worker, is dropped.
		j := 0
		for j < len(wc.current) && wc.current[j].task.ID != res.TaskID {
			j++
		}
		if j == len(wc.current) {
			d.flushForward()
			continue
		}
		q := wc.current[j]
		wc.current = slices.Delete(wc.current, j, j+1) // clears the vacated slot
		if res.Err != "" {
			d.emitQ(events.TaskFailed, &q, wc.id, res.Err, now)
		} else {
			// The result payload rides the done event: a resumed campaign
			// reads it back from the log.
			d.emit(events.Event{Type: events.TaskDone, Task: q.label, Worker: wc.id, Campaign: q.task.Campaign, Payload: res.Payload}, now)
		}
		q.sub.wave.observe(res.End.Sub(res.Start))
		cc := q.client
		if cc.gone {
			cc = nil
		}
		if cc != d.fwdTo {
			d.flushForward()
			d.fwdTo = cc
		}
		if d.fwdTo != nil {
			// The run is consecutive, so it ends at record i.
			d.fwd = ress[i-len(d.fwd) : i+1 : i+1]
		}
		d.settle(&q, now)
	}
	d.flushForward()
	// A partial ack reveals the worker moved on: the head of the remaining
	// batch is the task running now. Tasks deeper in the batch stay
	// assigned until their turn is observable.
	if len(wc.current) > 0 {
		if head := &wc.current[0]; !head.running {
			head.running = true
			d.emitQ(events.TaskRunning, head, wc.id, "", now)
		}
	} else if busy {
		// Only a worker that was actually busy — and whose batch is fully
		// acked — returns to the free list: a stray result (unknown task,
		// duplicate reply) must not enlist the worker twice, and a partial
		// ack leaves it busy on the remainder.
		d.free = append(d.free, wc)
	}
	d.assign(now)
}

// submit receives one submit frame. Tasks beyond their tenant's quota are
// deferred instead of admitted, and the accepted ack is withheld until
// the whole frame is in — the backpressure signal.
func (d *dispatcher) submit(cc *clientConn, tasks []Task, campaign string, now time.Time) {
	sub := &submission{cc: cc, total: len(tasks)}
	var tn *tenant
	for _, t := range tasks {
		if t.Campaign == "" {
			t.Campaign = campaign
		}
		// The event stream names a task by the submitting executor's trace
		// tag when it has one, else by its wire ID.
		label := cmp.Or(t.Label, t.ID)
		d.emit(events.Event{Type: events.TaskReceived, Task: label, Campaign: t.Campaign, Payload: t.Payload}, now)
		if tn == nil || tn.key.campaign != t.Campaign {
			tn = d.tenantOf(t.Campaign, cc)
		}
		q := queued{task: t, client: cc, tenant: tn, label: label, sub: sub}
		// Anything already deferred for this tenant keeps arrival order:
		// later tasks queue behind it even if a slot happens to be free
		// right now.
		if d.quota > 0 && (tn.admitted >= d.quota || tn.deferred.n > 0) {
			sub.waiting++
			tn.deferred.Push(q)
			continue
		}
		d.admit(q, now)
	}
	if sub.waiting == 0 {
		cc.ob.enqueue(&message{Type: msgAccepted, Count: sub.total})
	}
	d.assign(now)
}

func (d *dispatcher) clientGone(cc *clientConn, now time.Time) {
	cc.gone = true
	cc.ob.shutdown()
	// Purge this client's deferred submissions first: settling its dropped
	// queued tasks below re-admits deferred work of the same tenant, and
	// the gone client's own tasks must not be the ones admitted.
	for _, t := range d.tenants {
		for _, q := range t.deferred.DropClient(cc) {
			d.emitQ(events.TaskDropped, &q, "", "", now)
		}
	}
	// Orphan this client's queued tasks: drop them, releasing their
	// admission slots to surviving campaign peers.
	for _, q := range d.queue.DropClient(cc) {
		d.emitQ(events.TaskDropped, &q, "", "", now)
		d.settle(&q, now)
	}
	// Releasing the gone client's admission slots may have admitted
	// deferred work from surviving clients.
	d.assign(now)
}
