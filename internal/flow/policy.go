package flow

import "slices"

// Queue policy names accepted by Scheduler.Policy (`sched -policy`).
const (
	// PolicyFIFO is the default: one global first-in-first-out queue.
	PolicyFIFO = "fifo"
	// PolicyFair round-robins handout across campaigns, so a second
	// campaign submitted mid-run starts completing tasks immediately
	// instead of starving behind the first — the shared-scheduler
	// discipline of the paper's Summit deployment, where many submitters
	// coexist on one worker fleet.
	PolicyFair = "fair"
)

// queued is one task waiting in (or in flight from) the scheduler's
// queue, together with its submitting client, its tenant and its retry
// history. Only the event loop goroutine touches it.
type queued struct {
	task     Task
	client   *clientConn
	tenant   *tenant
	attempts int // deliveries that ended with the worker dying
	// running records that a TaskRunning event was emitted for the
	// current delivery: only the head of a batch runs at handout, the
	// rest wait in the worker and are marked running on a partial ack.
	running bool
	// label caches the task's event-stream name from admission time, so
	// the emit path (some five events per task) never recomputes it.
	label string
	// wave is the handler-time record of the submit frame the task came
	// in, shared by every task of that frame; a self-sizing scheduler
	// reads its handout size off it.
	wave *wave
}

// tenantKey names one admission namespace: a named campaign, whoever
// submits to it, or the connection of a submitter that names none.
type tenantKey struct {
	campaign string
	client   *clientConn // set only when campaign is empty
}

// tenant is everything the scheduler keeps per namespace: the lane its
// tasks wait in, how many of them are admitted — queued or in flight,
// which is what Scheduler.Quota bounds — and the ones submitted beyond
// the quota, in arrival order. A task's tenant is resolved once, when the
// task is received, and carried on its queued entry; the record is
// released when nothing is admitted or deferred any more.
type tenant struct {
	key      tenantKey
	lane     *lane // its own under PolicyFair, the one shared lane under PolicyFIFO
	admitted int
	deferred []deferredTask
}

// submission is one submit frame: the accepted ack it is owed once every
// task of it has been admitted, and the handler times its tasks report.
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

// lane is one first-in-first-out queue of waiting tasks, kept as a ring
// so that Pop, Push and PushFront are all O(1): a worker death requeues
// its whole batch at the front of what may be a 16k-task lane, and must
// not copy the lane once per task. A popped slot is cleared, so the ring
// never pins the payload of a task that has left the queue.
type lane struct {
	buf  []queued
	head int // buf index of the next task to hand out
	n    int // live entries, at buf[head], buf[head+1], ... (wrapping)
}

// at returns the i-th live slot counted from the head.
func (p *lane) at(i int) *queued { return &p.buf[(p.head+i)%len(p.buf)] }

// grow doubles a full ring, unwrapping it to start at index 0.
func (p *lane) grow() {
	buf := make([]queued, max(16, 2*len(p.buf)))
	k := copy(buf, p.buf[p.head:])
	copy(buf[k:], p.buf[:p.head])
	p.buf, p.head = buf, 0
}

func (p *lane) Push(q queued) {
	if p.n == len(p.buf) {
		p.grow()
	}
	*p.at(p.n) = q
	p.n++
}

func (p *lane) PushFront(q queued) {
	if p.n == len(p.buf) {
		p.grow()
	}
	p.head = (p.head + len(p.buf) - 1) % len(p.buf)
	p.buf[p.head] = q
	p.n++
}

func (p *lane) Pop() (queued, bool) {
	if p.n == 0 {
		return queued{}, false
	}
	slot := p.at(0)
	q := *slot
	*slot = queued{}
	p.head = (p.head + 1) % len(p.buf)
	p.n--
	return q, true
}

func (p *lane) DropClient(cc *clientConn) []queued {
	var dropped []queued
	kept := 0
	for i := 0; i < p.n; i++ {
		if q := p.at(i); q.client == cc {
			dropped = append(dropped, *q)
		} else {
			*p.at(kept) = *q
			kept++
		}
	}
	for i := kept; i < p.n; i++ {
		*p.at(i) = queued{}
	}
	p.n = kept
	return dropped
}

// taskQueue is the scheduler's queue: it round-robins Pop across the
// lanes that hold waiting tasks, so every tenant sharing the fleet drains
// at the same per-handout rate however many tasks each has queued, and
// within a lane order is first-in-first-out. Under PolicyFIFO every
// tenant's lane is the one shared lane, and the rotation has one member.
type taskQueue struct {
	// order lists the lanes with tasks waiting, in the order they joined;
	// next is the round-robin cursor into it. An emptied lane leaves at
	// once, so a finished campaign stops costing a turn, and joins again
	// at the tail when it next holds a task.
	order []*lane
	next  int
	n     int
}

// lane counts q in and returns the lane it goes to, entering the lane in
// the rotation if it is empty.
func (p *taskQueue) lane(q *queued) *lane {
	l := q.tenant.lane
	if l.n == 0 {
		p.order = append(p.order, l)
	}
	p.n++
	return l
}

// Push appends a newly admitted task to its tenant's lane.
func (p *taskQueue) Push(q queued) { p.lane(&q).Push(q) }

// PushFront returns a requeued task (its worker died) to the head of its
// lane, ahead of every waiting task of the same tenant.
func (p *taskQueue) PushFront(q queued) { p.lane(&q).PushFront(q) }

// removeLane drops the lane at position i in the rotation. The lane that
// shifts into i is the next to serve, so the cursor stays put (mod the
// shrunken rotation).
func (p *taskQueue) removeLane(i int) {
	p.order = slices.Delete(p.order, i, i+1)
	if i < p.next {
		p.next--
	}
	if p.next >= len(p.order) {
		p.next = 0
	}
}

// Pop removes and returns the next task to hand out.
func (p *taskQueue) Pop() (queued, bool) {
	if p.n == 0 {
		return queued{}, false
	}
	l := p.order[p.next]
	q, _ := l.Pop()
	p.n--
	if l.n == 0 {
		p.removeLane(p.next)
	} else {
		p.next = (p.next + 1) % len(p.order)
	}
	return q, true
}

// Peek returns the task the next Pop would return, nil when none is
// waiting. The pointer is valid until the next call on the queue.
func (p *taskQueue) Peek() *queued {
	if p.n == 0 {
		return nil
	}
	return p.order[p.next].at(0) // a lane in the rotation holds a task
}

// Len reports how many tasks are waiting.
func (p *taskQueue) Len() int { return p.n }

// DropClient removes every waiting task submitted by cc, returning them
// lane by lane in queue order (for drop events and admission release).
func (p *taskQueue) DropClient(cc *clientConn) []queued {
	var dropped []queued
	for i := 0; i < len(p.order); {
		l := p.order[i]
		d := l.DropClient(cc)
		dropped = append(dropped, d...)
		p.n -= len(d)
		if l.n == 0 {
			p.removeLane(i)
		} else {
			i++
		}
	}
	return dropped
}
