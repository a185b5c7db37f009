package flow

import "fmt"

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
// queue, together with its submitting client and retry history. Only the
// event loop goroutine touches it.
type queued struct {
	task     Task
	client   *clientConn
	attempts int // deliveries that ended with the worker dying
	// running records that a TaskRunning event was emitted for the
	// current delivery: only the head of a batch runs at handout, the
	// rest wait in the worker and are marked running on a partial ack.
	running bool
	// label caches taskLabel(&task) from admission time, so the emit
	// path (six events per task at steady state) never recomputes it.
	label string
	// wave is the handler-time record of the submit frame the task came
	// in, shared by every task of that frame; a self-sizing scheduler
	// reads its handout size off it.
	wave *wave
}

// queuePolicy is the pluggable queue discipline of the scheduler: it owns
// the order in which queued tasks are handed to free workers. Implementors
// are called only from the event loop goroutine, so they need no locking.
type queuePolicy interface {
	// Push appends a newly admitted task.
	Push(q queued)
	// PushFront returns a requeued task (its worker died) to the head of
	// its queue, ahead of every waiting task of the same origin.
	PushFront(q queued)
	// Pop removes and returns the next task to hand out.
	Pop() (queued, bool)
	// Peek returns the task the next Pop would return, nil when none is
	// waiting. The pointer is valid until the next call on the policy.
	Peek() *queued
	// Len reports how many tasks are waiting.
	Len() int
	// DropClient removes every queued task submitted by cc, returning
	// them in queue order (for drop events and admission release).
	DropClient(cc *clientConn) []queued
}

// newQueuePolicy maps a policy name to an implementation. The empty name
// selects the FIFO default.
func newQueuePolicy(name string) (queuePolicy, error) {
	switch name {
	case "", PolicyFIFO:
		return &fifoPolicy{}, nil
	case PolicyFair:
		return newFairPolicy(), nil
	}
	return nil, fmt.Errorf("flow: unknown queue policy %q (want %q or %q)", name, PolicyFIFO, PolicyFair)
}

// fifoPolicy is one global first-in-first-out queue, kept as a ring so
// that Pop, Push and PushFront are all O(1): a worker death requeues its
// whole batch at the front of what may be a 16k-task lane, and must not
// copy the lane once per task. A popped slot is cleared, so the ring
// never pins the payload of a task that has left the queue.
type fifoPolicy struct {
	buf  []queued
	head int // buf index of the next task to hand out
	n    int // live entries, at buf[head], buf[head+1], ... (wrapping)
}

// at returns the i-th live slot counted from the head.
func (p *fifoPolicy) at(i int) *queued { return &p.buf[(p.head+i)%len(p.buf)] }

// grow doubles a full ring, unwrapping it to start at index 0.
func (p *fifoPolicy) grow() {
	buf := make([]queued, max(16, 2*len(p.buf)))
	k := copy(buf, p.buf[p.head:])
	copy(buf[k:], p.buf[:p.head])
	p.buf, p.head = buf, 0
}

func (p *fifoPolicy) Push(q queued) {
	if p.n == len(p.buf) {
		p.grow()
	}
	*p.at(p.n) = q
	p.n++
}

func (p *fifoPolicy) PushFront(q queued) {
	if p.n == len(p.buf) {
		p.grow()
	}
	p.head = (p.head + len(p.buf) - 1) % len(p.buf)
	p.buf[p.head] = q
	p.n++
}

func (p *fifoPolicy) Pop() (queued, bool) {
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

func (p *fifoPolicy) Peek() *queued {
	if p.n == 0 {
		return nil
	}
	return p.at(0)
}

func (p *fifoPolicy) Len() int { return p.n }

func (p *fifoPolicy) DropClient(cc *clientConn) []queued {
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

// fairLaneKey is the fair-share lane identity of a task: its campaign
// when named, else the submitting client connection — so unnamed
// submitters are still isolated from each other, and tasks orphaned by a
// client disconnect (nil client) share one leftover lane.
func fairLaneKey(q *queued) any {
	if q.task.Campaign != "" {
		return q.task.Campaign
	}
	return q.client
}

// fairPolicy keeps one FIFO lane per campaign and round-robins Pop across
// the lanes, so every campaign sharing the fleet drains at the same
// per-handout rate regardless of how many tasks each has queued. Within a
// lane, order is exactly the FIFO default.
type fairPolicy struct {
	lanes map[any]*fifoPolicy
	// order lists live lanes in first-seen order; next is the round-robin
	// cursor into it. Emptied lanes are removed so a finished campaign
	// stops costing a turn, and re-join at the tail when it submits again.
	order []any
	next  int
	n     int
}

func newFairPolicy() *fairPolicy {
	return &fairPolicy{lanes: map[any]*fifoPolicy{}}
}

func (p *fairPolicy) lane(key any) *fifoPolicy {
	l, ok := p.lanes[key]
	if !ok {
		l = &fifoPolicy{}
		p.lanes[key] = l
		p.order = append(p.order, key)
	}
	return l
}

func (p *fairPolicy) Push(q queued) {
	p.lane(fairLaneKey(&q)).Push(q)
	p.n++
}

func (p *fairPolicy) PushFront(q queued) {
	p.lane(fairLaneKey(&q)).PushFront(q)
	p.n++
}

// removeLane drops the lane at position i in the rotation. The lane that
// shifts into i is the next to serve, so the cursor stays put (mod the
// shrunken rotation).
func (p *fairPolicy) removeLane(i int) {
	delete(p.lanes, p.order[i])
	p.order = append(p.order[:i], p.order[i+1:]...)
	if i < p.next {
		p.next--
	}
	if len(p.order) == 0 || p.next >= len(p.order) {
		p.next = 0
	}
}

func (p *fairPolicy) Pop() (queued, bool) {
	for len(p.order) > 0 {
		if p.next >= len(p.order) {
			p.next = 0
		}
		l := p.lanes[p.order[p.next]]
		q, ok := l.Pop()
		if !ok {
			p.removeLane(p.next)
			continue
		}
		p.n--
		if l.Len() == 0 {
			p.removeLane(p.next)
		} else {
			p.next = (p.next + 1) % len(p.order)
		}
		return q, true
	}
	return queued{}, false
}

// Peek relies on what Pop and DropClient maintain: an emptied lane leaves
// the rotation at once, and the cursor always indexes a live lane.
func (p *fairPolicy) Peek() *queued {
	if len(p.order) == 0 {
		return nil
	}
	return p.lanes[p.order[p.next]].Peek()
}

func (p *fairPolicy) Len() int { return p.n }

func (p *fairPolicy) DropClient(cc *clientConn) []queued {
	var dropped []queued
	for i := 0; i < len(p.order); {
		l := p.lanes[p.order[i]]
		d := l.DropClient(cc)
		dropped = append(dropped, d...)
		p.n -= len(d)
		if l.Len() == 0 {
			p.removeLane(i)
		} else {
			i++
		}
	}
	return dropped
}
