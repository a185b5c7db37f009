package events

import (
	"fmt"
	"sort"
)

// Tally is the task counts of one scope — the whole stream (Fold.Total) or
// one campaign (Fold.Campaign) — and also what Fold.Observe returns: the
// change one event made to its campaign's tally, and so to the total.
type Tally struct {
	// Received / Done / Failed / Dropped / Quarantined count outcomes
	// (a quarantined task is also counted in Failed, by the terminal
	// failed event that precedes its quarantine marker).
	Received, Done, Failed, Dropped, Quarantined int
	// Queued is the current queue depth; Running the tasks currently
	// assigned to a worker.
	Queued, Running int
	// Retries counts requeues of in-flight tasks (their worker died).
	Retries int
}

func (t *Tally) add(d Tally) {
	t.Received += d.Received
	t.Done += d.Done
	t.Failed += d.Failed
	t.Dropped += d.Dropped
	t.Quarantined += d.Quarantined
	t.Queued += d.Queued
	t.Running += d.Running
	t.Retries += d.Retries
}

// Worker is one worker's history as the stream shows it.
type Worker struct {
	// JoinNS is the stamp of the latest join (or of the first assignment
	// naming a worker whose join predates a truncated backlog).
	JoinNS    int64
	Connected bool
	// Tasks counts closed executions, including ones cut short by the
	// worker's death.
	Tasks int

	// Busy time is the union of the worker's open executions, not their
	// sum: a batch of n tasks held over one second is one busy second.
	held    int   // open executions
	sinceNS int64 // start of the current busy stretch, while held > 0
	shared  bool  // the current stretch has held more than one task
	busyNS  int64 // closed busy stretches
	spanNS  int64 // closed connected stretches
}

// BusyNS is the wall time up to nowNS during which the worker held at
// least one task.
func (w Worker) BusyNS(nowNS int64) int64 {
	if w.held > 0 {
		return w.busyNS + nowNS - w.sinceNS
	}
	return w.busyNS
}

// ConnectedNS is the wall time up to nowNS the worker was connected.
func (w Worker) ConnectedNS(nowNS int64) int64 {
	if w.Connected {
		return w.spanNS + nowNS - w.JoinNS
	}
	return w.spanNS
}

func (w *Worker) release(nowNS int64) {
	if w.held--; w.held == 0 {
		w.busyNS += nowNS - w.sinceNS
	}
}

// execKey names a task in flight. Labels are only unique within a
// campaign (two tenants may run the same species).
type execKey struct{ campaign, task string }

type openExec struct {
	w                   *Worker
	worker              string
	assignedNS, startNS int64
}

// Fold is the one interpreter of the task state machine: fed a stream one
// event at a time and in order, it maintains the global and per-campaign
// tallies, the open executions, and each worker's busy and connected
// time. The live views (`proteomectl monitor` and `top`, /metrics) are
// projections of it, and ReplayEvents runs one over a recorded stream.
//
// The rules: queued adds to the depth and, when it carries an attempt (a
// requeue pulling an in-flight task back), retires a running task and
// counts a retry; assigned moves one task from queued to running; done and
// failed retire a running task — including the terminal failed of a
// quarantine, which arrives with no requeue; dropped retires a queued
// task; quarantined only counts. A worker's leave closes its open
// executions as Lost but moves no tally: until the queued or failed that
// follows, its tasks still count as running. Decrements never take a
// count below zero — a stream joined mid-flight (bounded backlog, campaign
// filter) shows terminal events for work it never saw start — and the
// clamp is decided on the campaign's tally, so Total always equals the sum
// of the campaign tallies.
//
// Observe does not allocate once the campaigns and workers of a stream
// have been seen: SchedulerMetrics runs it under the hub lock on the
// dispatch path. The worker table is never pruned (top lists workers
// that left).
type Fold struct {
	// Total is the tally over every campaign.
	Total Tally
	// Events counts observed events; FirstNS and NowNS are the stamps of
	// the first and the latest. Stamps are clamped to be non-negative and
	// non-decreasing, so a spliced log cannot yield a negative duration.
	Events         int
	FirstNS, NowNS int64
	// Connected is the number of currently connected workers.
	Connected int
	// Closed holds the executions the last observed event closed: one for
	// a done or failed, a whole batch for a worker's leave. It is reused
	// by the next Observe.
	Closed []Interval

	campaigns map[string]*Tally
	workers   map[string]*Worker
	open      map[execKey]openExec
}

// NewFold returns an empty fold.
func NewFold() *Fold {
	return &Fold{
		campaigns: make(map[string]*Tally),
		workers:   make(map[string]*Worker),
		open:      make(map[execKey]openExec),
	}
}

// Observe advances the fold by one event and returns what the event did to
// the tallies.
func (f *Fold) Observe(e *Event) Tally {
	if e.TimeNS > f.NowNS {
		f.NowNS = e.TimeNS
	}
	if f.Events == 0 {
		f.FirstNS = f.NowNS
	}
	f.Events++
	f.Closed = f.Closed[:0]

	if !e.Type.TaskScoped() {
		switch e.Type {
		case WorkerJoin:
			f.connect(e.Worker)
		case WorkerLeave, WorkerLost:
			f.disconnect(e.Worker)
		}
		return Tally{}
	}

	c := f.campaigns[e.Campaign]
	if c == nil {
		c = &Tally{}
		f.campaigns[e.Campaign] = c
	}
	key := execKey{e.Campaign, e.Task}
	var d Tally
	switch e.Type {
	case TaskReceived:
		d.Received = 1
	case TaskQueued:
		d.Queued = 1
		if e.Attempt > 0 {
			d.Retries = 1
			d.Running = -min(1, c.Running)
			// The worker's leave normally closed the execution already.
			f.abandon(key)
		}
	case TaskAssigned:
		d.Queued = -min(1, c.Queued)
		d.Running = 1
		f.abandon(key)
		w := f.connect(e.Worker)
		if w.held++; w.held == 1 {
			w.sinceNS, w.shared = f.NowNS, false
		} else {
			w.shared = true
		}
		f.open[key] = openExec{w: w, worker: e.Worker, assignedNS: f.NowNS, startNS: f.NowNS}
	case TaskRunning:
		if x, ok := f.open[key]; ok {
			x.startNS = f.NowNS
			f.open[key] = x
			if !x.w.shared {
				x.w.sinceNS = f.NowNS
			}
		}
	case TaskDone, TaskFailed:
		if e.Type == TaskDone {
			d.Done = 1
		} else {
			d.Failed = 1
		}
		d.Running = -min(1, c.Running)
		if x, ok := f.open[key]; ok {
			f.close(key, x, Interval{Failed: e.Type == TaskFailed})
		}
	case TaskDropped:
		d.Dropped = 1
		d.Queued = -min(1, c.Queued)
	case TaskQuarantined:
		d.Quarantined = 1
	}
	c.add(d)
	f.Total.add(d)
	return d
}

// connect returns the named worker, marking it connected as of now when
// it is new or had left.
func (f *Fold) connect(name string) *Worker {
	w := f.workers[name]
	if w == nil {
		w = &Worker{}
		f.workers[name] = w
	}
	if !w.Connected {
		w.Connected = true
		w.JoinNS = f.NowNS
		f.Connected++
	}
	return w
}

// disconnect closes the named worker's open executions as Lost and ends
// its connected stretch. A leave for a worker the stream never showed
// (truncated backlog) is ignored.
func (f *Fold) disconnect(name string) {
	w := f.workers[name]
	if w == nil || !w.Connected {
		return
	}
	for key, x := range f.open {
		if x.w == w {
			f.close(key, x, Interval{Lost: true})
		}
	}
	w.Connected = false
	w.spanNS += f.NowNS - w.JoinNS
	f.Connected--
}

// close ends an open execution now, recording it in Closed with the
// outcome flags of how.
func (f *Fold) close(key execKey, x openExec, how Interval) {
	delete(f.open, key)
	x.w.release(f.NowNS)
	x.w.Tasks++
	how.Task, how.Worker = key.task, x.worker
	how.AssignedNS, how.StartNS, how.EndNS = x.assignedNS, x.startNS, f.NowNS
	f.Closed = append(f.Closed, how)
}

// abandon forgets an open execution the stream never closed (a requeue or
// a second assignment with no leave or result between): the worker's busy
// stretch ends, but no interval is reported.
func (f *Fold) abandon(key execKey) {
	if x, ok := f.open[key]; ok {
		delete(f.open, key)
		x.w.release(f.NowNS)
	}
}

// Campaigns returns the campaign names seen so far, sorted, with the
// unnamed (empty) campaign of single-tenant submitters first when present.
func (f *Fold) Campaigns() []string { return sortedKeys(f.campaigns) }

// Campaign returns one campaign's tally (zero when unseen).
func (f *Fold) Campaign(name string) Tally {
	if c := f.campaigns[name]; c != nil {
		return *c
	}
	return Tally{}
}

// Workers returns the names of every worker seen so far, sorted.
func (f *Fold) Workers() []string { return sortedKeys(f.workers) }

// Worker returns one worker's state (zero when unseen).
func (f *Fold) Worker(name string) Worker {
	if w := f.workers[name]; w != nil {
		return *w
	}
	return Worker{}
}

// CheckFold reports a violation of what must hold of a fold after any
// event of any stream: the total is the sum of the campaigns, no count is
// negative, no worker is busy longer than it was connected, and Connected
// counts the connected workers.
func CheckFold(f *Fold) error {
	var sum Tally
	for _, name := range f.Campaigns() {
		c := f.Campaign(name)
		for _, n := range []int{c.Received, c.Done, c.Failed, c.Dropped, c.Quarantined, c.Queued, c.Running, c.Retries} {
			if n < 0 {
				return fmt.Errorf("campaign %q has a negative count: %+v", name, c)
			}
		}
		sum.add(c)
	}
	if sum != f.Total {
		return fmt.Errorf("total %+v is not the sum of the campaigns %+v", f.Total, sum)
	}
	connected := 0
	for _, name := range f.Workers() {
		w := f.Worker(name)
		if busy, span := w.BusyNS(f.NowNS), w.ConnectedNS(f.NowNS); busy < 0 || busy > span {
			return fmt.Errorf("worker %s busy %d ns of %d ns connected", name, busy, span)
		}
		if w.Connected {
			connected++
		}
	}
	if connected != f.Connected || f.FirstNS < 0 || f.FirstNS > f.NowNS {
		return fmt.Errorf("connected=%d (worker table says %d), first=%d now=%d", f.Connected, connected, f.FirstNS, f.NowNS)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
