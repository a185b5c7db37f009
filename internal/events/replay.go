package events

import (
	"fmt"
	"sort"
)

// Tracker is the incremental state machine a live consumer (the
// `proteomectl monitor` client) feeds events into, one at a time and in
// stream order. It maintains the aggregate counters of the paper's
// dashboard view: queue depth, per-worker in-flight tasks, completion
// counts, and the connected worker set.
type Tracker struct {
	// Received / Done / Failed / Dropped count task outcomes so far.
	Received, Done, Failed, Dropped int
	// Quarantined counts tasks removed from scheduling by the retry
	// budget (each also counted in Failed by its terminal failed event).
	Quarantined int
	// QueueDepth is the number of tasks currently queued (not assigned).
	QueueDepth int
	// InFlight maps an assigned task to the worker running it.
	InFlight map[string]string
	// Workers is the set of currently connected workers.
	Workers map[string]bool
	// LastNS is the monotonic stamp of the last observed event.
	LastNS int64
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{InFlight: make(map[string]string), Workers: make(map[string]bool)}
}

// Busy returns the number of tasks currently in flight across workers.
func (t *Tracker) Busy() int { return len(t.InFlight) }

// Observe advances the tracker by one event. Events must arrive in
// stream order; unknown transitions (a done for a task never assigned)
// still update the counters they can.
func (t *Tracker) Observe(e Event) {
	t.LastNS = e.TimeNS
	switch e.Type {
	case TaskReceived:
		t.Received++
	case TaskQueued:
		t.QueueDepth++
		// A requeue pulls the task back off its dead worker.
		delete(t.InFlight, e.Task)
	case TaskAssigned:
		if t.QueueDepth > 0 {
			t.QueueDepth--
		}
		t.InFlight[e.Task] = e.Worker
	case TaskRunning:
		// Informational refinement of assigned; placement is unchanged.
	case TaskDone:
		t.Done++
		delete(t.InFlight, e.Task)
	case TaskFailed:
		t.Failed++
		delete(t.InFlight, e.Task)
	case TaskDropped:
		t.Dropped++
		if t.QueueDepth > 0 {
			t.QueueDepth--
		}
	case TaskQuarantined:
		// The terminal failed event preceding it already counted the
		// failure and cleared the in-flight entry.
		t.Quarantined++
	case WorkerJoin:
		t.Workers[e.Worker] = true
	case WorkerLeave, WorkerLost:
		delete(t.Workers, e.Worker)
	}
}

// Interval is one task execution on one worker reconstructed from the
// stream: the busy block a Fig-2-style worker timeline plots. An
// interval whose worker died mid-task ends at the worker_leave stamp
// with Lost set; Failed marks a task error returned by the worker.
type Interval struct {
	Task   string
	Worker string
	// StartNS/EndNS are monotonic stamps: assignment (refined by the
	// running transition) to completion.
	StartNS, EndNS int64
	Failed         bool
	Lost           bool
}

// Seconds returns the interval bounds in seconds.
func (iv *Interval) Seconds() (start, end float64) {
	return float64(iv.StartNS) / 1e9, float64(iv.EndNS) / 1e9
}

// DepthPoint is one step of the queue-depth-over-time series.
type DepthPoint struct {
	TimeNS int64
	Depth  int
}

// Replay is the offline reconstruction of one recorded event stream —
// everything the live monitor shows, recomputed from a log alone: the
// per-worker busy intervals and the queue depth over time, with no
// client cooperation required.
type Replay struct {
	// Events is the number of events replayed.
	Events int
	// Tasks is the sorted set of task identities observed.
	Tasks []string
	// Workers is the sorted set of workers that ever joined.
	Workers []string
	// Intervals holds the reconstructed busy intervals, sorted by
	// (worker, start, task).
	Intervals []Interval
	// Depth is the queue-depth series: one point per change, starting at
	// the first event's stamp.
	Depth []DepthPoint
	// Done / Failed / Dropped / Quarantined count task outcomes.
	Done, Failed, Dropped, Quarantined int
	// SpanNS is the stamp of the last event.
	SpanNS int64
}

// MaxDepth returns the deepest queue observed.
func (r *Replay) MaxDepth() int {
	max := 0
	for _, d := range r.Depth {
		if d.Depth > max {
			max = d.Depth
		}
	}
	return max
}

// ReplayEvents reconstructs a Replay from an event stream in order (as
// returned by ReadLog or Hub.Snapshot). Every event is validated, and
// sequence numbers must be strictly increasing — a spliced or reordered
// log fails loudly rather than replaying nonsense.
func ReplayEvents(evs []Event) (*Replay, error) {
	type open struct {
		worker  string
		startNS int64
	}
	r := &Replay{Events: len(evs)}
	tr := NewTracker()
	inFlight := make(map[string]open)
	tasks := make(map[string]bool)
	workers := make(map[string]bool)
	lastSeq := uint64(0)
	depth := 0

	recordDepth := func(ns int64) {
		if tr.QueueDepth == depth {
			return
		}
		depth = tr.QueueDepth
		// Coalesce same-stamp changes into the final value.
		if n := len(r.Depth); n > 0 && r.Depth[n-1].TimeNS == ns {
			r.Depth[n-1].Depth = depth
			return
		}
		r.Depth = append(r.Depth, DepthPoint{TimeNS: ns, Depth: depth})
	}

	for i := range evs {
		e := &evs[i]
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("events: replaying event %d: %w", i+1, err)
		}
		if e.Seq <= lastSeq {
			return nil, fmt.Errorf("events: replaying event %d: sequence %d not after %d", i+1, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.TimeNS > r.SpanNS {
			r.SpanNS = e.TimeNS
		}
		if e.Type.TaskScoped() {
			tasks[e.Task] = true
		}

		// Interval bookkeeping rides on top of the tracker's counters.
		switch e.Type {
		case TaskAssigned:
			inFlight[e.Task] = open{worker: e.Worker, startNS: e.TimeNS}
		case TaskRunning:
			if o, ok := inFlight[e.Task]; ok {
				o.startNS = e.TimeNS
				inFlight[e.Task] = o
			}
		case TaskDone, TaskFailed:
			if o, ok := inFlight[e.Task]; ok {
				delete(inFlight, e.Task)
				r.Intervals = append(r.Intervals, Interval{
					Task: e.Task, Worker: o.worker,
					StartNS: o.startNS, EndNS: e.TimeNS,
					Failed: e.Type == TaskFailed,
				})
			}
		case WorkerJoin:
			workers[e.Worker] = true
		case WorkerLeave, WorkerLost:
			// The worker died (or its task send failed, or it fell silent
			// past the heartbeat deadline): close its open interval at the
			// leave stamp. The scheduler requeues the task right after, so
			// the tracker's depth stays consistent.
			for task, o := range inFlight {
				if o.worker == e.Worker {
					delete(inFlight, task)
					r.Intervals = append(r.Intervals, Interval{
						Task: task, Worker: o.worker,
						StartNS: o.startNS, EndNS: e.TimeNS,
						Lost: true,
					})
				}
			}
		}
		tr.Observe(*e)
		recordDepth(e.TimeNS)
	}

	r.Done, r.Failed, r.Dropped, r.Quarantined = tr.Done, tr.Failed, tr.Dropped, tr.Quarantined
	r.Tasks = sortedKeys(tasks)
	r.Workers = sortedKeys(workers)
	sort.SliceStable(r.Intervals, func(i, j int) bool {
		a, b := &r.Intervals[i], &r.Intervals[j]
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		if a.StartNS != b.StartNS {
			return a.StartNS < b.StartNS
		}
		return a.Task < b.Task
	})
	return r, nil
}

// WorkerBusyNS sums the reconstructed busy time of each worker.
func (r *Replay) WorkerBusyNS() map[string]int64 {
	busy := make(map[string]int64, len(r.Workers))
	for i := range r.Intervals {
		iv := &r.Intervals[i]
		busy[iv.Worker] += iv.EndNS - iv.StartNS
	}
	return busy
}
