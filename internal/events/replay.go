package events

import (
	"fmt"
	"sort"
)

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
	// Workers is the sorted set of workers that joined, or were handed a
	// task (a log whose head was lost shows workers it never saw join).
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

	fold *Fold
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
// returned by ReadLog or Hub.Snapshot): it runs the stream through a Fold,
// collecting the executions each event closes and the queue depth after
// it. Every event is validated, and sequence numbers must be strictly
// increasing — a spliced or reordered log fails loudly rather than
// replaying nonsense.
func ReplayEvents(evs []Event) (*Replay, error) {
	r := &Replay{Events: len(evs), fold: NewFold()}
	f := r.fold
	tasks := make(map[string]bool)
	lastSeq := uint64(0)
	depth := 0
	for i := range evs {
		e := &evs[i]
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("events: replaying event %d: %w", i+1, err)
		}
		if e.Seq <= lastSeq {
			return nil, fmt.Errorf("events: replaying event %d: sequence %d not after %d", i+1, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.Type.TaskScoped() {
			tasks[e.Task] = true
		}
		f.Observe(e)
		for _, x := range f.Closed {
			r.Intervals = append(r.Intervals, x.Interval)
		}
		if f.Total.Queued != depth {
			depth = f.Total.Queued
			// Coalesce same-stamp changes into the final value.
			if n := len(r.Depth); n > 0 && r.Depth[n-1].TimeNS == f.NowNS {
				r.Depth[n-1].Depth = depth
			} else {
				r.Depth = append(r.Depth, DepthPoint{TimeNS: f.NowNS, Depth: depth})
			}
		}
	}

	r.Done, r.Failed, r.Dropped, r.Quarantined = f.Total.Done, f.Total.Failed, f.Total.Dropped, f.Total.Quarantined
	r.SpanNS = f.NowNS
	r.Tasks = sortedKeys(tasks)
	r.Workers = f.Workers()
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

// Worker returns one worker's state at the end of the replay (zero for a
// worker the stream never named).
func (r *Replay) Worker(name string) Worker { return r.fold.Worker(name) }

// WorkerBusyNS is each worker's busy time over the replay: the wall time
// it held at least one task, so a batch acked in one frame counts its
// span once, not once per task.
func (r *Replay) WorkerBusyNS() map[string]int64 {
	busy := make(map[string]int64, len(r.Workers))
	for _, name := range r.Workers {
		busy[name] = r.Worker(name).BusyNS(r.SpanNS)
	}
	return busy
}
