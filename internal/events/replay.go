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
	// AssignedNS is the stamp of the assignment that opened the execution.
	// StartNS/EndNS are monotonic stamps: assignment (refined by the
	// running transition) to completion.
	AssignedNS, StartNS, EndNS int64
	Failed                     bool
	Lost                       bool
}

// DepthPoint is one step of the queue-depth-over-time series.
type DepthPoint struct {
	TimeNS int64
	Depth  int
}

// Replay is the offline reconstruction of one recorded event stream: the
// Fold it ran, as of the last event (tallies, workers and their busy
// time, Events, NowNS), plus what only a replay keeps — the task set,
// every closed execution and the queue depth over time.
type Replay struct {
	*Fold
	// Tasks is the sorted set of task identities observed.
	Tasks []string
	// Intervals holds the reconstructed busy intervals, sorted by
	// (worker, start, task).
	Intervals []Interval
	// Depth is the queue-depth series: one point per change, starting at
	// the first event's stamp.
	Depth []DepthPoint
}

// ReplayEvents reconstructs a Replay from an event stream in order (as
// returned by ReadLog or Hub.Snapshot): it runs the stream through a Fold,
// collecting the executions each event closes and the queue depth after
// it. Every event is validated, and sequence numbers must be strictly
// increasing — a spliced or reordered log fails loudly rather than
// replaying nonsense.
func ReplayEvents(evs []Event) (*Replay, error) {
	f := NewFold()
	r := &Replay{Fold: f}
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
		r.Intervals = append(r.Intervals, f.Closed...)
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

	r.Tasks = sortedKeys(tasks)
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
