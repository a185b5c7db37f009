package events

import (
	"fmt"
	"io"
)

// CompletedSet is the skip-set a resumed campaign consults: the trace
// identities of tasks a previous (interrupted) run already completed.
// Because every stage value is a pure function of (seed, species, task),
// a resumed run recomputes a completed task locally instead of
// re-dispatching it to the cluster — the report stays byte-identical to
// an uninterrupted run while the cluster only sees the missing tasks.
type CompletedSet struct {
	done map[string]bool
}

// NewCompletedSet returns an empty set.
func NewCompletedSet() *CompletedSet {
	return &CompletedSet{done: make(map[string]bool)}
}

// Add marks one task identity as completed.
func (s *CompletedSet) Add(task string) {
	if task != "" {
		s.done[task] = true
	}
}

// Done reports whether the task was completed by the prior run. It is
// the func a resumed core.Config.Resume threads into stage dispatch.
func (s *CompletedSet) Done(task string) bool { return s.done[task] }

// Len reports the number of completed tasks recorded.
func (s *CompletedSet) Len() int { return len(s.done) }

// CompletedFromEvents collects every task with a done event. Failed,
// dropped, or quarantined tasks are not completed — a resumed run
// re-dispatches them.
func CompletedFromEvents(evs []Event) *CompletedSet {
	s := NewCompletedSet()
	for i := range evs {
		if evs[i].Type == TaskDone {
			s.Add(evs[i].Task)
		}
	}
	return s
}

// CompletedFromLog reads a JSONL event log (`sched -event-log`) and
// collects the completed tasks. A log truncated mid-record by a killed
// scheduler is expected: the intact prefix is used and the torn tail
// ignored. Only a log yielding no events at all fails, so a wrong path
// or a non-log file is caught loudly instead of silently resuming from
// nothing.
func CompletedFromLog(r io.Reader) (*CompletedSet, error) {
	evs, err := ReadLog(r)
	if err != nil && len(evs) == 0 {
		return nil, fmt.Errorf("events: resume log unreadable: %w", err)
	}
	return CompletedFromEvents(evs), nil
}
