package analysis

import "repro/internal/events"

// WorkerOccupancy is one worker's share of the campaign span spent busy —
// the per-worker utilisation number behind the paper's Fig-2 timeline and
// the live `proteomectl top` view, computed offline from an event log.
type WorkerOccupancy struct {
	Worker string
	// BusyNS is the wall time the worker held at least one task
	// (events.Worker.BusyNS): a batch of tasks acked in one frame counts
	// its span once.
	BusyNS int64
	// Fraction is BusyNS over the replay span, in [0, 1].
	Fraction float64
	// Tasks counts the worker's task executions, including ones cut short
	// by its death.
	Tasks int
}

// ReplayOccupancy computes each worker's busy fraction over the replayed
// span, sorted by worker name. A replay with no span (zero or one event)
// yields zero fractions.
func ReplayOccupancy(rep *events.Replay) []WorkerOccupancy {
	out := make([]WorkerOccupancy, 0, len(rep.Workers))
	for _, name := range rep.Workers {
		w := rep.Worker(name)
		o := WorkerOccupancy{Worker: name, BusyNS: w.BusyNS(rep.SpanNS), Tasks: w.Tasks}
		if rep.SpanNS > 0 {
			o.Fraction = float64(o.BusyNS) / float64(rep.SpanNS)
		}
		out = append(out, o)
	}
	return out
}
