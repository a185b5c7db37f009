package events

import (
	"bytes"
	"fmt"
	"io"
)

// CompletedFromLog reads a JSONL event log (`sched -event-log`) and maps
// the payload of every task the logged run finished, as submitted, to
// the result payload its worker returned. The payload is the task's spec
// envelope, so a finished task is known by what it computed, not by its
// trace identity: a target's feature and relax tasks, or an inference
// task's 16 GB and 64 GB specs, never stand for each other, and a log of
// another seed, species or preset matches nothing.
//
// A done event pairs with the received event of the same lifecycle,
// keyed by (campaign, task); failed and dropped events close a lifecycle
// without a result. A (campaign, task) received again with another
// payload while its first lifecycle is open pairs nothing, so a resumed
// run dispatches it again; a gapped log (an overloaded async sink
// dropped events) likewise loses pairs, never gains a wrong one.
//
// A log torn mid-record by a killed scheduler is expected: the intact
// prefix is used. Only a log yielding no events at all fails, so a wrong
// path or a non-log file is caught loudly instead of silently resuming
// from nothing.
func CompletedFromLog(r io.Reader) (map[string][]byte, error) {
	evs, err := ReadLog(r)
	if err != nil && len(evs) == 0 {
		return nil, fmt.Errorf("events: resume log unreadable: %w", err)
	}
	type key struct{ campaign, task string }
	type lifecycle struct {
		payload []byte
		open    int  // lifecycles received and not yet closed
		mixed   bool // two of them carried different payloads
	}
	open := make(map[key]*lifecycle)
	done := make(map[string][]byte)
	for i := range evs {
		e := &evs[i]
		k := key{e.Campaign, e.Task}
		switch e.Type {
		case TaskReceived:
			if l := open[k]; l != nil {
				l.open++
				l.mixed = l.mixed || !bytes.Equal(l.payload, e.Payload)
			} else {
				open[k] = &lifecycle{payload: e.Payload, open: 1}
			}
		case TaskDone, TaskFailed, TaskDropped:
			l := open[k]
			if l == nil {
				continue
			}
			if e.Type == TaskDone && !l.mixed {
				done[string(l.payload)] = e.Payload
			}
			if l.open--; l.open == 0 {
				delete(open, k)
			}
		}
	}
	return done, nil
}
