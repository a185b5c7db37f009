package exec

import (
	"fmt"
	"testing"

	"repro/internal/events"
	"repro/internal/flow"
)

// doneLabels collects the task identities of the done events in a
// scheduler's history.
func doneLabels(hub *events.Hub) map[string]int {
	got := make(map[string]int)
	for _, e := range hub.Snapshot() {
		if e.Type == events.TaskDone {
			got[e.Task]++
		}
	}
	return got
}

// TestFlowDispatchSpecsFeedsEventLabels: the spec-dispatch path labels
// wire tasks with the caller's trace IDs; without IDs the label is the
// batch index — the same fallback the trace applies — never the opaque
// nonce-prefixed wire ID.
func TestFlowDispatchSpecsFeedsEventLabels(t *testing.T) {
	testKernels(t)
	sched := flow.NewScheduler()
	addr, err := sched.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	for i := 0; i < 2; i++ {
		w := flow.NewWorker(fmt.Sprintf("label-w%d", i), flow.SpecHandler())
		if err := w.Connect(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
	}
	f, err := Connect(flow.DialOptions{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })

	specs := make([][]byte, 3)
	ids := make([]string, 3)
	for i := range specs {
		specs[i] = specOf("exectest/square", i)
		ids[i] = fmt.Sprintf("PROT_%05d/m%d", i, i)
	}
	if _, err := f.DispatchSpecs("exectest/square", specs, ids); err != nil {
		t.Fatal(err)
	}
	hub := sched.Events()
	got := doneLabels(hub)
	for _, id := range ids {
		if got[id] != 1 {
			t.Errorf("done events for %q = %d, want 1 (all: %v)", id, got[id], got)
		}
	}

	if _, err := f.DispatchSpecs("exectest/square", specs[:2], nil); err != nil {
		t.Fatal(err)
	}
	got = doneLabels(hub)
	if got["0"] != 1 || got["1"] != 1 {
		t.Errorf("nil-ids batch labels: %v", got)
	}
	for label := range got {
		if len(label) > 20 {
			t.Errorf("opaque wire ID %q leaked into the event stream", label)
		}
	}
}
