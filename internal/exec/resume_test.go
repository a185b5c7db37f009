package exec

import (
	"fmt"
	"strings"
	"testing"
)

// TestMapSpecResumeSkipsCompleted is the resume contract on a spec
// dispatcher: completed tasks recompute locally (deterministic world), only
// the pending remainder crosses the wire, and the merged output is
// indistinguishable from a full run.
func TestMapSpecResumeSkipsCompleted(t *testing.T) {
	f := remoteCluster(t, 2)
	tr := &Trace{}
	f.SetTrace(tr)

	items := []num{3, 4, 5, 6, 7, 8}
	id := func(_ int, n num) string { return fmt.Sprintf("item-%d", n) }
	completed := map[string]bool{"item-3": true, "item-5": true, "item-7": true}

	out, err := MapSpecResume(f, "exectest/square", 1, items, id,
		func(_ int, n num) num { return n },
		func(_ int, n num) (num, error) { return n * n, nil }, // same pure function the kernel computes
		func(task string) bool { return completed[task] })
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range items {
		if out[i] != n*n {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], n*n)
		}
	}
	// The trace records only the dispatched remainder — this row-count
	// gap is how the e2e proves a resume re-ran strictly fewer tasks.
	if tr.Len() != 3 {
		t.Fatalf("trace has %d rows, want 3 dispatched tasks", tr.Len())
	}
	for _, row := range tr.Rows() {
		if completed[row.TaskID] {
			t.Fatalf("completed task %s was dispatched to the cluster", row.TaskID)
		}
	}
}

func TestMapSpecResumeAllCompleted(t *testing.T) {
	f := remoteCluster(t, 1)
	tr := &Trace{}
	f.SetTrace(tr)
	items := []num{1, 2, 3}
	out, err := MapSpecResume(f, "exectest/square", 1, items,
		func(_ int, n num) string { return fmt.Sprintf("item-%d", n) },
		func(_ int, n num) num { t.Fatal("arg builder ran with nothing to dispatch"); return 0 },
		func(_ int, n num) (num, error) { return n * 100, nil },
		func(string) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 100 || out[1] != 200 || out[2] != 300 {
		t.Fatalf("out = %v", out)
	}
	if tr.Len() != 0 {
		t.Fatalf("fully-resumed batch dispatched %d tasks", tr.Len())
	}
}

// TestMapSpecResumeRecomputeFailure: a completed task whose local
// recomputation errors means the resume log does not match this
// (seed, species) world — that must surface loudly, not resume quietly.
func TestMapSpecResumeRecomputeFailure(t *testing.T) {
	f := remoteCluster(t, 1)
	_, err := MapSpecResume(f, "exectest/square", 1, []num{1, 2},
		func(_ int, n num) string { return fmt.Sprintf("item-%d", n) },
		func(_ int, n num) num { return n },
		func(_ int, n num) (num, error) {
			if n == 1 {
				return 0, fmt.Errorf("wrong world")
			}
			return n, nil
		},
		func(string) bool { return true })
	if err == nil || !strings.Contains(err.Error(), "recomputing completed") {
		t.Fatalf("err = %v, want recompute failure", err)
	}
}

// TestMapSpecResumePoolIgnoresSkipSet: the pool runs the closure for
// every item anyway, so the skip-set is irrelevant there — a resumed
// in-process run is just a plain run.
func TestMapSpecResumePoolIgnoresSkipSet(t *testing.T) {
	pool := &Pool{Workers: 2}
	out, err := MapSpecResume(pool, "exectest/square", 1, []num{1, 2, 3}, nil,
		func(_ int, n num) num { t.Fatal("arg builder must not run on the pool"); return 0 },
		func(_ int, n num) (num, error) { return n + 10, nil },
		func(string) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 11 || out[1] != 12 || out[2] != 13 {
		t.Fatalf("pool resume out = %v", out)
	}
}
