package exec

import (
	"fmt"
	"strings"
	"testing"
)

// noClosure is the closure of a spec-dispatching test: MapSpecResume must
// never call it on a SpecDispatcher, resumed or not.
func noClosure(t *testing.T) func(int, num) (num, error) {
	return func(int, num) (num, error) {
		t.Error("closure ran on a spec dispatcher")
		return 0, fmt.Errorf("closure ran")
	}
}

// TestMapSpecResumeSkipsCompleted is the resume contract on a spec
// dispatcher: an item whose spec the log holds a result for is decoded
// from that result, only the remainder crosses the wire, and the merged
// output is indistinguishable from a full run.
func TestMapSpecResumeSkipsCompleted(t *testing.T) {
	f := remoteCluster(t, 2)
	tr := &Trace{}
	f.SetTrace(tr)

	items := []num{3, 4, 5, 6, 7, 8}
	id := func(_ int, n num) string { return fmt.Sprintf("item-%d", n) }
	done := map[string][]byte{}
	for _, n := range []int{3, 5, 7} {
		done[string(specOf("exectest/square", n))] = enc(n * n)
	}
	// A result logged for another kernel on the same argument is not this
	// item's result.
	done[string(specOf("exectest/failodd", 4))] = enc(-1)

	out, err := MapSpecResume(f, "exectest/square", 1, items, id,
		func(_ int, n num) num { return n }, noClosure(t), done)
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
		if row.TaskID == "item-3" || row.TaskID == "item-5" || row.TaskID == "item-7" {
			t.Fatalf("completed task %s was dispatched to the cluster", row.TaskID)
		}
	}
}

// TestMapSpecResumeAllCompleted: a batch whose every spec has a logged
// result dispatches nothing and computes nothing. The arg builder still
// runs once per item: a task is known by its spec.
func TestMapSpecResumeAllCompleted(t *testing.T) {
	f := remoteCluster(t, 1)
	tr := &Trace{}
	f.SetTrace(tr)
	items := []num{1, 2, 3}
	done := map[string][]byte{}
	for _, n := range items {
		done[string(specOf("exectest/square", int(n)))] = enc(int(n) * 100)
	}
	built := 0
	out, err := MapSpecResume(f, "exectest/square", 1, items,
		func(_ int, n num) string { return fmt.Sprintf("item-%d", n) },
		func(_ int, n num) num { built++; return n },
		noClosure(t), done)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 100 || out[1] != 200 || out[2] != 300 {
		t.Fatalf("out = %v, want the logged results", out)
	}
	if built != len(items) {
		t.Fatalf("arg builder ran %d times, want once per item (%d)", built, len(items))
	}
	if tr.Len() != 0 {
		t.Fatalf("fully-resumed batch dispatched %d tasks", tr.Len())
	}
}

// TestMapSpecResumeBadLoggedResult: a logged result is decoded exactly
// like a dispatched one, so one that does not decode — or is empty — is
// an error naming the kernel and the item's index, not a zero value.
func TestMapSpecResumeBadLoggedResult(t *testing.T) {
	f := remoteCluster(t, 1)
	for name, raw := range map[string][]byte{"torn": {0x80}, "empty": {}} {
		done := map[string][]byte{string(specOf("exectest/square", 2)): raw}
		_, err := MapSpecResume(f, "exectest/square", 1, []num{1, 2}, nil,
			func(_ int, n num) num { return n }, noClosure(t), done)
		if err == nil || !strings.Contains(err.Error(), "exectest/square result [1]") {
			t.Errorf("%s logged result: err = %v, want a decode error naming the kernel and index 1", name, err)
		}
	}
}

// TestMapSpecResumePoolIgnoresSkipSet: the pool runs the closure for
// every item anyway, so the logged results are irrelevant there — a
// resumed in-process run is just a plain run.
func TestMapSpecResumePoolIgnoresSkipSet(t *testing.T) {
	pool := &Pool{Workers: 2}
	done := map[string][]byte{string(specOf("exectest/square", 1)): enc(99)}
	out, err := MapSpecResume(pool, "exectest/square", 1, []num{1, 2, 3}, nil,
		func(_ int, n num) num { t.Fatal("arg builder must not run on the pool"); return 0 },
		func(_ int, n num) (num, error) { return n + 10, nil },
		done)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 11 || out[1] != 12 || out[2] != 13 {
		t.Fatalf("pool resume out = %v", out)
	}
}
