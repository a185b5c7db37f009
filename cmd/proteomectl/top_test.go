package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/events"
)

// topEvents is a small multi-state campaign with deterministic stamps:
// w1 joins at 0, runs task a for 2 s and task b for 1 s (b fails), and
// the stream spans 4 s — so w1's occupancy is 3 s / 4 s = 75%.
func topEvents() []events.Event {
	evs := []events.Event{
		{TimeNS: 0, Type: events.WorkerJoin, Worker: "w1"},
		{TimeNS: 0, Type: events.TaskReceived, Task: "a", Campaign: "dvu"},
		{TimeNS: 0, Type: events.TaskQueued, Task: "a", Campaign: "dvu"},
		{TimeNS: 0, Type: events.TaskReceived, Task: "b", Campaign: "dvu"},
		{TimeNS: 0, Type: events.TaskQueued, Task: "b", Campaign: "dvu"},
		{TimeNS: 1e9, Type: events.TaskAssigned, Task: "a", Worker: "w1", Campaign: "dvu"},
		{TimeNS: 3e9, Type: events.TaskDone, Task: "a", Worker: "w1", Campaign: "dvu"},
		{TimeNS: 3e9, Type: events.TaskAssigned, Task: "b", Worker: "w1", Campaign: "dvu"},
		{TimeNS: 4e9, Type: events.TaskFailed, Task: "b", Worker: "w1", Campaign: "dvu", Err: "boom"},
	}
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
	}
	return evs
}

// TestRunTopFinalTable: the stream end triggers one last render whose
// header, campaign row, and worker occupancy all reflect the full stream.
func TestRunTopFinalTable(t *testing.T) {
	var buf bytes.Buffer
	opts := topOptions{interval: time.Hour} // ticker never fires; only the final render
	if err := runTop(&scriptedSource{evs: topEvents()}, &buf, opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		// 1 done over the 4 s span = 0.25 tasks/s.
		"top: queue=0 busy=0 workers=1 done=1 failed=1 dropped=0 0.25 tasks/s",
		"CAMPAIGN",
		"dvu                            0       0       1       1",
		"WORKER",
		// 2 closed intervals, 3 s busy, 75% of the 4 s connected span.
		"w1                    2      3.0s   75.0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("top output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[") {
		t.Errorf("clear=false output contains ANSI escapes:\n%s", out)
	}
}

// TestRunTopClearScreen: terminal mode prefixes each render with the ANSI
// clear sequence.
func TestRunTopClearScreen(t *testing.T) {
	var buf bytes.Buffer
	opts := topOptions{interval: time.Hour, clear: true}
	if err := runTop(&scriptedSource{evs: topEvents()}, &buf, opts); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "\x1b[2J\x1b[H") {
		t.Fatalf("clear=true render does not start with the clear sequence: %q", buf.String())
	}
}

// TestRunTopWorkerLossMarksGone: a lost worker's open interval is cut at
// the loss stamp and its row is flagged.
func TestRunTopWorkerLossMarksGone(t *testing.T) {
	evs := []events.Event{
		{Seq: 1, TimeNS: 0, Type: events.WorkerJoin, Worker: "w1"},
		{Seq: 2, TimeNS: 0, Type: events.TaskReceived, Task: "a"},
		{Seq: 3, TimeNS: 0, Type: events.TaskQueued, Task: "a"},
		{Seq: 4, TimeNS: 1e9, Type: events.TaskAssigned, Task: "a", Worker: "w1"},
		{Seq: 5, TimeNS: 2e9, Type: events.WorkerLost, Worker: "w1", Err: "silent"},
		{Seq: 6, TimeNS: 2e9, Type: events.TaskQueued, Task: "a", Attempt: 1},
	}
	var buf bytes.Buffer
	if err := runTop(&scriptedSource{evs: evs}, &buf, topOptions{interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// 1 s busy (cut at the loss) over the 2 s connected span = 50%.
	if !strings.Contains(out, "w1                    1      1.0s   50.0 gone") {
		t.Errorf("top output missing the cut-interval row for the lost worker:\n%s", out)
	}
	if !strings.Contains(out, "queue=1 busy=0 workers=0") {
		t.Errorf("top header does not reflect the requeue after the loss:\n%s", out)
	}
}

// TestRunTopBatchedHandoutOccupancy: a worker handed a four-task batch it
// acks in one frame held tasks for 1 s of its 2 s connected — 50%, not the
// 200% that summing the four one-second intervals gave.
func TestRunTopBatchedHandoutOccupancy(t *testing.T) {
	evs := []events.Event{{TimeNS: 0, Type: events.WorkerJoin, Worker: "w1"}}
	tasks := []string{"a", "b", "c", "d"}
	for _, task := range tasks {
		evs = append(evs,
			events.Event{TimeNS: 0, Type: events.TaskReceived, Task: task},
			events.Event{TimeNS: 0, Type: events.TaskQueued, Task: task})
	}
	for _, task := range tasks {
		evs = append(evs, events.Event{TimeNS: 1e9, Type: events.TaskAssigned, Task: task, Worker: "w1"})
	}
	evs = append(evs, events.Event{TimeNS: 1e9, Type: events.TaskRunning, Task: "a", Worker: "w1"})
	for _, task := range tasks {
		evs = append(evs, events.Event{TimeNS: 2e9, Type: events.TaskDone, Task: task, Worker: "w1"})
	}
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
	}
	var buf bytes.Buffer
	if err := runTop(&scriptedSource{evs: evs}, &buf, topOptions{interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "w1                    4      1.0s   50.0") {
		t.Errorf("top output missing the 4-task, 1.0s, 50%% row for w1:\n%s", out)
	}
}

// TestRunTopSnapshot: -metrics-snapshot folds the stream into the same
// series sched -http serves and prints one Prometheus scrape.
func TestRunTopSnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := runTop(&scriptedSource{evs: topEvents()}, &buf, topOptions{snapshot: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE flow_tasks_total counter",
		`flow_tasks_total{event="done",campaign="dvu"} 1`,
		`flow_tasks_total{event="failed",campaign="dvu"} 1`,
		"flow_queue_depth 0",
		"flow_workers_connected 1",
		"flow_task_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "top:") {
		t.Errorf("snapshot mode rendered the live table:\n%s", out)
	}
}

// TestRunTopSurfacesStreamErrors: only flow.ErrStreamEnd exits 0, in both
// modes — same contract as runMonitor.
func TestRunTopSurfacesStreamErrors(t *testing.T) {
	boom := errors.New("flow: monitor stream: invalid frame")
	for _, snapshot := range []bool{false, true} {
		var buf bytes.Buffer
		opts := topOptions{interval: time.Hour, snapshot: snapshot}
		err := runTop(&scriptedSource{evs: topEvents()[:3], failWith: boom}, &buf, opts)
		if !errors.Is(err, boom) {
			t.Errorf("snapshot=%v: runTop error = %v, want the stream error", snapshot, err)
		}
	}
}

func TestTopCmdFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := topCmd([]string{}, &buf); err == nil {
		t.Error("top with neither -connect nor -scheduler-file succeeded")
	}
	if err := topCmd([]string{"-connect", "x", "-scheduler-file", "y"}, &buf); err == nil {
		t.Error("top with both -connect and -scheduler-file succeeded")
	}
	if err := topCmd([]string{"-bogus"}, &buf); !errors.Is(err, errFlagParse) {
		t.Errorf("bad flag error = %v, want errFlagParse", err)
	}
}
