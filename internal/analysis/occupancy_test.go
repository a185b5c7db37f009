package analysis

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/flow"
)

func TestReplayOccupancy(t *testing.T) {
	// w1 is busy 6s of the 10s span across two tasks; w2 runs one task for
	// 2s and is lost mid-second-task at 10s (interval closed by the loss).
	evs := []events.Event{
		{Seq: 1, TimeNS: 0, Type: events.WorkerJoin, Worker: "w1"},
		{Seq: 2, TimeNS: 0, Type: events.WorkerJoin, Worker: "w2"},
		{Seq: 3, TimeNS: 0, Type: events.TaskReceived, Task: "a"},
		{Seq: 4, TimeNS: 0, Type: events.TaskQueued, Task: "a"},
		{Seq: 5, TimeNS: 0, Type: events.TaskReceived, Task: "c"},
		{Seq: 6, TimeNS: 0, Type: events.TaskQueued, Task: "c"},
		{Seq: 7, TimeNS: 1e9, Type: events.TaskAssigned, Task: "a", Worker: "w1"},
		{Seq: 8, TimeNS: 2e9, Type: events.TaskAssigned, Task: "c", Worker: "w2"},
		{Seq: 9, TimeNS: 4e9, Type: events.TaskDone, Task: "c", Worker: "w2"},
		{Seq: 10, TimeNS: 5e9, Type: events.TaskDone, Task: "a", Worker: "w1"},
		{Seq: 11, TimeNS: 5e9, Type: events.TaskReceived, Task: "b"},
		{Seq: 12, TimeNS: 5e9, Type: events.TaskQueued, Task: "b"},
		{Seq: 13, TimeNS: 6e9, Type: events.TaskAssigned, Task: "b", Worker: "w1"},
		{Seq: 14, TimeNS: 8e9, Type: events.TaskDone, Task: "b", Worker: "w1"},
		{Seq: 15, TimeNS: 8e9, Type: events.TaskReceived, Task: "d"},
		{Seq: 16, TimeNS: 8e9, Type: events.TaskQueued, Task: "d"},
		{Seq: 17, TimeNS: 9e9, Type: events.TaskAssigned, Task: "d", Worker: "w2"},
		{Seq: 18, TimeNS: 10e9, Type: events.WorkerLost, Worker: "w2", Err: "silent"},
	}
	rep, err := events.ReplayEvents(evs)
	if err != nil {
		t.Fatal(err)
	}
	occ := ReplayOccupancy(rep)
	if len(occ) != 2 {
		t.Fatalf("got %d workers, want 2: %+v", len(occ), occ)
	}
	w1, w2 := occ[0], occ[1]
	if w1.Worker != "w1" || w2.Worker != "w2" {
		t.Fatalf("order = %q,%q, want w1,w2", w1.Worker, w2.Worker)
	}
	if w1.BusyNS != 6e9 || w1.Tasks != 2 {
		t.Errorf("w1 = %+v, want busy 6e9 over 2 tasks", w1)
	}
	if math.Abs(w1.Fraction-0.6) > 1e-12 {
		t.Errorf("w1 fraction = %v, want 0.6", w1.Fraction)
	}
	// w2: task c 2s + task d cut at the 10s loss stamp = 3s busy.
	if w2.BusyNS != 3e9 || w2.Tasks != 2 {
		t.Errorf("w2 = %+v, want busy 3e9 over 2 tasks", w2)
	}
	if math.Abs(w2.Fraction-0.3) > 1e-12 {
		t.Errorf("w2 fraction = %v, want 0.3", w2.Fraction)
	}
}

// TestReplayOccupancyBatchedHandout drives a real scheduler handing one
// worker 16 tasks per frame: the worker is busy for at most the whole run,
// however many tasks it held at once. Summing per-task intervals read 15.79
// here.
func TestReplayOccupancyBatchedHandout(t *testing.T) {
	s := flow.NewScheduler()
	s.Batch = 16
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := flow.NewWorker("w0", func(task flow.Task) (json.RawMessage, error) {
		time.Sleep(time.Millisecond)
		return task.Payload, nil
	})
	if err := w.Connect(addr); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c, err := flow.DialClient(flow.DialOptions{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tasks := make([]flow.Task, 64)
	for i := range tasks {
		tasks[i] = flow.Task{ID: fmt.Sprintf("t%02d", i), Payload: []byte(`1`)}
	}
	if _, err := c.Map(tasks, nil); err != nil {
		t.Fatal(err)
	}
	rep, err := events.ReplayEvents(s.Events().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Intervals) != 64 {
		t.Fatalf("replay has %d intervals, want one per task (64)", len(rep.Intervals))
	}
	occ := ReplayOccupancy(rep)
	if len(occ) != 1 || occ[0].Tasks != 64 {
		t.Fatalf("occupancy = %+v, want one worker with 64 tasks", occ)
	}
	if f := occ[0].Fraction; f <= 0 || f > 1 {
		t.Fatalf("worker busy fraction = %.2f, want in (0, 1]", f)
	}
}

func TestReplayOccupancyEmpty(t *testing.T) {
	rep, err := events.ReplayEvents(nil)
	if err != nil {
		t.Fatal(err)
	}
	if occ := ReplayOccupancy(rep); len(occ) != 0 {
		t.Fatalf("empty replay yielded %+v", occ)
	}
}
