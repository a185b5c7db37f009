package events

import (
	"reflect"
	"testing"
)

// stream stamps a hand-written event sequence the way a Hub would, so
// replay tests read as scheduler scenarios.
func stream(evs ...Event) []Event {
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
	}
	return evs
}

// observeAll feeds evs to a fresh fold.
func observeAll(evs ...Event) *Fold {
	f := NewFold()
	for i := range evs {
		f.Observe(&evs[i])
	}
	return f
}

// The Tracker tests predate the Fold and keep their names: they pin the
// global counters a live monitor prints.
func TestTrackerLifecycle(t *testing.T) {
	f := NewFold()
	obs := func(e Event) { f.Observe(&e) }
	obs(Event{Type: WorkerJoin, Worker: "w1", TimeNS: 1})
	obs(Event{Type: TaskReceived, Task: "a", TimeNS: 2})
	obs(Event{Type: TaskQueued, Task: "a", TimeNS: 2})
	if f.Total.Queued != 1 || f.Total.Received != 1 {
		t.Fatalf("after queue: depth=%d received=%d", f.Total.Queued, f.Total.Received)
	}
	obs(Event{Type: TaskAssigned, Task: "a", Worker: "w1", TimeNS: 3})
	obs(Event{Type: TaskRunning, Task: "a", Worker: "w1", TimeNS: 3})
	if f.Total.Queued != 0 || f.Total.Running != 1 {
		t.Fatalf("after assign: depth=%d busy=%d", f.Total.Queued, f.Total.Running)
	}
	obs(Event{Type: TaskDone, Task: "a", Worker: "w1", TimeNS: 9})
	if f.Total.Done != 1 || f.Total.Running != 0 || f.NowNS != 9 {
		t.Fatalf("after done: done=%d busy=%d last=%d", f.Total.Done, f.Total.Running, f.NowNS)
	}
	if want := []Interval{{Task: "a", Worker: "w1", AssignedNS: 3, StartNS: 3, EndNS: 9}}; !reflect.DeepEqual(f.Closed, want) {
		t.Fatalf("done closed %+v, want %+v", f.Closed, want)
	}
	obs(Event{Type: WorkerLeave, Worker: "w1", TimeNS: 10})
	if f.Connected != 0 || len(f.Closed) != 0 {
		t.Fatalf("after leave: connected=%d closed=%+v", f.Connected, f.Closed)
	}
	if w := f.Worker("w1"); w.Connected || w.Tasks != 1 || w.BusyNS(f.NowNS) != 6 || w.ConnectedNS(f.NowNS) != 9 {
		t.Fatalf("worker after leave: %+v", w)
	}
}

func TestTrackerRequeueAndDrop(t *testing.T) {
	f := observeAll(
		Event{Type: TaskQueued, Task: "a"},
		Event{Type: TaskAssigned, Task: "a", Worker: "w1"},
		// Worker dies: the scheduler requeues the in-flight task, and
		// until it does the task still counts as running.
		Event{Type: WorkerLeave, Worker: "w1"},
	)
	if f.Total.Running != 1 || len(f.Closed) != 1 || !f.Closed[0].Lost {
		t.Fatalf("after leave: busy=%d closed=%+v", f.Total.Running, f.Closed)
	}
	f.Observe(&Event{Type: TaskQueued, Task: "a", Attempt: 1})
	if f.Total.Queued != 1 || f.Total.Running != 0 || f.Total.Retries != 1 {
		t.Fatalf("after requeue: %+v", f.Total)
	}
	f.Observe(&Event{Type: TaskDropped, Task: "a"})
	if f.Total.Queued != 0 || f.Total.Dropped != 1 {
		t.Fatalf("after drop: depth=%d dropped=%d", f.Total.Queued, f.Total.Dropped)
	}
	// Defensive: depth never goes negative on a malformed stream.
	f.Observe(&Event{Type: TaskDropped, Task: "b"})
	f.Observe(&Event{Type: TaskAssigned, Task: "c", Worker: "w2"})
	if f.Total.Queued != 0 {
		t.Fatalf("depth went negative: %d", f.Total.Queued)
	}
	if err := CheckFold(f); err != nil {
		t.Fatal(err)
	}
}

// TestReplayReconstructsRun is the core offline-reconstruction contract:
// a log alone yields the per-worker busy intervals and the queue-depth
// series of the campaign.
func TestReplayReconstructsRun(t *testing.T) {
	evs := stream(
		Event{TimeNS: 0, Type: WorkerJoin, Worker: "w1"},
		Event{TimeNS: 1, Type: WorkerJoin, Worker: "w2"},
		Event{TimeNS: 10, Type: TaskReceived, Task: "a"},
		Event{TimeNS: 10, Type: TaskQueued, Task: "a"},
		Event{TimeNS: 10, Type: TaskReceived, Task: "b"},
		Event{TimeNS: 10, Type: TaskQueued, Task: "b"},
		Event{TimeNS: 11, Type: TaskAssigned, Task: "a", Worker: "w1"},
		Event{TimeNS: 12, Type: TaskRunning, Task: "a", Worker: "w1"},
		Event{TimeNS: 13, Type: TaskAssigned, Task: "b", Worker: "w2"},
		Event{TimeNS: 13, Type: TaskRunning, Task: "b", Worker: "w2"},
		Event{TimeNS: 50, Type: TaskDone, Task: "a", Worker: "w1"},
		Event{TimeNS: 60, Type: TaskFailed, Task: "b", Worker: "w2", Err: "boom"},
	)
	r, err := ReplayEvents(evs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Events != len(evs) || r.NowNS != 60 {
		t.Fatalf("events=%d now=%d", r.Events, r.NowNS)
	}
	if !reflect.DeepEqual(r.Tasks, []string{"a", "b"}) {
		t.Fatalf("tasks = %v", r.Tasks)
	}
	if !reflect.DeepEqual(r.Workers(), []string{"w1", "w2"}) {
		t.Fatalf("workers = %v", r.Workers())
	}
	wantIntervals := []Interval{
		{Task: "a", Worker: "w1", AssignedNS: 11, StartNS: 12, EndNS: 50},
		{Task: "b", Worker: "w2", AssignedNS: 13, StartNS: 13, EndNS: 60, Failed: true},
	}
	if !reflect.DeepEqual(r.Intervals, wantIntervals) {
		t.Fatalf("intervals = %+v", r.Intervals)
	}
	wantDepth := []DepthPoint{
		{TimeNS: 10, Depth: 2},
		{TimeNS: 11, Depth: 1},
		{TimeNS: 13, Depth: 0},
	}
	if !reflect.DeepEqual(r.Depth, wantDepth) {
		t.Fatalf("depth = %+v", r.Depth)
	}
	maxDepth := 0
	for _, d := range r.Depth {
		maxDepth = max(maxDepth, d.Depth)
	}
	if r.Total.Done != 1 || r.Total.Failed != 1 || maxDepth != 2 {
		t.Fatalf("done=%d failed=%d maxdepth=%d", r.Total.Done, r.Total.Failed, maxDepth)
	}
	if w1, w2 := r.Worker("w1").BusyNS(r.NowNS), r.Worker("w2").BusyNS(r.NowNS); w1 != 38 || w2 != 47 {
		t.Fatalf("busy = %d, %d, want 38, 47", w1, w2)
	}
	if iv := r.Intervals[0]; iv.StartNS != 12 || iv.EndNS != 50 {
		t.Fatalf("first interval = [%d, %d], want [12, 50]", iv.StartNS, iv.EndNS)
	}
}

// TestReplayWorkerDeath: a worker dying mid-task closes its interval at
// the leave stamp (Lost) and the requeued task runs again elsewhere.
func TestReplayWorkerDeath(t *testing.T) {
	evs := stream(
		Event{TimeNS: 0, Type: WorkerJoin, Worker: "w1"},
		Event{TimeNS: 0, Type: WorkerJoin, Worker: "w2"},
		Event{TimeNS: 5, Type: TaskReceived, Task: "a"},
		Event{TimeNS: 5, Type: TaskQueued, Task: "a"},
		Event{TimeNS: 6, Type: TaskAssigned, Task: "a", Worker: "w1"},
		Event{TimeNS: 6, Type: TaskRunning, Task: "a", Worker: "w1"},
		Event{TimeNS: 20, Type: WorkerLeave, Worker: "w1"},
		Event{TimeNS: 20, Type: TaskQueued, Task: "a"},
		Event{TimeNS: 21, Type: TaskAssigned, Task: "a", Worker: "w2"},
		Event{TimeNS: 21, Type: TaskRunning, Task: "a", Worker: "w2"},
		Event{TimeNS: 40, Type: TaskDone, Task: "a", Worker: "w2"},
	)
	r, err := ReplayEvents(evs)
	if err != nil {
		t.Fatal(err)
	}
	wantIntervals := []Interval{
		{Task: "a", Worker: "w1", AssignedNS: 6, StartNS: 6, EndNS: 20, Lost: true},
		{Task: "a", Worker: "w2", AssignedNS: 21, StartNS: 21, EndNS: 40},
	}
	if !reflect.DeepEqual(r.Intervals, wantIntervals) {
		t.Fatalf("intervals = %+v", r.Intervals)
	}
	// Depth: queued(1) → assigned(0) → requeue(1) → assigned(0).
	wantDepth := []DepthPoint{
		{TimeNS: 5, Depth: 1},
		{TimeNS: 6, Depth: 0},
		{TimeNS: 20, Depth: 1},
		{TimeNS: 21, Depth: 0},
	}
	if !reflect.DeepEqual(r.Depth, wantDepth) {
		t.Fatalf("depth = %+v", r.Depth)
	}
	if r.Total.Done != 1 {
		t.Fatalf("done = %d", r.Total.Done)
	}
}

func TestReplayRejectsBadStreams(t *testing.T) {
	// Non-increasing sequence numbers.
	bad := []Event{
		{Seq: 1, Type: TaskQueued, Task: "a"},
		{Seq: 1, Type: TaskAssigned, Task: "a", Worker: "w"},
	}
	if _, err := ReplayEvents(bad); err == nil {
		t.Error("replay accepted a repeated sequence number")
	}
	// Invalid event inside the stream.
	bad = []Event{
		{Seq: 1, Type: TaskQueued, Task: "a"},
		{Seq: 2, Type: TaskDone},
	}
	if _, err := ReplayEvents(bad); err == nil {
		t.Error("replay accepted an invalid event")
	}
	// An empty stream replays to an empty result: no interval, no worker,
	// no span.
	r, err := ReplayEvents(nil)
	if err != nil || r.Events != 0 || len(r.Intervals) != 0 || len(r.Workers()) != 0 || r.NowNS != 0 {
		t.Errorf("empty replay: %+v, %v", r, err)
	}
}

// TestReplayDoneForUnknownTask: completions the replay never saw
// assigned still count, but produce no interval.
func TestReplayDoneForUnknownTask(t *testing.T) {
	r, err := ReplayEvents(stream(
		Event{TimeNS: 1, Type: TaskDone, Task: "ghost", Worker: "w1"},
	))
	if err != nil {
		t.Fatal(err)
	}
	if r.Total.Done != 1 || len(r.Intervals) != 0 {
		t.Fatalf("done=%d intervals=%d", r.Total.Done, len(r.Intervals))
	}
}
