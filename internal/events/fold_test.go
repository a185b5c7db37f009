package events

import (
	"reflect"
	"testing"
)

// The CampaignView tests predate the Fold and keep their names: they pin
// the per-campaign tallies `proteomectl top` prints.
func TestCampaignViewTallies(t *testing.T) {
	v := NewFold()
	obs := func(typ Type, task, campaign string, attempt int) {
		v.Observe(&Event{Type: typ, Task: task, Campaign: campaign, Attempt: attempt, Worker: "w0"})
	}
	// Campaign "dvu": one task completes normally, one is mid-flight.
	obs(TaskReceived, "a", "dvu", 0)
	obs(TaskQueued, "a", "dvu", 0)
	obs(TaskAssigned, "a", "dvu", 0)
	obs(TaskRunning, "a", "dvu", 0)
	obs(TaskDone, "a", "dvu", 0)
	obs(TaskReceived, "b", "dvu", 0)
	obs(TaskQueued, "b", "dvu", 0)
	obs(TaskAssigned, "b", "dvu", 0)
	// Unnamed campaign: requeue after a worker death, then quarantine.
	obs(TaskReceived, "x", "", 0)
	obs(TaskQueued, "x", "", 0)
	obs(TaskAssigned, "x", "", 0)
	obs(TaskQueued, "x", "", 1) // requeue: running -> queued
	obs(TaskAssigned, "x", "", 0)
	obs(TaskFailed, "x", "", 2)
	obs(TaskQuarantined, "x", "", 2)
	// Worker events are fleet-scoped and must not disturb tallies.
	v.Observe(&Event{Type: WorkerJoin, Worker: "w1"})
	v.Observe(&Event{Type: WorkerLost, Worker: "w1"})

	if got, want := v.Campaigns(), []string{"", "dvu"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Campaigns() = %v, want %v", got, want)
	}
	if got, want := v.Campaign("dvu"), (Tally{Received: 2, Done: 1, Running: 1}); got != want {
		t.Errorf("dvu tally = %+v, want %+v", got, want)
	}
	if got, want := v.Campaign(""), (Tally{Received: 1, Failed: 1, Quarantined: 1, Retries: 1}); got != want {
		t.Errorf("unnamed tally = %+v, want %+v", got, want)
	}
	if got := v.Campaign("never-seen"); got != (Tally{}) {
		t.Errorf("unseen tally = %+v, want zero", got)
	}
	if want := (Tally{Received: 3, Done: 1, Failed: 1, Quarantined: 1, Running: 1, Retries: 1}); v.Total != want {
		t.Errorf("total = %+v, want %+v", v.Total, want)
	}
}

func TestCampaignViewDropRetiresQueued(t *testing.T) {
	v := observeAll(
		Event{Type: TaskReceived, Task: "a", Campaign: "c"},
		Event{Type: TaskQueued, Task: "a", Campaign: "c"},
		Event{Type: TaskDropped, Task: "a", Campaign: "c"},
	)
	got := v.Campaign("c")
	if got.Queued != 0 || got.Dropped != 1 {
		t.Fatalf("tally after drop = %+v, want queued 0 dropped 1", got)
	}
}

// TestFoldBatchIsOneBusyStretch: a worker handed a batch and acking it in
// one frame was busy for the batch's span, not for that span once per task
// — while each task still gets its own interval for the timeline.
func TestFoldBatchIsOneBusyStretch(t *testing.T) {
	f := NewFold()
	f.Observe(&Event{TimeNS: 0, Type: WorkerJoin, Worker: "w1"})
	tasks := []string{"a", "b", "c", "d"}
	for _, task := range tasks {
		f.Observe(&Event{TimeNS: 10, Type: TaskAssigned, Task: task, Worker: "w1"})
	}
	f.Observe(&Event{TimeNS: 11, Type: TaskRunning, Task: "a", Worker: "w1"})
	if w := f.Worker("w1"); w.BusyNS(15) != 5 {
		t.Fatalf("mid-batch busy = %d, want 5 (held since the handout at 10)", w.BusyNS(15))
	}
	closed := 0
	for _, task := range tasks {
		f.Observe(&Event{TimeNS: 20, Type: TaskDone, Task: task, Worker: "w1"})
		closed += len(f.Closed)
	}
	w := f.Worker("w1")
	if closed != 4 || w.Tasks != 4 {
		t.Fatalf("closed %d executions, worker counts %d, want 4 and 4", closed, w.Tasks)
	}
	if got := w.BusyNS(f.NowNS); got != 10 {
		t.Fatalf("busy = %d ns, want 10 (one stretch 10→20, not four)", got)
	}
	// A lone task's stretch starts where its execution does: at running.
	f.Observe(&Event{TimeNS: 30, Type: TaskAssigned, Task: "e", Worker: "w1"})
	f.Observe(&Event{TimeNS: 32, Type: TaskRunning, Task: "e", Worker: "w1"})
	f.Observe(&Event{TimeNS: 40, Type: TaskDone, Task: "e", Worker: "w1"})
	if got := f.Worker("w1").BusyNS(f.NowNS); got != 18 {
		t.Fatalf("busy = %d ns, want 18", got)
	}
}

// TestFoldWorkerBusyTime: w1 is busy 6 s of the 10 s span across two
// tasks; w2 runs one task for 2 s and is lost mid-second-task at 10 s, so
// that execution is cut at the loss stamp.
func TestFoldWorkerBusyTime(t *testing.T) {
	f := observeAll(
		Event{TimeNS: 0, Type: WorkerJoin, Worker: "w1"},
		Event{TimeNS: 0, Type: WorkerJoin, Worker: "w2"},
		Event{TimeNS: 0, Type: TaskReceived, Task: "a"},
		Event{TimeNS: 0, Type: TaskQueued, Task: "a"},
		Event{TimeNS: 0, Type: TaskReceived, Task: "c"},
		Event{TimeNS: 0, Type: TaskQueued, Task: "c"},
		Event{TimeNS: 1e9, Type: TaskAssigned, Task: "a", Worker: "w1"},
		Event{TimeNS: 2e9, Type: TaskAssigned, Task: "c", Worker: "w2"},
		Event{TimeNS: 4e9, Type: TaskDone, Task: "c", Worker: "w2"},
		Event{TimeNS: 5e9, Type: TaskDone, Task: "a", Worker: "w1"},
		Event{TimeNS: 5e9, Type: TaskReceived, Task: "b"},
		Event{TimeNS: 5e9, Type: TaskQueued, Task: "b"},
		Event{TimeNS: 6e9, Type: TaskAssigned, Task: "b", Worker: "w1"},
		Event{TimeNS: 8e9, Type: TaskDone, Task: "b", Worker: "w1"},
		Event{TimeNS: 8e9, Type: TaskReceived, Task: "d"},
		Event{TimeNS: 8e9, Type: TaskQueued, Task: "d"},
		Event{TimeNS: 9e9, Type: TaskAssigned, Task: "d", Worker: "w2"},
		Event{TimeNS: 10e9, Type: WorkerLost, Worker: "w2", Err: "silent"},
	)
	if got := f.Workers(); !reflect.DeepEqual(got, []string{"w1", "w2"}) {
		t.Fatalf("workers = %v, want w1, w2", got)
	}
	if w1 := f.Worker("w1"); w1.BusyNS(f.NowNS) != 6e9 || w1.Tasks != 2 {
		t.Errorf("w1 = %+v busy %d, want busy 6e9 over 2 tasks", w1, w1.BusyNS(f.NowNS))
	}
	// w2: task c 2 s + task d cut at the 10 s loss stamp = 3 s busy.
	if w2 := f.Worker("w2"); w2.BusyNS(f.NowNS) != 3e9 || w2.Tasks != 2 || w2.Connected {
		t.Errorf("w2 = %+v busy %d, want busy 3e9 over 2 tasks, gone", w2, w2.BusyNS(f.NowNS))
	}
	if len(f.Closed) != 1 || !f.Closed[0].Lost || f.Closed[0].Task != "d" || f.Closed[0].EndNS != 10e9 {
		t.Errorf("loss closed %+v, want task d cut at 10e9", f.Closed)
	}
}

// TestFoldSameLabelTwoCampaigns: labels are unique within a campaign only,
// so two tenants running the same species do not share an execution.
func TestFoldSameLabelTwoCampaigns(t *testing.T) {
	f := observeAll(
		Event{TimeNS: 1, Type: TaskAssigned, Task: "DVU_00001", Campaign: "x", Worker: "w1"},
		Event{TimeNS: 2, Type: TaskAssigned, Task: "DVU_00001", Campaign: "y", Worker: "w2"},
		Event{TimeNS: 5, Type: TaskDone, Task: "DVU_00001", Campaign: "x", Worker: "w1"},
	)
	if len(f.Closed) != 1 || f.Closed[0].Worker != "w1" || f.Closed[0].StartNS != 1 {
		t.Fatalf("closed %+v, want campaign x's execution on w1", f.Closed)
	}
	if f.Campaign("y").Running != 1 || f.Total.Running != 1 {
		t.Fatalf("campaign y = %+v, total %+v: y's task is still running", f.Campaign("y"), f.Total)
	}
}

// TestFoldClampsStamps: a spliced log cannot produce a negative duration.
func TestFoldClampsStamps(t *testing.T) {
	f := observeAll(
		Event{TimeNS: -5, Type: WorkerJoin, Worker: "w1"},
		Event{TimeNS: 100, Type: TaskAssigned, Task: "a", Worker: "w1"},
		Event{TimeNS: 40, Type: TaskDone, Task: "a", Worker: "w1"},
	)
	if f.FirstNS != 0 || f.NowNS != 100 || f.Closed[0].StartNS != 100 || f.Closed[0].EndNS != 100 {
		t.Fatalf("first=%d now=%d closed=%+v", f.FirstNS, f.NowNS, f.Closed)
	}
	if err := CheckFold(f); err != nil {
		t.Fatal(err)
	}
}
