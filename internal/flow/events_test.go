package flow

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/events"
)

// eventsByType indexes a stream for assertions.
func eventsByType(evs []events.Event) map[events.Type][]events.Event {
	by := make(map[events.Type][]events.Event)
	for _, e := range evs {
		by[e.Type] = append(by[e.Type], e)
	}
	return by
}

// TestSchedulerEmitsTaskLifecycle: every task runs the full state
// machine — received, queued, assigned, running, done — with worker
// joins first, all stamped with non-decreasing monotonic times and
// consecutive sequence numbers.
func TestSchedulerEmitsTaskLifecycle(t *testing.T) {
	// One task per handout: every task is a handout head, so every task
	// has its own running event.
	s := NewScheduler()
	s.Batch = 1
	_, _, c := startClusterOn(t, s, 2, echoHandler)
	tasks := makeTasks(10)
	if _, err := c.Map(tasks, nil); err != nil {
		t.Fatal(err)
	}

	evs := s.Events().Snapshot()
	by := eventsByType(evs)
	if len(by[events.WorkerJoin]) != 2 {
		t.Errorf("worker_join events = %d, want 2", len(by[events.WorkerJoin]))
	}
	for _, ty := range []events.Type{events.TaskReceived, events.TaskQueued,
		events.TaskAssigned, events.TaskRunning, events.TaskDone} {
		if len(by[ty]) != len(tasks) {
			t.Errorf("%s events = %d, want %d", ty, len(by[ty]), len(tasks))
		}
	}
	if len(by[events.TaskFailed]) != 0 {
		t.Errorf("unexpected failed events: %+v", by[events.TaskFailed])
	}

	var lastSeq uint64
	var lastNS int64
	perTask := make(map[string]events.Type)
	order := map[events.Type]int{
		events.TaskReceived: 0, events.TaskQueued: 1, events.TaskAssigned: 2,
		events.TaskRunning: 3, events.TaskDone: 4,
	}
	for _, e := range evs {
		if e.Seq != lastSeq+1 {
			t.Fatalf("sequence gap: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.TimeNS < lastNS {
			t.Fatalf("monotonic stamp went backwards: %d after %d", e.TimeNS, lastNS)
		}
		lastNS = e.TimeNS
		if e.Type.TaskScoped() {
			if prev, seen := perTask[e.Task]; seen && order[e.Type] <= order[prev] {
				t.Fatalf("task %s transitioned %s after %s", e.Task, e.Type, prev)
			}
			perTask[e.Task] = e.Type
		}
	}
	for id, last := range perTask {
		if last != events.TaskDone {
			t.Errorf("task %s ended in state %s", id, last)
		}
	}

	// The stream replays offline: one busy interval per task, queue
	// drained, both workers observed.
	rep, err := events.ReplayEvents(evs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Intervals) != len(tasks) || rep.Total.Done != len(tasks) {
		t.Fatalf("replay: %d intervals, %d done, want %d", len(rep.Intervals), rep.Total.Done, len(tasks))
	}
	if len(rep.Workers()) != 2 {
		t.Fatalf("replay workers = %v", rep.Workers())
	}
}

// TestSchedulerEventsUseLabels: the submitting executor's trace tags
// (Task.Label) name the tasks in the event stream; unlabeled tasks fall
// back to the wire ID.
func TestSchedulerEventsUseLabels(t *testing.T) {
	s, _, c := startCluster(t, 1, echoHandler)
	tasks := makeTasks(4)
	tasks[0].Label = "DVU_00001"
	tasks[1].Label = "DVU_00001/m3"
	if _, err := c.Map(tasks, nil); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, e := range s.Events().Snapshot() {
		if e.Type == events.TaskDone {
			seen[e.Task] = true
		}
	}
	for _, want := range []string{"DVU_00001", "DVU_00001/m3", "t002", "t003"} {
		if !seen[want] {
			t.Errorf("done events missing task %q (saw %v)", want, seen)
		}
	}
	if seen["t000"] || seen["t001"] {
		t.Error("labeled tasks leaked their wire IDs into the event stream")
	}
}

// TestEventLogMatchesHub: the JSONL event log decodes to exactly the
// hub's history — the persisted artifact and the live stream are the
// same record — with contiguous sequences and no truncated marker, so
// it seeds a restarted scheduler's hub. The second case is one submit
// frame far larger than the log writer keeps pace with (40,000 tasks,
// some 160,000 events emitted in bursts): the writer follows the hub's
// history, so however far it falls behind it loses nothing.
func TestEventLogMatchesHub(t *testing.T) {
	for _, tc := range []struct{ tasks, workers int }{{6, 1}, {40000, 2}} {
		t.Run(fmt.Sprintf("tasks=%d", tc.tasks), func(t *testing.T) {
			if tc.tasks > 1000 && testing.Short() {
				t.Skip("40,000 tasks over sockets (~12 s under -race): skipped under -short")
			}
			var buf bytes.Buffer
			s := NewScheduler()
			s.EventLog = &buf
			_, _, c := startClusterOn(t, s, tc.workers, echoHandler)
			if _, err := c.Map(makeTasks(tc.tasks), nil); err != nil {
				t.Fatal(err)
			}
			// The event log is written by a follower of the hub's
			// history; a clean Close waits for it to catch up, which is
			// exactly the guarantee under test: the persisted log still
			// matches the hub record byte for byte.
			s.Close()

			logged, err := events.ReadLog(&buf)
			if err != nil {
				t.Fatal(err)
			}
			hist := s.Events().Snapshot()
			if len(logged) != len(hist) {
				t.Fatalf("log has %d events, hub has %d", len(logged), len(hist))
			}
			for i := range hist {
				if logged[i].Type == events.Truncated || logged[i].Seq != uint64(i)+1 {
					t.Fatalf("log record %d is %s at seq %d, want seq %d", i+1, logged[i].Type, logged[i].Seq, i+1)
				}
				if !reflect.DeepEqual(logged[i], hist[i]) {
					t.Fatalf("event %d differs: log %+v, hub %+v", i, logged[i], hist[i])
				}
			}
			if err := events.NewHub().Restore(logged); err != nil {
				t.Fatalf("a fresh hub refuses the log: %v", err)
			}
		})
	}
}

// TestRestoreEventsContinuesClock: a scheduler restarted on its own log
// continues the stream, the hub its sequence and Start its clock, so the
// first event after the restart follows the last restored one in both.
func TestRestoreEventsContinuesClock(t *testing.T) {
	const last = int64(time.Hour) // far past anything a fresh clock reads
	s := NewScheduler()
	if err := s.RestoreEvents([]events.Event{
		{Seq: 1, TimeNS: 0, Type: events.WorkerJoin, Worker: "w0"},
		{Seq: 2, TimeNS: last, Type: events.WorkerLeave, Worker: "w0"},
	}); err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	w := NewWorker("w1", echoHandler)
	if err := w.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	waitUntil(t, 5*time.Second, func() bool { return len(s.Events().Snapshot()) == 3 }, "the first event after the restart")
	if e := s.Events().Snapshot()[2]; e.Seq != 3 || e.Type != events.WorkerJoin || e.TimeNS < last {
		t.Fatalf("first event after the restart = %+v, want worker_join #3 at %d ns or later", e, last)
	}
}

// TestMonitorBacklogThenLive: a monitor that attaches mid-campaign first
// observes the full backlog, then live events — the same sequence as the
// persisted record, with no client cooperation.
func TestMonitorBacklogThenLive(t *testing.T) {
	s, _, c := startCluster(t, 2, echoHandler)
	if _, err := c.Map(makeTasks(5), nil); err != nil {
		t.Fatal(err)
	}
	backlog := s.Events().Snapshot()

	m, err := DialMonitor(DialOptions{Addr: s.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.ReadTimeout = 10 * time.Second

	for i, want := range backlog {
		got, err := m.Next()
		if err != nil {
			t.Fatalf("backlog event %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("backlog event %d = %+v, want %+v", i, got, want)
		}
	}

	// Live phase: a second batch streams to the attached monitor.
	late := makeTasks(3)
	for i := range late {
		late[i].ID = "late" + late[i].ID
	}
	if _, err := c.Map(late, nil); err != nil {
		t.Fatal(err)
	}
	liveDone := 0
	for liveDone < len(late) {
		e, err := m.Next()
		if err != nil {
			t.Fatalf("live stream: %v", err)
		}
		if e.Type == events.TaskDone && strings.HasPrefix(e.Task, "late") {
			liveDone++
		}
	}

	// Monitoring never perturbed the run: the full history still replays
	// cleanly and matches what the monitor saw so far.
	if _, err := events.ReplayEvents(s.Events().Snapshot()); err != nil {
		t.Fatal(err)
	}
}

// TestMonitorDetachAndSchedulerClose: closing the monitor fails its
// Next; a second monitor outliving the scheduler gets an error once the
// backlog is drained.
func TestMonitorDetachAndSchedulerClose(t *testing.T) {
	s, _, c := startCluster(t, 1, echoHandler)
	if _, err := c.Map(makeTasks(2), nil); err != nil {
		t.Fatal(err)
	}
	addr := s.ln.Addr().String()

	m1, err := DialMonitor(DialOptions{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	m1.Close()
	m1.Close() // idempotent
	if _, err := m1.Next(); err == nil {
		t.Fatal("Next on a closed monitor succeeded")
	}

	m2, err := DialMonitor(DialOptions{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m2.Close)
	m2.ReadTimeout = 10 * time.Second
	want := len(s.Events().Snapshot())
	for i := 0; i < want; i++ {
		if _, err := m2.Next(); err != nil {
			t.Fatalf("draining backlog (%d/%d): %v", i, want, err)
		}
	}
	s.Close()
	if _, err := m2.Next(); err == nil {
		t.Fatal("Next after scheduler close succeeded")
	}
}

// TestMonitorDetachReleasesConn: a monitor that disconnects from an
// idle scheduler (no events flowing) must be reaped promptly — the
// peer-close watchdog cancels the cursor instead of leaking the pump
// goroutine and socket until the next event.
func TestMonitorDetachReleasesConn(t *testing.T) {
	s, _, c := startCluster(t, 1, echoHandler)
	if _, err := c.Map(makeTasks(2), nil); err != nil {
		t.Fatal(err)
	}
	connCount := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.conns)
	}
	base := connCount()

	m, err := DialMonitor(DialOptions{Addr: s.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for connCount() != base+1 {
		if time.Now().After(deadline) {
			t.Fatalf("monitor conn never tracked: %d conns, base %d", connCount(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Detach with no further events: the scheduler must release the
	// connection without waiting for the next Emit.
	m.Close()
	for connCount() != base {
		if time.Now().After(deadline) {
			t.Fatalf("detached monitor conn still tracked: %d conns, base %d", connCount(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDialMonitorSchedulerFile mirrors the worker/client scheduler-file path.
func TestDialMonitorSchedulerFile(t *testing.T) {
	s, _, c := startCluster(t, 1, echoHandler)
	path := t.TempDir() + "/sched.json"
	if err := s.WriteSchedulerFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Map(makeTasks(1), nil); err != nil {
		t.Fatal(err)
	}
	m, err := DialMonitor(DialOptions{SchedulerFile: path})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.ReadTimeout = 10 * time.Second
	e, err := m.Next()
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != 1 {
		t.Fatalf("first event seq = %d, want 1", e.Seq)
	}
	if _, err := DialMonitor(DialOptions{SchedulerFile: t.TempDir() + "/missing.json"}); err == nil {
		t.Fatal("DialMonitor with a missing scheduler file succeeded")
	}
}
