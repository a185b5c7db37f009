package events

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// emitN emits n task events ("t001"...) and returns the hub.
func emitN(t *testing.T, h *Hub, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		h.Emit(Event{Type: TaskReceived, Task: taskName(i)})
	}
}

func taskName(i int) string {
	return "t" + string(rune('0'+i/100%10)) + string(rune('0'+i/10%10)) + string(rune('0'+i%10))
}

func TestHubBoundedBacklogEvictsOldest(t *testing.T) {
	h := NewHub()
	h.SetLimit(5)
	emitN(t, h, 12)
	snap := h.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("retained %d events, want 5", len(snap))
	}
	if snap[0].Seq != 8 || snap[4].Seq != 12 {
		t.Fatalf("retained window [%d, %d], want [8, 12]", snap[0].Seq, snap[4].Seq)
	}
	// Sequence numbering keeps counting past eviction.
	e := h.Emit(Event{Type: TaskReceived, Task: "late"})
	if e.Seq != 13 {
		t.Fatalf("next Seq = %d, want 13", e.Seq)
	}
}

func TestHubBoundedBacklogSinksSeeEverything(t *testing.T) {
	h := NewHub()
	h.SetLimit(3)
	var buf bytes.Buffer
	h.AddSink(LogSink(&buf))
	emitN(t, h, 10)
	logged, err := ReadLog(&buf)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if len(logged) != 10 {
		t.Fatalf("sink recorded %d events, want all 10 despite limit 3", len(logged))
	}
}

func TestCursorTruncatedMarkerAfterEviction(t *testing.T) {
	h := NewHub()
	h.SetLimit(4)
	emitN(t, h, 10)
	h.Close()
	cur := h.Subscribe()
	first, ok := cur.Next()
	if !ok {
		t.Fatal("cursor returned no events")
	}
	if first.Type != Truncated {
		t.Fatalf("first event type %q, want truncated marker", first.Type)
	}
	if first.Seq != 6 {
		t.Fatalf("marker Seq = %d, want 6 (events 1-6 evicted)", first.Seq)
	}
	if !strings.Contains(first.Err, "6 events evicted") {
		t.Fatalf("marker Err = %q, want eviction count", first.Err)
	}
	var got []Event
	for {
		e, ok := cur.Next()
		if !ok {
			break
		}
		got = append(got, e)
	}
	if len(got) != 4 {
		t.Fatalf("cursor delivered %d events after marker, want 4", len(got))
	}
	for i, e := range got {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("event %d Seq = %d, want %d", i, e.Seq, want)
		}
	}
	// The marker + retained tail still replays as a valid stream
	// (strictly increasing sequences), so a monitor's JSONL capture that
	// starts with the marker remains replayable.
	if _, err := ReplayEvents(append([]Event{first}, got...)); err != nil {
		t.Fatalf("ReplayEvents on marker-prefixed stream: %v", err)
	}
}

func TestCursorNoMarkerWithoutEviction(t *testing.T) {
	h := NewHub()
	h.SetLimit(10)
	emitN(t, h, 5)
	h.Close()
	cur := h.Subscribe()
	e, ok := cur.Next()
	if !ok || e.Type == Truncated {
		t.Fatalf("first event = %v ok=%v, want plain first event", e, ok)
	}
	if e.Seq != 1 {
		t.Fatalf("first Seq = %d, want 1", e.Seq)
	}
}

// TestHubRestoreContinuesStream: a restored hub continues the sequence and
// touches no time — the restored events keep their stamps, and the next
// Emit keeps the one its caller gave, earlier than the last restored or not
// (continuing the clock is the scheduler's business).
func TestHubRestoreContinuesStream(t *testing.T) {
	// Record a stream on one hub (the crashed scheduler)...
	h1 := NewHub()
	h1.Emit(Event{TimeNS: 10, Type: WorkerJoin, Worker: "w1"})
	h1.Emit(Event{TimeNS: 20, Type: TaskReceived, Task: "a"})
	h1.Emit(Event{TimeNS: 30, Type: TaskQueued, Task: "a"})
	recorded := h1.Snapshot()

	// ...and restore it into a fresh one (the restarted scheduler).
	h2 := NewHub()
	if err := h2.Restore(recorded); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	e := h2.Emit(Event{TimeNS: 3, Type: TaskAssigned, Task: "a", Worker: "w1"})
	if e.Seq != 4 {
		t.Fatalf("post-restore Seq = %d, want 4", e.Seq)
	}
	if e.TimeNS != 3 {
		t.Fatalf("post-restore stamp = %d, want the emitter's 3", e.TimeNS)
	}
	if got := h2.Snapshot()[:3]; !slices.EqualFunc(got, recorded, sameEvent) {
		t.Fatalf("restored events = %+v, want them as recorded, %+v", got, recorded)
	}
	// A subscriber attaching after the restart replays the full stream.
	h2.Close()
	cur := h2.Subscribe()
	var seqs []uint64
	for {
		ev, ok := cur.Next()
		if !ok {
			break
		}
		seqs = append(seqs, ev.Seq)
	}
	if len(seqs) != 4 || seqs[0] != 1 || seqs[3] != 4 {
		t.Fatalf("restored backlog seqs = %v, want [1 2 3 4]", seqs)
	}
	if _, err := ReplayEvents(h2.Snapshot()); err != nil {
		t.Fatalf("ReplayEvents across restore: %v", err)
	}
}

func TestHubRestoreRejectsBadStreams(t *testing.T) {
	h := NewHub()
	if err := h.Restore([]Event{{Seq: 2, Type: TaskReceived, Task: "a"}}); err == nil {
		t.Fatal("Restore accepted a stream not starting at seq 1")
	}
	h = NewHub()
	if err := h.Restore([]Event{
		{Seq: 1, Type: TaskReceived, Task: "a"},
		{Seq: 3, Type: TaskQueued, Task: "a"},
	}); err == nil {
		t.Fatal("Restore accepted a gapped stream")
	}
	h = NewHub()
	h.Emit(Event{Type: WorkerJoin, Worker: "w"})
	if err := h.Restore([]Event{{Seq: 1, Type: TaskReceived, Task: "a"}}); err == nil {
		t.Fatal("Restore accepted a hub that already emitted")
	}
}

// logOf encodes events as a JSONL event log, stamping sequences.
func logOf(evs ...Event) *bytes.Buffer {
	var buf bytes.Buffer
	h := NewHub()
	h.AddSink(LogSink(&buf))
	for _, e := range evs {
		h.Emit(e)
	}
	return &buf
}

// TestCompletedFromLogPairsLifecycles: a done event maps the payload its
// lifecycle was received with to the result it carries; failed, dropped
// and unfinished tasks map nothing, and a (campaign, task) pair is one
// lifecycle key, so one task name in two campaigns pairs twice.
func TestCompletedFromLogPairsLifecycles(t *testing.T) {
	log := logOf(
		Event{Type: TaskReceived, Task: "a", Payload: []byte("spec-a")},
		Event{Type: TaskQueued, Task: "a"},
		Event{Type: TaskReceived, Task: "a", Campaign: "pilot", Payload: []byte("spec-a2")},
		Event{Type: TaskDone, Task: "a", Worker: "w1", Payload: []byte("res-a")},
		Event{Type: TaskReceived, Task: "b", Payload: []byte("spec-b")},
		Event{Type: TaskFailed, Task: "b", Worker: "w1", Err: "boom"},
		Event{Type: TaskReceived, Task: "c", Payload: []byte("spec-c")},
		Event{Type: TaskDropped, Task: "c"},
		Event{Type: TaskReceived, Task: "d", Payload: []byte("spec-d")},
		Event{Type: TaskDone, Task: "a", Campaign: "pilot", Worker: "w2", Payload: []byte("res-a2")},
		// A done with no open lifecycle pairs nothing.
		Event{Type: TaskDone, Task: "e", Worker: "w1", Payload: []byte("res-e")},
		// The relax task of a target whose feature task finished above:
		// same name, another spec.
		Event{Type: TaskReceived, Task: "a", Payload: []byte("relax-a")},
	)
	got, err := CompletedFromLog(log)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{"spec-a": []byte("res-a"), "spec-a2": []byte("res-a2")}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CompletedFromLog = %q, want %q", got, want)
	}
}

// TestCompletedFromLogReceivedTwice: a task name received again with
// another payload while its first lifecycle is open cannot say which
// result belongs to which payload, so neither pairs and a resume
// dispatches both again. Received again with the same payload (a client
// re-submitting after a scheduler restart), the result is the same
// either way and pairs.
func TestCompletedFromLogReceivedTwice(t *testing.T) {
	got, err := CompletedFromLog(logOf(
		Event{Type: TaskReceived, Task: "x", Payload: []byte("spec-1")},
		Event{Type: TaskReceived, Task: "x", Payload: []byte("spec-2")},
		Event{Type: TaskDone, Task: "x", Worker: "w1", Payload: []byte("res-1")},
		Event{Type: TaskDone, Task: "x", Worker: "w1", Payload: []byte("res-2")},
		// Both lifecycles are closed: the name is free again.
		Event{Type: TaskReceived, Task: "x", Payload: []byte("spec-3")},
		Event{Type: TaskDone, Task: "x", Worker: "w1", Payload: []byte("res-3")},
		Event{Type: TaskReceived, Task: "y", Payload: []byte("spec-y")},
		Event{Type: TaskReceived, Task: "y", Payload: []byte("spec-y")},
		Event{Type: TaskDone, Task: "y", Worker: "w1", Payload: []byte("res-y")},
	))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{"spec-3": []byte("res-3"), "spec-y": []byte("res-y")}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CompletedFromLog = %q, want %q", got, want)
	}
}

// TestCompletedFromLog: a log torn by a killed scheduler keeps
// its intact prefix; a file that is not a log is an error.
func TestCompletedFromLog(t *testing.T) {
	log := logOf(
		Event{Type: TaskReceived, Task: "a", Payload: []byte("spec-a")},
		Event{Type: TaskDone, Task: "a", Worker: "w1", Payload: []byte("res-a")},
		Event{Type: TaskReceived, Task: "b", Payload: []byte("spec-b")},
	)
	torn := append(log.Bytes(), `{"seq":4,"t_ns":9,"type":"done","task":"b","worker":"w1","payl`...)
	got, err := CompletedFromLog(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("CompletedFromLog on torn log: %v", err)
	}
	if want := map[string][]byte{"spec-a": []byte("res-a")}; !reflect.DeepEqual(got, want) {
		t.Fatalf("torn log resume = %q, want %q", got, want)
	}

	for _, bad := range []string{"not a log\n", `{"type":"warp","task":"a"}`} {
		if _, err := CompletedFromLog(strings.NewReader(bad)); err == nil {
			t.Errorf("CompletedFromLog accepted %q", bad)
		}
	}
}

func TestTrackerAndReplayNewTypes(t *testing.T) {
	evs := []Event{
		{Seq: 1, Type: WorkerJoin, Worker: "w1"},
		{Seq: 2, Type: TaskReceived, Task: "a"},
		{Seq: 3, Type: TaskQueued, Task: "a"},
		{Seq: 4, Type: TaskAssigned, Task: "a", Worker: "w1", TimeNS: 10},
		{Seq: 5, Type: TaskRunning, Task: "a", Worker: "w1", TimeNS: 11},
		{Seq: 6, Type: WorkerLost, Worker: "w1", Err: "silent", TimeNS: 20},
		{Seq: 7, Type: TaskFailed, Task: "a", Err: "quarantined", Attempt: 1, TimeNS: 21},
		{Seq: 8, Type: TaskQuarantined, Task: "a", Attempt: 1, TimeNS: 21},
	}
	r, err := ReplayEvents(evs)
	if err != nil {
		t.Fatalf("ReplayEvents: %v", err)
	}
	if r.Total.Quarantined != 1 || r.Total.Failed != 1 {
		t.Fatalf("Quarantined=%d Failed=%d, want 1 and 1", r.Total.Quarantined, r.Total.Failed)
	}
	// The worker-lost event closed the open interval as Lost.
	if len(r.Intervals) != 1 || !r.Intervals[0].Lost || r.Intervals[0].EndNS != 20 {
		t.Fatalf("intervals = %+v, want one Lost interval ending at 20", r.Intervals)
	}
	// The fold dropped the lost worker from the live set, and the
	// quarantine's terminal failed retired the task it left running.
	f := observeAll(evs...)
	if f.Connected != 0 || f.Worker("w1").Connected {
		t.Fatalf("fold still counts %d connected workers after worker_lost", f.Connected)
	}
	if f.Total.Quarantined != 1 || f.Total.Running != 0 {
		t.Fatalf("fold total = %+v, want 1 quarantined and none running", f.Total)
	}
}
