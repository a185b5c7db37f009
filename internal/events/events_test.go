package events

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTypeValidation(t *testing.T) {
	valid := []Type{TaskReceived, TaskQueued, TaskAssigned, TaskRunning,
		TaskDone, TaskFailed, TaskDropped, TaskQuarantined,
		WorkerJoin, WorkerLeave, WorkerLost, Truncated}
	for _, ty := range valid {
		if !ty.Valid() {
			t.Errorf("%q should be valid", ty)
		}
	}
	for _, ty := range []Type{"", "bogus", "RECEIVED", "worker"} {
		if ty.Valid() {
			t.Errorf("%q should be invalid", ty)
		}
	}
	taskScoped := map[Type]bool{
		TaskReceived: true, TaskQueued: true, TaskAssigned: true, TaskRunning: true,
		TaskDone: true, TaskFailed: true, TaskDropped: true, TaskQuarantined: true,
		WorkerJoin: false, WorkerLeave: false, WorkerLost: false, Truncated: false,
	}
	for ty, want := range taskScoped {
		if ty.TaskScoped() != want {
			t.Errorf("%q.TaskScoped() = %v, want %v", ty, ty.TaskScoped(), want)
		}
	}
}

func TestEventValidate(t *testing.T) {
	tests := []struct {
		name    string
		e       Event
		wantErr bool
	}{
		{"ok task", Event{Type: TaskQueued, Task: "a"}, false},
		{"ok worker", Event{Type: WorkerJoin, Worker: "w1"}, false},
		{"unknown type", Event{Type: "boom", Task: "a"}, true},
		{"task-scoped without task", Event{Type: TaskDone}, true},
		{"worker event without worker", Event{Type: WorkerLeave}, true},
		{"done with worker", Event{Type: TaskDone, Task: "a", Worker: "w1"}, false},
	}
	for _, tt := range tests {
		if err := tt.e.Validate(); (err != nil) != tt.wantErr {
			t.Errorf("%s: Validate() = %v, wantErr %v", tt.name, err, tt.wantErr)
		}
	}
}

// TestHubStampsAndRetains: Emit assigns the next Seq, whatever the caller
// put there, and keeps the caller's TimeNS — the hub reads no clock, so
// ordering the stamps is the emitter's business — and retains what it
// stamped.
func TestHubStampsAndRetains(t *testing.T) {
	h := NewHub()
	e1 := h.Emit(Event{TimeNS: 7, Type: WorkerJoin, Worker: "w1"})
	e2 := h.Emit(Event{Seq: 99, TimeNS: 5, Type: TaskReceived, Task: "a"})
	if e1.Seq != 1 || e2.Seq != 2 {
		t.Fatalf("sequence = %d, %d, want 1, 2", e1.Seq, e2.Seq)
	}
	if e1.TimeNS != 7 || e2.TimeNS != 5 {
		t.Fatalf("stamps = %d, %d, want the emitter's 7, 5", e1.TimeNS, e2.TimeNS)
	}
	if len(h.Snapshot()) != 2 {
		t.Fatalf("Len = %d, want 2", len(h.Snapshot()))
	}
	snap := h.Snapshot()
	if len(snap) != 2 || !sameEvent(snap[0], e1) || !sameEvent(snap[1], e2) {
		t.Fatalf("snapshot %+v does not match emitted events", snap)
	}
	// Snapshot is a copy: mutating it must not corrupt the history.
	snap[0].Task = "mutated"
	if h.Snapshot()[0].Task == "mutated" {
		t.Fatal("Snapshot aliases the hub history")
	}
}

func TestHubSinksRunInOrder(t *testing.T) {
	h := NewHub()
	var got []uint64
	h.AddSink(func(e Event) { got = append(got, e.Seq) })
	h.AddSink(nil) // must be ignored
	for i := 0; i < 5; i++ {
		h.Emit(Event{Type: TaskReceived, Task: "t"})
	}
	if len(got) != 5 {
		t.Fatalf("sink saw %d events, want 5", len(got))
	}
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("sink order %v", got)
		}
	}
}

// TestCursorBacklogThenLive is the monitor-attach contract: a subscriber
// that arrives mid-stream first replays the full backlog, then follows
// live events, and observes exactly the same sequence as the history.
func TestCursorBacklogThenLive(t *testing.T) {
	h := NewHub()
	for i := 0; i < 3; i++ {
		h.Emit(Event{Type: TaskReceived, Task: "early"})
	}
	cur := h.Subscribe()

	var mu sync.Mutex
	var seen []Event
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			e, ok := cur.Next()
			if !ok {
				return
			}
			mu.Lock()
			seen = append(seen, e)
			mu.Unlock()
		}
	}()

	for i := 0; i < 3; i++ {
		h.Emit(Event{Type: TaskQueued, Task: "late"})
	}
	// Next blocks until Close once the stream is drained.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n == 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscriber saw %d/6 events", n)
		}
		time.Sleep(time.Millisecond)
	}
	h.Close()
	<-done

	want := h.Snapshot()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != len(want) {
		t.Fatalf("subscriber saw %d events, history has %d", len(seen), len(want))
	}
	for i := range want {
		if !sameEvent(seen[i], want[i]) {
			t.Fatalf("event %d: subscriber saw %+v, history has %+v", i, seen[i], want[i])
		}
	}
}

func TestHubCloseIdempotentAndEmitAfterClose(t *testing.T) {
	h := NewHub()
	h.Emit(Event{Type: TaskReceived, Task: "a"})
	h.Close()
	h.Close()
	if e := h.Emit(Event{Type: TaskReceived, Task: "b"}); e.Seq != 0 {
		t.Fatalf("Emit after Close stamped seq %d, want no-op", e.Seq)
	}
	if len(h.Snapshot()) != 1 {
		t.Fatalf("history grew after Close: %d", len(h.Snapshot()))
	}
	// A fresh cursor still drains the retained history, then stops.
	cur := h.Subscribe()
	if e, ok := cur.Next(); !ok || e.Task != "a" {
		t.Fatalf("cursor after Close: %+v, %v", e, ok)
	}
	if _, ok := cur.Next(); ok {
		t.Fatal("cursor returned an event past the closed history")
	}
}

// TestCursorCancel: cancelling unblocks a pending Next and pins every
// future Next to false — the teardown path of a detached subscriber on
// an idle hub.
func TestCursorCancel(t *testing.T) {
	h := NewHub()
	h.Emit(Event{Type: TaskReceived, Task: "a"})
	cur := h.Subscribe()
	if _, ok := cur.Next(); !ok {
		t.Fatal("backlog event not delivered")
	}

	unblocked := make(chan bool, 1)
	go func() {
		_, ok := cur.Next() // blocks: no more events
		unblocked <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	cur.Cancel()
	select {
	case ok := <-unblocked:
		if ok {
			t.Fatal("cancelled cursor returned an event")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Cancel did not unblock Next")
	}
	cur.Cancel() // idempotent
	if _, ok := cur.Next(); ok {
		t.Fatal("Next after Cancel returned an event")
	}

	// Other cursors are unaffected: the hub is still live.
	other := h.Subscribe()
	if e, ok := other.Next(); !ok || e.Task != "a" {
		t.Fatalf("sibling cursor got %+v, %v", e, ok)
	}
	h.Emit(Event{Type: TaskQueued, Task: "a"})
	if e, ok := other.Next(); !ok || e.Type != TaskQueued {
		t.Fatalf("sibling cursor after emit got %+v, %v", e, ok)
	}
}

func TestLogSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	h := NewHub()
	h.AddSink(LogSink(&buf))
	h.Emit(Event{Type: WorkerJoin, Worker: "w1"})
	h.Emit(Event{Type: TaskReceived, Task: "a"})
	h.Emit(Event{Type: TaskFailed, Task: "a", Worker: "w1", Err: "boom"})

	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Fatalf("log has %d lines, want 3:\n%s", lines, buf.String())
	}
	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := h.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameEvent(got[i], want[i]) {
			t.Fatalf("event %d changed across the log round trip: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestReadLogErrors(t *testing.T) {
	// Malformed JSON fails with position, returning the intact prefix.
	in := `{"seq":1,"t_ns":10,"type":"received","task":"a"}
{"seq":2,"t_ns":20,"type":"queued","task":"a"}
{not json`
	got, err := ReadLog(strings.NewReader(in))
	if err == nil {
		t.Fatal("truncated log decoded without error")
	}
	if !strings.Contains(err.Error(), "record 3") {
		t.Errorf("error %q does not name record 3", err)
	}
	if len(got) != 2 {
		t.Errorf("intact prefix has %d events, want 2", len(got))
	}

	// Structurally invalid records are rejected too.
	if _, err := ReadLog(strings.NewReader(`{"seq":1,"t_ns":1,"type":"done"}`)); err == nil {
		t.Error("done event without task decoded without error")
	}
	if _, err := ReadLog(strings.NewReader(`{"seq":1,"t_ns":1,"type":"warp","task":"a"}`)); err == nil {
		t.Error("unknown event type decoded without error")
	}

	// Empty logs are fine.
	if got, err := ReadLog(strings.NewReader("")); err != nil || len(got) != 0 {
		t.Errorf("empty log: %v, %v", got, err)
	}
}

func TestEventSeconds(t *testing.T) {
	e := Event{TimeNS: 2_500_000_000}
	if s := e.Seconds(); s != 2.5 {
		t.Fatalf("Seconds() = %v, want 2.5", s)
	}
}

// sameEvent reports whether two events are equal field by field, an empty
// payload matching a nil one (the JSONL log omits both).
func sameEvent(a, b Event) bool {
	pa, pb := a.Payload, b.Payload
	a.Payload, b.Payload = nil, nil
	return reflect.DeepEqual(a, b) && bytes.Equal(pa, pb)
}
