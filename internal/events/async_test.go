package events

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// TestAsyncSinkPreservesStreamOrder: the async stage changes where sink
// I/O runs, not what it observes — after a clean Close the wrapped sink
// has seen exactly the emit order, same as a synchronous sink.
func TestAsyncSinkPreservesStreamOrder(t *testing.T) {
	h := NewHub()
	var got []uint64
	h.AddAsyncSink(func(e Event) { got = append(got, e.Seq) }, 0)
	h.AddAsyncSink(nil, 0) // must be ignored
	const n = 1000
	for i := 0; i < n; i++ {
		h.Emit(Event{Type: TaskReceived, Task: "t"})
	}
	h.Close() // drains; also the happens-before edge for reading got
	if len(got) != n {
		t.Fatalf("sink saw %d events, want %d", len(got), n)
	}
	for i, seq := range got {
		if seq != uint64(i)+1 {
			t.Fatalf("event %d has seq %d, want %d (order not preserved)", i, seq, uint64(i)+1)
		}
	}
}

// TestAsyncSinkDrainOnClose: events buffered but unwritten when Close is
// called are flushed before Close returns — the clean-shutdown guarantee
// `sched -event-log` relies on.
func TestAsyncSinkDrainOnClose(t *testing.T) {
	h := NewHub()
	var buf bytes.Buffer
	gate := make(chan struct{})
	first := true
	h.AddAsyncSink(func(e Event) {
		if first {
			first = false
			<-gate // hold the writer so events pile up in the buffer
		}
		LogSink(&buf)(e)
	}, 64)
	for i := 0; i < 20; i++ {
		h.Emit(Event{Type: TaskReceived, Task: "t"})
	}
	close(gate)
	h.Close()
	logged, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(logged) != 20 {
		t.Fatalf("drained log has %d events, want 20", len(logged))
	}
}

// TestAsyncSinkNoDropsNoMarker: a clean run writes no marker — the
// persisted log stays decodable as a complete contiguous stream.
func TestAsyncSinkNoDropsNoMarker(t *testing.T) {
	h := NewHub()
	var buf bytes.Buffer
	h.AddAsyncSink(LogSink(&buf), 0)
	for i := 0; i < 50; i++ {
		h.Emit(Event{Type: TaskReceived, Task: "t"})
	}
	h.Close()
	logged, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(logged) != 50 {
		t.Fatalf("log has %d events, want 50", len(logged))
	}
	for _, e := range logged {
		if e.Type == Truncated {
			t.Fatal("clean stream contains a truncated marker")
		}
	}
	// Hub.Close already waited for the follower; a second Close is a no-op.
	h.Close()
}

// TestAddAsyncSinkOnClosedHub: registering on a closed hub starts no
// follower, so nothing leaks and the sink function never runs.
func TestAddAsyncSinkOnClosedHub(t *testing.T) {
	h := NewHub()
	h.Emit(Event{Type: TaskReceived, Task: "t"})
	h.Close()
	var called bool
	h.AddAsyncSink(func(Event) { called = true }, 4)
	h.Emit(Event{Type: TaskReceived, Task: "t"}) // no-op after close
	h.Close()
	if called {
		t.Fatal("sink function ran on a closed hub")
	}
}

// TestAsyncSinkStartsAtNow: a follower registered mid-stream sees the
// events emitted from then on, not the backlog a subscriber replays.
func TestAsyncSinkStartsAtNow(t *testing.T) {
	h := NewHub()
	for i := 0; i < 3; i++ {
		h.Emit(Event{Type: TaskReceived, Task: "before"})
	}
	var got []uint64
	h.AddAsyncSink(func(e Event) { got = append(got, e.Seq) }, 0)
	h.Emit(Event{Type: TaskReceived, Task: "after"})
	h.Close()
	if !reflect.DeepEqual(got, []uint64{4}) {
		t.Fatalf("follower saw seqs %v, want [4]", got)
	}
}

// stalledLog returns a sink writing the log to buf that stalls after its
// first event until release is called; held is closed once it stalls.
func stalledLog(buf *bytes.Buffer) (sink func(Event), held <-chan struct{}, release func()) {
	write := LogSink(buf)
	stalled, gate := make(chan struct{}), make(chan struct{})
	first := true
	sink = func(e Event) {
		write(e)
		if first {
			first = false
			close(stalled)
			<-gate
		}
	}
	return sink, stalled, func() { close(gate) }
}

// TestAsyncSinkBurstIsComplete: a 65,536-event burst (one large submit
// frame) emitted while the writer is stalled reaches the log whole —
// contiguous sequences, no truncated marker, a stream a fresh hub
// restores from — because the follower reads the history the unbounded
// hub keeps.
func TestAsyncSinkBurstIsComplete(t *testing.T) {
	h := NewHub()
	var buf bytes.Buffer
	sink, held, release := stalledLog(&buf)
	h.AddAsyncSink(sink, 0)
	payload := []byte("spec")
	h.Emit(Event{Type: TaskReceived, Task: "t", Payload: payload})
	<-held
	for i := 1; i < 1<<16; i++ {
		h.Emit(Event{Type: TaskReceived, Task: "t", Payload: payload})
	}
	release()
	h.Close()
	log, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := h.Snapshot()
	if len(log) != len(want) {
		t.Fatalf("log holds %d events, the hub %d", len(log), len(want))
	}
	for i := range log {
		if log[i].Type == Truncated || log[i].Seq != uint64(i)+1 {
			t.Fatalf("log record %d is %s at seq %d, want seq %d", i+1, log[i].Type, log[i].Seq, i+1)
		}
		if !sameEvent(log[i], want[i]) {
			t.Fatalf("log record %d = %+v, the hub holds %+v", i+1, log[i], want[i])
		}
	}
	if err := NewHub().Restore(log); err != nil {
		t.Fatalf("a fresh hub refuses the log: %v", err)
	}
}

// TestAsyncSinkBoundedGap: on a bounded hub a follower held back past the
// limit writes one truncated marker where its events were evicted, then
// the retained tail in order, and nothing twice.
func TestAsyncSinkBoundedGap(t *testing.T) {
	const limit, total = 100, 1000
	h := NewHub()
	h.SetLimit(limit)
	var buf bytes.Buffer
	sink, held, release := stalledLog(&buf)
	h.AddAsyncSink(sink, 0)
	h.Emit(Event{Type: TaskReceived, Task: "t"})
	<-held
	for i := 1; i < total; i++ {
		h.Emit(Event{Type: TaskReceived, Task: "t"})
	}
	release()
	h.Close()
	log, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Event 1, the marker for events 2..total-limit, the last limit events.
	if len(log) != 2+limit {
		t.Fatalf("log holds %d records, want %d", len(log), 2+limit)
	}
	if log[0].Seq != 1 || log[0].Type != TaskReceived {
		t.Fatalf("first record %+v, want event 1", log[0])
	}
	m := log[1]
	wantErr := fmt.Sprintf("events: %d events evicted from bounded backlog", total-limit-1)
	if m.Type != Truncated || m.Seq != total-limit || m.Err != wantErr {
		t.Fatalf("gap record %+v, want a truncated marker at seq %d saying %q", m, total-limit, wantErr)
	}
	for i, e := range log[2:] {
		if want := uint64(total - limit + 1 + i); e.Seq != want || e.Type != TaskReceived {
			t.Fatalf("tail record %d = %+v, want seq %d", i, e, want)
		}
	}
}
