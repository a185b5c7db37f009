package flow

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/events"
)

// rawPeer is a hand-rolled connection for fault injection: the wire's
// hello and frames with no lifecycle of its own — no heartbeats, no reads
// or writes unless the test says so.
type rawPeer struct {
	conn net.Conn
	c    *binaryCodec
}

// dialRaw opens a hand-rolled peer connection: a TCP dial, the hello
// every connection must open with and first behind it (nil leaves the
// hello staged for the first send), closed again when the test ends.
func dialRaw(t *testing.T, addr string, first *message) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("raw peer dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	c, err := handshake(conn, first)
	if err != nil {
		t.Fatalf("raw peer handshake: %v", err)
	}
	return &rawPeer{conn: conn, c: c}
}

// send writes one frame and flushes it.
func (p *rawPeer) send(m *message) error { return writeFrame(p.conn, p.c, 0, m) }

// recv reads the next frame into *m.
func (p *rawPeer) recv(m *message) error { return p.c.Decode(m) }

// dialRawWorker registers a hand-rolled worker and hands control to the
// test, bypassing the real Worker's lifecycle.
func dialRawWorker(t *testing.T, addr, id string) *rawPeer {
	t.Helper()
	return dialRaw(t, addr, &message{Type: msgRegister, WorkerID: id})
}

// awaitTask blocks until the scheduler assigns a task.
func (rw *rawPeer) awaitTask(t *testing.T) Task {
	t.Helper()
	return rw.awaitHandout(t)[0]
}

// awaitHandout blocks until the scheduler sends a handout frame and
// returns its tasks.
func (rw *rawPeer) awaitHandout(t *testing.T) []Task {
	t.Helper()
	_ = rw.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		var m message
		if err := rw.recv(&m); err != nil {
			t.Fatalf("raw worker awaiting task: %v", err)
		}
		if m.Type == msgTask && len(m.Tasks) > 0 {
			return m.Tasks
		}
	}
}

// waitForEvent polls the scheduler's stream until an event of the given
// type appears.
func waitForEvent(t *testing.T, s *Scheduler, typ events.Type, timeout time.Duration) events.Event {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, e := range s.Events().Snapshot() {
			if e.Type == typ {
				return e
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no %s event within %s", typ, timeout)
	return events.Event{}
}

func TestRetryBudgetQuarantinesPoisonTask(t *testing.T) {
	s := NewScheduler()
	s.MaxRetries = 2
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c, err := connectClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	type mapOut struct {
		results []Result
		err     error
	}
	done := make(chan mapOut, 1)
	go func() {
		res, err := c.Map([]Task{{ID: "poison", Label: "poison"}}, nil)
		done <- mapOut{res, err}
	}()

	// Three workers in sequence each receive the task and die mid-task.
	// With MaxRetries=2 the first two deaths requeue; the third (attempt
	// 3) quarantines instead of looping forever.
	for i := 0; i < 3; i++ {
		rw := dialRawWorker(t, addr, fmt.Sprintf("dying-w%d", i))
		rw.awaitTask(t)
		rw.conn.Close()
		// The death must be processed before the next worker joins, or
		// the join order could outrun the requeue.
		for len(s.Events().Snapshot()) == 0 || countEvents(s, events.WorkerLeave) < i+1 {
			time.Sleep(2 * time.Millisecond)
		}
	}

	var out mapOut
	select {
	case out = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Map did not return after quarantine")
	}
	if out.err != nil {
		t.Fatalf("Map: %v", out.err)
	}
	if len(out.results) != 1 {
		t.Fatalf("got %d results, want 1", len(out.results))
	}
	if !strings.Contains(out.results[0].Err, "quarantined") {
		t.Fatalf("result error %q, want quarantine message", out.results[0].Err)
	}

	byType := eventsByType(s.Events().Snapshot())
	if n := len(byType[events.TaskQueued]); n != 3 {
		t.Errorf("TaskQueued ×%d, want 3 (submit + 2 requeues)", n)
	}
	if n := len(byType[events.WorkerLeave]); n != 3 {
		t.Errorf("WorkerLeave ×%d, want 3", n)
	}
	failed := byType[events.TaskFailed]
	if len(failed) != 1 || failed[0].Attempt != 3 || !strings.Contains(failed[0].Err, "retry budget 2") {
		t.Errorf("TaskFailed = %+v, want one terminal failure with Attempt=3 and budget in message", failed)
	}
	quarantined := byType[events.TaskQuarantined]
	if len(quarantined) != 1 || quarantined[0].Task != "poison" || quarantined[0].Attempt != 3 {
		t.Errorf("TaskQuarantined = %+v, want one for task poison with Attempt=3", quarantined)
	}
	// The requeue events carry the attempt counter (0 on first queue).
	attempts := []int{}
	for _, e := range byType[events.TaskQueued] {
		attempts = append(attempts, e.Attempt)
	}
	if fmt.Sprint(attempts) != "[0 1 2]" {
		t.Errorf("TaskQueued attempts = %v, want [0 1 2]", attempts)
	}
}

func countEvents(s *Scheduler, typ events.Type) int {
	n := 0
	for _, e := range s.Events().Snapshot() {
		if e.Type == typ {
			n++
		}
	}
	return n
}

func TestHeartbeatTimeoutRequeuesToSurvivor(t *testing.T) {
	s := NewScheduler()
	s.HeartbeatTimeout = 300 * time.Millisecond
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c, err := connectClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	// The wedged worker registers, takes the task, and goes silent — the
	// connection stays open, so only the heartbeat deadline can catch it.
	rw := dialRawWorker(t, addr, "wedged")
	t.Cleanup(func() { rw.conn.Close() })

	done := make(chan []Result, 1)
	go func() {
		res, _ := c.Map([]Task{{ID: "t0", Label: "t0"}}, nil)
		done <- res
	}()
	rw.awaitTask(t)

	// A healthy survivor joins, heartbeating well under the deadline.
	w := NewWorker("survivor", echoHandler)
	w.HeartbeatInterval = 50 * time.Millisecond
	if err := w.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	lost := waitForEvent(t, s, events.WorkerLost, 5*time.Second)
	if lost.Worker != "wedged" || !strings.Contains(lost.Err, "silent") {
		t.Fatalf("worker_lost = %+v, want wedged with silence message", lost)
	}
	select {
	case res := <-done:
		if len(res) != 1 || res[0].Err != "" {
			t.Fatalf("results = %+v, want one success", res)
		}
		if res[0].WorkerID != "survivor" {
			t.Fatalf("task completed on %s, want survivor", res[0].WorkerID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("task never completed on the survivor")
	}
}

// TestHeartbeatKeepsSlowWorkerAlive pins the design decision that
// heartbeats ride a dedicated goroutine: a handler legitimately busy for
// longer than the deadline must NOT be declared dead — the deadline
// catches frozen processes and dead network paths, not long tasks.
func TestHeartbeatKeepsSlowWorkerAlive(t *testing.T) {
	s := NewScheduler()
	s.HeartbeatTimeout = 300 * time.Millisecond
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c, err := connectClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	w := NewWorker("slow", func(tk Task) (json.RawMessage, error) {
		time.Sleep(600 * time.Millisecond) // twice the deadline
		return tk.Payload, nil
	})
	w.HeartbeatInterval = 50 * time.Millisecond
	if err := w.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	res, err := c.Map([]Task{{ID: "t0", Payload: []byte(`1`)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Err != "" || res[0].WorkerID != "slow" {
		t.Fatalf("results = %+v, want one success on the slow worker", res)
	}
	for _, e := range s.Events().Snapshot() {
		if e.Type == events.WorkerLost {
			t.Fatalf("slow-but-beating worker was declared lost: %+v", e)
		}
	}
}

func TestDialRetryExhaustsBudget(t *testing.T) {
	// A listener bound then closed gives an address that refuses fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	_, err = dial(DialOptions{Addr: addr, Retry: 250 * time.Millisecond})
	if err == nil {
		t.Fatal("dial succeeded against a closed port")
	}
	if !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("error %q does not mention the retry budget", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial took %s for a 250ms budget", elapsed)
	}
	// Zero budget: exactly one attempt, no budget language.
	if _, err := dial(DialOptions{Addr: addr}); err == nil || strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("zero-budget error = %v, want plain dial failure", err)
	}
	// The options must name exactly one locator, and a codec typo fails
	// up front instead of producing a half-negotiated connection.
	if _, err := dial(DialOptions{}); err == nil {
		t.Fatal("dial accepted empty options")
	}
	if _, err := dial(DialOptions{Addr: addr, SchedulerFile: "x"}); err == nil {
		t.Fatal("dial accepted both Addr and SchedulerFile")
	}
	if _, err := dial(DialOptions{Addr: addr, Codec: "msgpack"}); err == nil {
		t.Fatal("dial accepted an unknown codec")
	}
}

// TestWorkerStartsBeforeScheduler is the start-order footgun: worker and
// client start first, pointing at a scheduler file that does not exist
// yet; both converge once the scheduler appears within their budget.
func TestWorkerStartsBeforeScheduler(t *testing.T) {
	path := t.TempDir() + "/sched.json"

	type connected struct {
		w   *Worker
		err error
	}
	workerDone := make(chan connected, 1)
	go func() {
		w := NewWorker("early", echoHandler)
		err := w.Dial(DialOptions{SchedulerFile: path, Retry: 10 * time.Second})
		workerDone <- connected{w, err}
	}()
	clientDone := make(chan error, 1)
	var client *Client
	go func() {
		c, err := DialClient(DialOptions{SchedulerFile: path, Retry: 10 * time.Second})
		client = c
		clientDone <- err
	}()

	// The scheduler shows up fashionably late.
	time.Sleep(150 * time.Millisecond)
	s := NewScheduler()
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.WriteSchedulerFile(path); err != nil {
		t.Fatal(err)
	}

	wc := <-workerDone
	if wc.err != nil {
		t.Fatalf("early worker failed to converge: %v", wc.err)
	}
	t.Cleanup(wc.w.Close)
	if err := <-clientDone; err != nil {
		t.Fatalf("early client failed to converge: %v", err)
	}
	t.Cleanup(client.Close)

	res, err := client.Map([]Task{{ID: "t0", Payload: []byte(`"hi"`)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Err != "" {
		t.Fatalf("results = %+v, want one success through the late scheduler", res)
	}
}
