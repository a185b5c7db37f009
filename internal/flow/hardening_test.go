package flow

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/events"
)

// wedgedListener accepts connections and then never reads or writes — the
// pathological scheduler the deadline hardening is for.
func wedgedListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			// Drain nothing, answer nothing: the peer's deadlines must fire.
		}
	}()
	return ln.Addr().String()
}

// TestClientMapFailsFastOnWedgedScheduler is the CI-flakiness guard: a
// scheduler that accepts the connection but never answers must surface as
// a timeout error within the progress deadline, not hang Map until the
// test binary times out.
func TestClientMapFailsFastOnWedgedScheduler(t *testing.T) {
	addr := wedgedListener(t)
	c, err := connectClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.ResultTimeout != DefaultResultTimeout {
		t.Fatalf("new client ResultTimeout = %v, want %v", c.ResultTimeout, DefaultResultTimeout)
	}
	c.ResultTimeout = 150 * time.Millisecond

	start := time.Now()
	_, err = c.Map(makeTasks(3), nil)
	if err == nil {
		t.Fatal("Map against a wedged scheduler must fail")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("error = %v, want a net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Map took %v to fail; deadline did not fire fast", elapsed)
	}
}

func TestMapObserverSeesHandlerErrors(t *testing.T) {
	h := func(task Task) (json.RawMessage, error) {
		if task.ID == "t001" {
			return nil, fmt.Errorf("kaboom")
		}
		return nil, nil
	}
	_, _, c := startCluster(t, 2, h)
	errs := map[string]string{}
	if _, err := c.Map(makeTasks(4), func(r *Result) {
		errs[r.TaskID] = r.Err
	}); err != nil {
		t.Fatal(err)
	}
	if len(errs) != 4 {
		t.Fatalf("observer saw %d results, want 4", len(errs))
	}
	for id, msg := range errs {
		if id == "t001" {
			if !strings.Contains(msg, "kaboom") {
				t.Errorf("observed error for t001 = %q, want the handler error", msg)
			}
		} else if msg != "" {
			t.Errorf("task %s has spurious error %q", id, msg)
		}
	}
}

// TestIdleWorkerDisconnectReschedules covers the scheduler's free-list
// removal and send-failure requeue branches: a worker that registers and
// dies while idle must not strand the queue — a later worker drains it.
func TestIdleWorkerDisconnectReschedules(t *testing.T) {
	s := NewScheduler()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	ghost := NewWorker("ghost", echoHandler)
	if err := ghost.Connect(addr); err != nil {
		t.Fatal(err)
	}
	ghost.Close() // dies idle: scheduler must drop it from the free list

	c, err := connectClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	done := make(chan error, 1)
	var results []Result
	go func() {
		var mapErr error
		results, mapErr = c.Map(makeTasks(6), nil)
		done <- mapErr
	}()

	// Whether the scheduler saw the disconnect before or after assigning
	// to the ghost, the live worker must end up with every task.
	time.Sleep(20 * time.Millisecond)
	live := NewWorker("live", echoHandler)
	if err := live.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(live.Close)

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batch did not complete after idle-worker disconnect")
	}
	if len(results) != 6 {
		t.Fatalf("results = %d, want 6", len(results))
	}
	for _, r := range results {
		if r.WorkerID != "live" {
			t.Errorf("task %s ran on %q, want the live worker", r.TaskID, r.WorkerID)
		}
	}
}

// TestClientDisconnectOrphansItsTasks covers the clientGone branches: a
// client that vanishes mid-batch must have its queued tasks dropped and
// its in-flight tasks orphaned without wedging the scheduler for the next
// client.
func TestClientDisconnectOrphansItsTasks(t *testing.T) {
	s := NewScheduler()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	slow := func(task Task) (json.RawMessage, error) {
		time.Sleep(5 * time.Millisecond)
		return nil, nil
	}
	w := NewWorker("only", slow)
	if err := w.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	// The doomed client submits a long batch and disconnects while the
	// single slow worker is still chewing on it.
	doomed, err := connectClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	go doomed.Map(makeTasks(50), nil) //nolint:errcheck // the disconnect error is the point
	time.Sleep(15 * time.Millisecond)
	doomed.Close()

	// A fresh client's batch must still complete: the orphaned queue was
	// dropped, the orphaned in-flight result discarded, the worker freed.
	c, err := connectClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.ResultTimeout = 10 * time.Second
	tasks := makeTasks(5)
	for i := range tasks {
		tasks[i].ID = "fresh-" + tasks[i].ID
	}
	results, err := c.Map(tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("fresh batch results = %d, want 5", len(results))
	}
	// The orphaned batch must not have survived: the worker processed the
	// fresh tasks plus at most the few in flight before the disconnect.
	if p := w.Processed(); p >= 55 {
		t.Errorf("worker processed %d tasks; orphaned queue was not dropped", p)
	}
}

// faultyListener fails Accept, up to a thousand times, for as long as
// failing is set: the descriptor table is full.
type faultyListener struct {
	net.Listener
	failing atomic.Bool
	calls   atomic.Int64
}

func (l *faultyListener) Accept() (net.Conn, error) {
	if l.failing.Load() && l.calls.Add(1) <= 1000 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	return l.Listener.Accept()
}

// TestAcceptLoopBacksOff: a persistent Accept error must not spin a core.
// A loop that answers it with `continue` burns the listener's thousand
// failures in microseconds; with the back-off (5 ms doubling: 5, 10, 20,
// 40, 80, 160 ...) a 200 ms fault sees at most seven calls. Once the
// fault clears, the next connection is served.
func TestAcceptLoopBacksOff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	faulty := &faultyListener{Listener: ln}
	faulty.failing.Store(true)
	s := NewScheduler()
	d, err := s.newDispatcher(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	s.ln = faulty
	s.wg.Add(2)
	go s.acceptLoop()
	go s.eventLoop(d)
	t.Cleanup(s.Close)

	time.Sleep(200 * time.Millisecond)
	if calls := faulty.calls.Load(); calls < 1 || calls > 7 {
		t.Errorf("Accept was called %d times in 200 ms of failing, want 1 to 7", calls)
	}
	faulty.failing.Store(false)
	w := NewWorker("after-the-fault", echoHandler)
	if err := w.Connect(ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	waitForEvent(t, s, events.WorkerJoin, 5*time.Second)
}
