package flow

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/events"
)

// shrinkReadBuffer pins a test conn's kernel receive buffer to a few KB,
// so a peer that stops reading exerts backpressure after a bounded amount
// of buffered data instead of after the (auto-tuned, many-MB) default.
func shrinkReadBuffer(t *testing.T, conn net.Conn) {
	t.Helper()
	if tc, ok := conn.(*net.TCPConn); ok {
		if err := tc.SetReadBuffer(4 << 10); err != nil {
			t.Logf("SetReadBuffer: %v (continuing)", err)
		}
	}
}

// wedgeWorker registers a worker that never reads its connection again —
// the wedged-but-connected peer whose handout frame can never drain.
func wedgeWorker(t *testing.T, addr, id string) net.Conn {
	t.Helper()
	p := dialRaw(t, addr, nil)
	shrinkReadBuffer(t, p.conn)
	if err := p.send(&message{Type: msgRegister, WorkerID: id}); err != nil {
		t.Fatal(err)
	}
	return p.conn
}

// bulkTasks builds n tasks whose payloads are size bytes each, so one
// batched handout frame overflows every kernel socket buffer in the path
// and a non-reading peer genuinely blocks the write.
func bulkTasks(n, size int) []Task {
	payload := []byte(`"` + strings.Repeat("A", size) + `"`)
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{ID: fmt.Sprintf("bulk%03d", i), Payload: payload}
	}
	return tasks
}

// TestWedgedWorkerDoesNotWedgeScheduler is the write-deadline guarantee
// on scheduler→worker handout: a registered worker that stops reading —
// kernel buffers full, handout frame undeliverable — must be declared
// dead within the write timeout and its batch requeued under the retry
// budget, with healthy workers finishing the campaign. Before the
// per-connection outbox landed, the event loop performed this write
// itself with no deadline, so this exact scenario wedged the scheduler
// forever and this test hung.
func TestWedgedWorkerDoesNotWedgeScheduler(t *testing.T) {
	s := NewScheduler()
	s.MaxRetries = 3
	s.WriteTimeout = 750 * time.Millisecond
	s.Batch = 48
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

	wedgeWorker(t, addr, "wedged")
	waitForEvent(t, s, events.WorkerJoin, 5*time.Second)

	// 48 tasks x 256 KiB: a ~12 MiB handout frame, far beyond what the
	// kernel will buffer toward a 4 KiB receive window even with the
	// sender's tcp_wmem autotuned to its 4 MiB ceiling. Under the race
	// detector, half the bytes: the 6 MiB frame still overflows that
	// ceiling, and the detector-instrumented multi-MB encode/decodes
	// stay inside the timing budget.
	size := 256 << 10
	if raceEnabled {
		size = 128 << 10
	}
	tasks := bulkTasks(48, size)
	start := time.Now()
	done := make(chan error, 1)
	var res []Result
	go func() {
		var mapErr error
		res, mapErr = c.Map(tasks, nil)
		done <- mapErr
	}()

	// The wedged worker takes the whole batch, the write times out, and
	// the send-failure path charges the retry budget.
	waitForEvent(t, s, events.WorkerLeave, 15*time.Second)

	// A healthy worker joining afterwards receives the requeued batch.
	w := NewWorker("healthy", echoHandler)
	if err := w.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Map did not return: wedged worker blocked the scheduler")
	}
	if elapsed := time.Since(start); elapsed > 45*time.Second {
		t.Fatalf("campaign took %s despite one wedged worker", elapsed)
	}
	if len(res) != len(tasks) {
		t.Fatalf("got %d results, want %d", len(res), len(tasks))
	}
	for _, r := range res {
		if r.Err != "" || r.WorkerID != "healthy" {
			t.Fatalf("result %+v, want success on healthy", r)
		}
	}
	// The failed delivery went through the budgeted requeue: second-wave
	// queued events carry Attempt=1.
	retried := 0
	for _, e := range eventsByType(s.Events().Snapshot())[events.TaskQueued] {
		if e.Attempt == 1 {
			retried++
		}
	}
	if retried != len(tasks) {
		t.Errorf("requeued-with-attempt events = %d, want %d (send failure must charge the retry budget)", retried, len(tasks))
	}
}

// TestWedgedClientDoesNotStallScheduler is the write-deadline/overflow
// guarantee on scheduler→client result sends: a submitter that stops
// reading its results must be cut off (bounded outbox overflowing, or
// the write deadline firing) while a concurrent healthy campaign drains
// at full speed — and the scheduler keeps serving new clients after.
func TestWedgedClientDoesNotStallScheduler(t *testing.T) {
	s := NewScheduler()
	s.OutboxDepth = 16
	s.WriteTimeout = 2 * time.Second
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	for i := 0; i < 2; i++ {
		w := NewWorker(fmt.Sprintf("w%d", i), echoHandler)
		if err := w.Connect(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
	}

	// The wedged client submits 150 tasks with 64 KiB payloads and never
	// reads a byte back: ~10 MiB of results pile up against a 4 KiB
	// receive window and a 16-frame outbox (a quarter of the bytes under
	// the race detector — see race_off_test.go — which still overflows
	// both limits).
	size := 64 << 10
	if raceEnabled {
		size = 16 << 10
	}
	wedged := dialRaw(t, addr, nil)
	shrinkReadBuffer(t, wedged.conn)
	if err := wedged.send(&message{Type: msgSubmit, Tasks: bulkTasks(150, size)}); err != nil {
		t.Fatal(err)
	}

	// A healthy campaign runs concurrently and must complete promptly.
	c, err := connectClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	start := time.Now()
	res, err := c.Map(makeTasks(100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 100 {
		t.Fatalf("healthy campaign got %d results, want 100", len(res))
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("healthy campaign took %s alongside a wedged client", elapsed)
	}

	// The fleet is still fully serviceable for a fresh client.
	c2, err := connectClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	if res, err := c2.Map(makeTasks(10), nil); err != nil || len(res) != 10 {
		t.Fatalf("post-wedge campaign: %d results, err %v", len(res), err)
	}
}

// TestStalledMonitorDoesNotStallCampaign: a subscriber that never reads
// its event stream parks its own pump goroutine, nothing else — a
// campaign run with the stalled monitor attached must complete in the
// same order of time as one without it.
func TestStalledMonitorDoesNotStallCampaign(t *testing.T) {
	s := NewScheduler()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	for i := 0; i < 3; i++ {
		w := NewWorker(fmt.Sprintf("w%d", i), echoHandler)
		if err := w.Connect(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
	}
	c, err := connectClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	// Baseline wave, no monitor.
	start := time.Now()
	if _, err := c.Map(makeTasks(120), nil); err != nil {
		t.Fatal(err)
	}
	baseline := time.Since(start)

	// Attach a monitor that subscribes and then never reads: the backlog
	// wave above guarantees its outbox wedges immediately.
	mon := dialRaw(t, addr, nil)
	shrinkReadBuffer(t, mon.conn)
	if err := mon.send(&message{Type: msgSubscribe}); err != nil {
		t.Fatal(err)
	}

	start = time.Now()
	if _, err := c.Map(makeTasks(120), nil); err != nil {
		t.Fatal(err)
	}
	stalled := time.Since(start)

	// Bounded slowdown: generous for CI noise, far below any I/O stall.
	if limit := 10*baseline + 2*time.Second; stalled > limit {
		t.Fatalf("campaign with stalled monitor took %s (baseline %s, limit %s)", stalled, baseline, limit)
	}
}

// slowWriter simulates an event-log file on a pathologically slow disk.
type slowWriter struct {
	w     io.Writer
	delay time.Duration
}

func (s *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(s.delay)
	return s.w.Write(p)
}

// TestSlowEventLogDoesNotStallDispatch: `sched -event-log` writes run
// behind an async sink, so a throttled log writer must not reduce
// dispatch throughput — and a clean Close still drains the complete
// stream to the file.
func TestSlowEventLogDoesNotStallDispatch(t *testing.T) {
	var buf bytes.Buffer
	s := NewScheduler()
	s.EventLog = &slowWriter{w: &buf, delay: 8 * time.Millisecond}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	for i := 0; i < 2; i++ {
		w := NewWorker(fmt.Sprintf("w%d", i), echoHandler)
		if err := w.Connect(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
	}
	c, err := connectClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	// 30 tasks emit ~180 events; written synchronously at 8 ms each the
	// campaign could not finish under ~1.4 s. Off the dispatch path it
	// finishes in a fraction of that.
	start := time.Now()
	if _, err := c.Map(makeTasks(30), nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("campaign took %s behind a throttled event log (sync writes would gate dispatch)", elapsed)
	}

	// Close drains: the persisted log matches the hub record exactly.
	s.Close()
	logged, err := events.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	hist := s.Events().Snapshot()
	if len(logged) != len(hist) {
		t.Fatalf("throttled log has %d events, hub has %d (drain-on-close lost events)", len(logged), len(hist))
	}
}

// TestOutboxEnqueueAfterFailure: an outbox that overflows stops its
// writer and closes its conn — which is how the peer's read pump learns
// the peer is gone — and every later enqueue returns at once without
// queueing the frame.
func TestOutboxEnqueueAfterFailure(t *testing.T) {
	s := NewScheduler()
	s.OutboxDepth = 1
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// A pipe with an unread peer: the writer blocks on the first frame,
	// the second fills the queue, the third overflows.
	sched, peer := net.Pipe()
	t.Cleanup(func() { sched.Close(); peer.Close() })
	ob := s.newOutbox(sched, newBinaryCodec(bufio.NewReader(sched), bufio.NewWriter(sched)))
	m := &message{Type: msgHeartbeat}
	stopped := func() bool {
		select {
		case <-ob.stop:
			return true
		default:
			return false
		}
	}
	for i := 0; i < 10 && !stopped(); i++ {
		ob.enqueue(m)
		time.Sleep(time.Millisecond)
	}
	if !stopped() {
		t.Fatal("outbox never overflowed against a non-draining pipe")
	}
	// The conn is closed under the read pump: a read on the scheduler's
	// side fails at once.
	if _, err := sched.Read(make([]byte, 1)); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("read on the overflowed conn = %v, want %v", err, io.ErrClosedPipe)
	}
	queued := len(ob.ch)
	ob.enqueue(m)
	if len(ob.ch) != queued {
		t.Fatal("enqueue after the failure queued its frame")
	}
}
