package flow

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/events"
)

// TestHandoutFailureRequeuesWholeBatch: a worker's outbox is already dead
// when a handout is made, so the handout is dropped, and the worker's
// death arrives as its read pump reports it. The worker must leave
// exactly once, with only the batch head marked running, as for any
// handout whose write fails; the whole batch must return to the head of
// the queue in handout order, each task one attempt poorer; and a second
// such death must exhaust MaxRetries for every task of the batch, not
// just its head.
func TestHandoutFailureRequeuesWholeBatch(t *testing.T) {
	s := NewScheduler()
	s.Batch = 4
	s.MaxRetries = 1
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

	// Six tasks: the doomed handout takes the first four, so the requeue
	// must land them ahead of the two still waiting.
	done := make(chan []Result, 1)
	go func() {
		res, _ := c.Map(makeTasks(6), nil)
		done <- res
	}()
	waitUntil(t, 5*time.Second, func() bool { return countEvents(s, events.TaskQueued) == 6 }, "submit")

	deadOnArrival := func(id string) {
		sched, peer := net.Pipe()
		t.Cleanup(func() { sched.Close(); peer.Close() })
		wc := fakeWorkerConn(s, id, sched)
		wc.ob.(*outbox).shutdown() // dead before the first handout
		s.sendEvent(schedEvent{kind: inRegister, wc: wc})
		s.sendEvent(schedEvent{kind: inWorkerGone, wc: wc}) // as its read pump would
	}
	deadOnArrival("doa-1")
	waitUntil(t, 5*time.Second, func() bool { return countEvents(s, events.TaskQueued) == 10 }, "requeue of the first batch")

	var running, afterLeave []string
	for _, e := range s.Events().Snapshot() {
		if e.Worker == "doa-1" && e.Type == events.TaskRunning {
			running = append(running, e.Task)
		}
		if e.Type == events.WorkerLeave {
			afterLeave = afterLeave[:0]
		} else if e.Type == events.TaskQueued && e.Attempt == 1 {
			afterLeave = append(afterLeave, e.Task)
		}
	}
	if n := countEvents(s, events.WorkerLeave); n != 1 {
		t.Fatalf("worker_leave ×%d, want exactly 1", n)
	}
	if got := fmt.Sprint(running); got != "[t000]" {
		t.Errorf("running on doa-1 = %v, want the batch head alone, [t000]", got)
	}
	// Back to front, so that the queue head ends up in handout order.
	if got := fmt.Sprint(afterLeave); got != "[t003 t002 t001 t000]" {
		t.Errorf("requeue order = %v, want [t003 t002 t001 t000]", got)
	}

	// A live worker now receives the same four, in the original order,
	// ahead of t004 and t005, each last queued by the requeue that charged
	// it an attempt.
	rw := dialRawWorker(t, addr, "witness")
	_ = rw.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var m message
	for m.Type != msgTask {
		if err := rw.recv(&m); err != nil {
			t.Fatalf("witness decode: %v", err)
		}
	}
	charged := map[string]int{}
	for _, e := range s.Events().Snapshot() {
		if e.Type == events.TaskQueued {
			charged[e.Task] = e.Attempt
		}
	}
	var got []string
	for _, task := range m.Tasks {
		got = append(got, fmt.Sprintf("%s/%d", task.ID, charged[task.ID]))
	}
	if fmt.Sprint(got) != "[t000/1 t001/1 t002/1 t003/1]" {
		t.Errorf("redelivered batch = %v, want [t000/1 t001/1 t002/1 t003/1]", got)
	}
	// The witness dies holding them: a second charge against MaxRetries=1
	// quarantines all four.
	rw.conn.Close()
	waitUntil(t, 5*time.Second, func() bool { return countEvents(s, events.TaskQuarantined) == 4 }, "quarantine of the batch")

	w := NewWorker("finisher", echoHandler)
	if err := w.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	var res []Result
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Map did not return")
	}
	failed := 0
	for _, r := range res {
		if strings.Contains(r.Err, "quarantined") {
			failed++
		}
	}
	if len(res) != 6 || failed != 4 {
		t.Errorf("%d results, %d quarantined; want 6 and 4", len(res), failed)
	}
}

// TestDuplicateAckFromLiveWorker: a second result for a task the worker no
// longer holds is dropped — no second done event, nothing forwarded to the
// client — and must not put the worker on the free list a second time
// (which would hand it two batches at once).
func TestDuplicateAckFromLiveWorker(t *testing.T) {
	s := NewScheduler()
	s.Batch = 1 // "one handout at a time" below reads as one task at a time
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// A raw client, so every frame the scheduler forwards is visible (Map
	// would hide a duplicate behind its own dedupe).
	cl := dialRaw(t, addr, nil)
	if err := cl.send(&message{Type: msgSubmit, Tasks: makeTasks(3)}); err != nil {
		t.Fatal(err)
	}

	rw := dialRawWorker(t, addr, "echoing")
	t.Cleanup(func() { rw.conn.Close() })
	first := rw.awaitTask(t)
	ack := message{Type: msgResult, Results: []Result{{TaskID: first.ID, WorkerID: "echoing", Payload: []byte(`"once"`)}}}
	for i := 0; i < 2; i++ { // the ack, and its duplicate
		if err := rw.send(&ack); err != nil {
			t.Fatal(err)
		}
	}
	second := rw.awaitTask(t)
	if second.ID == first.ID {
		t.Fatalf("task %s handed out again after its ack", first.ID)
	}

	// Had the duplicate enlisted the worker twice, the third task would
	// have been handed to it on top of the second, before the second's ack.
	if err := rw.send(&message{Type: msgResult, Results: []Result{{TaskID: second.ID, WorkerID: "echoing"}}}); err != nil {
		t.Fatal(err)
	}
	third := rw.awaitTask(t)
	var order []string
	for _, e := range s.Events().Snapshot() {
		if e.Type == events.TaskAssigned || e.Type == events.TaskDone {
			order = append(order, string(e.Type)+":"+e.Task)
		}
	}
	want := fmt.Sprintf("[assigned:%s done:%s assigned:%s done:%s assigned:%s]", first.ID, first.ID, second.ID, second.ID, third.ID)
	if fmt.Sprint(order) != want {
		t.Errorf("stream = %v, want %v (one done per task, one handout at a time)", order, want)
	}

	// The client was sent the accepted ack and exactly one record per
	// settled task.
	_ = cl.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var forwarded []string
	for len(forwarded) < 2 {
		var m message
		if err := cl.recv(&m); err != nil {
			t.Fatalf("client decode: %v", err)
		}
		for _, r := range m.Results {
			forwarded = append(forwarded, r.TaskID)
		}
	}
	if fmt.Sprint(forwarded) != fmt.Sprintf("[%s %s]", first.ID, second.ID) {
		t.Errorf("client was forwarded %v, want one record each for %s and %s", forwarded, first.ID, second.ID)
	}
}

// TestSchedulerRefusesPeerWithoutHello: a peer that opens with a frame
// instead of the versioned hello — any build from before the hello
// existed — or with the hello of another version or codec is
// disconnected without its frame being acted on.
func TestSchedulerRefusesPeerWithoutHello(t *testing.T) {
	s := NewScheduler()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	for _, opening := range []string{
		`{"type":"register","worker_id":"unversioned"}` + "\n",
		helloPrefix + WireBinary + "\n",
		fmt.Sprintf("%s%s %d\n", helloPrefix, WireBinary, wireVersion+1) + `{"type":"register","worker_id":"unversioned"}` + "\n",
		fmt.Sprintf("%sjson %d\n", helloPrefix, wireVersion) + `{"type":"register","worker_id":"unversioned"}` + "\n",
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(conn, opening); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		// EOF, or a reset when the refusal left the peer's frame unread.
		var ne net.Error
		if n, err := conn.Read(make([]byte, 1)); n != 0 || err == nil || (errors.As(err, &ne) && ne.Timeout()) {
			t.Errorf("opening %q: read = %d, %v; want the connection closed", opening, n, err)
		}
		conn.Close()
	}
	if n := len(s.Events().Snapshot()); n != 0 {
		t.Errorf("refused peers left %d events: %+v", n, s.Events().Snapshot())
	}
}

// lockedBuffer is a log sink the test can read while the
// scheduler's connection goroutines write to it.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestSchedulerLogsRefusedPeer: the peer of a refused hello reads only EOF,
// so the scheduler's log names the peer's address and why it was refused.
func TestSchedulerLogsRefusedPeer(t *testing.T) {
	var logged lockedBuffer
	prev := log.Writer()
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(prev) })

	s := NewScheduler()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "%sjson %d\n", helloPrefix, wireVersion); err != nil {
		t.Fatal(err)
	}
	// The scheduler logs before it closes the connection, so once the read
	// ends the line is there.
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); n != 0 || err == nil {
		t.Fatalf("read = %d, %v; want the connection closed", n, err)
	}
	line := logged.String()
	if !strings.Contains(line, "refused peer "+conn.LocalAddr().String()+": ") || !strings.Contains(line, `wire codec "json"`) {
		t.Errorf("log = %q, want a line naming %s and its json hello", line, conn.LocalAddr())
	}
}

// TestSchedulerLeaksNoGoroutines churns every kind of peer through every
// way a connection can end — workers closing cleanly, killed mid-batch and
// refused at the hello, a client abandoning its campaign, a monitor
// detaching — then closes the scheduler and requires the process to be
// back at its goroutine baseline. Each peer costs the scheduler a read
// pump, and workers, clients and monitors an outbox writer (monitors a
// watchdog too); the single teardown path and the refusal path are what
// must release them.
func TestSchedulerLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := NewScheduler()
	s.Batch = 4
	s.MaxRetries = 5
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			s.Close()
		}
	}()

	slow := func(task Task) (json.RawMessage, error) {
		time.Sleep(time.Millisecond)
		return task.Payload, nil
	}
	for round := 0; round < 3; round++ {
		c, err := DialClient(DialOptions{Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		mon, err := DialMonitor(DialOptions{Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		mapped := make(chan error, 1)
		go func() {
			_, err := c.Map(makeTasks(40), nil)
			mapped <- err
		}()

		// Killed mid-batch: takes a handout and hangs up on it.
		rw := dialRawWorker(t, addr, fmt.Sprintf("killed-%d", round))
		rw.awaitTask(t)
		rw.conn.Close()

		// Refused at the hello.
		old, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.WriteString(old, `{"type":"register","worker_id":"unversioned"}`+"\n")
		_, _ = old.Read(make([]byte, 1))
		old.Close()

		// Clean workers finish the campaign, then close.
		workers := make([]*Worker, 3)
		for i := range workers {
			workers[i] = NewWorker(fmt.Sprintf("clean-%d-%d", round, i), slow)
			workers[i].HeartbeatInterval = 5 * time.Millisecond
			if err := workers[i].Dial(DialOptions{Addr: addr}); err != nil {
				t.Fatal(err)
			}
		}
		if round == 2 {
			// The last client abandons its campaign with work in flight.
			waitUntil(t, 5*time.Second, func() bool { return countEvents(s, events.TaskDone) > 85 }, "last campaign under way")
			c.Close()
			<-mapped
		} else if err := <-mapped; err != nil {
			t.Fatal(err)
		}
		for _, w := range workers {
			w.Close()
		}
		c.Close()
		// The monitor detaches on an idle scheduler: its pump is parked in
		// cur.Next with no event coming to wake it.
		mon.Close()
	}

	s.Close()
	closed = true
	// Goroutines unwind asynchronously after the calls that stop them
	// return (a closed conn's peer, a finished Map's goroutine above).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after Close, baseline %d:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestSchedulerHeapStaysFlat is the memory twin of
// TestSchedulerLeaksNoGoroutines: a million tasks through the dispatcher
// core, with the event backlog bounded as `sched -event-backlog 4096`
// does, must leave the live heap where two hundred thousand left it.
// Whatever the dispatcher keeps per task — tenant records, lanes, the
// hub's blocks, metric series — would show here as growth.
func TestSchedulerHeapStaysFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("a million tasks: skipped under -short")
	}
	const warm, total = 200_000, 1_000_000
	// 256 KB is two and a half history blocks, and far below what a
	// million tasks would leave at even one byte apiece.
	const slack = 256 << 10
	s, wave := dispatcherCore(t, 16)
	s.Events().SetLimit(4096)
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapInuse
	}
	var atWarm uint64
	for n := 0; n < total; n += coreWave {
		if n >= warm && atWarm == 0 {
			atWarm = heap()
		}
		wave()
	}
	end := heap()
	runtime.KeepAlive(wave) // the rig is live at both readings
	t.Logf("HeapInuse %d KB after %d tasks, %d KB after %d", atWarm>>10, warm, end>>10, total)
	if end > atWarm+slack {
		t.Errorf("HeapInuse grew %d KB between %d and %d tasks, past the %d KB slack",
			(end-atWarm)>>10, warm, total, slack>>10)
	}
}
