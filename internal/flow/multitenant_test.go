package flow

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/events"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, timeout time.Duration, cond func() bool, desc string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", desc)
}

// fakeWorkerConn fabricates a worker connection for fault injection
// directly into the event loop: the scheduler side of a net.Pipe behind
// an outbox, exactly as serveConn builds one. Unlike dialRawWorker there
// is no read pump, so the test fully controls which schedEvents exist and
// in what order — it sends inWorkerGone itself where the pump would.
func fakeWorkerConn(s *Scheduler, id string, sched net.Conn) *workerConn {
	return &workerConn{id: id, ob: s.newOutbox(sched, newBinaryCodec(bufio.NewReader(sched), bufio.NewWriter(sched)))}
}

// drainedWorkerConn is a fakeWorkerConn whose peer reads and discards
// everything, so handouts never block.
func drainedWorkerConn(t *testing.T, s *Scheduler, id string) *workerConn {
	t.Helper()
	sched, peer := net.Pipe()
	go io.Copy(io.Discard, peer) //nolint:errcheck
	t.Cleanup(func() { sched.Close(); peer.Close() })
	return fakeWorkerConn(s, id, sched)
}

// TestLateResultFromDroppedWorkerIgnored is the late-result race: a
// result frame already sitting in the event channel when its worker is
// declared gone (read pump failed, or the heartbeat sweep swept it) must
// not settle the task — by then the task has been requeued and handed to
// another worker, and settling the stale delivery would forward a
// duplicate result to the client and attribute a done event to a dead
// worker, while the live worker's ack later finds nothing to settle.
func TestLateResultFromDroppedWorkerIgnored(t *testing.T) {
	s := NewScheduler()
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

	done := make(chan []Result, 1)
	go func() {
		res, _ := c.Map([]Task{{ID: "t0", Payload: []byte(`1`)}}, nil)
		done <- res
	}()

	nthAssignedTo := func(n int, worker string) func() bool {
		return func() bool {
			assigned := eventsByType(s.Events().Snapshot())[events.TaskAssigned]
			return len(assigned) >= n && assigned[n-1].Worker == worker
		}
	}

	// The ghost takes the task, then its connection is declared gone —
	// but a result frame from it is still in flight (injected below).
	ghost := drainedWorkerConn(t, s, "ghost")
	s.sendEvent(schedEvent{kind: inRegister, wc: ghost})
	waitUntil(t, 5*time.Second, nthAssignedTo(1, "ghost"), "assignment to ghost")
	s.sendEvent(schedEvent{kind: inWorkerGone, wc: ghost})

	// The requeued task lands on a second worker and is in flight there
	// when the ghost's late result arrives.
	holder := drainedWorkerConn(t, s, "holder")
	s.sendEvent(schedEvent{kind: inRegister, wc: holder})
	waitUntil(t, 5*time.Second, nthAssignedTo(2, "holder"), "reassignment to holder")

	// The late result must be dropped; the holder's genuine ack (queued
	// behind it, so ordering is exact) settles the task.
	s.sendEvent(schedEvent{kind: inResult, wc: ghost,
		ress: []Result{{TaskID: "t0", WorkerID: "ghost", Payload: []byte(`"stale"`)}}})
	s.sendEvent(schedEvent{kind: inResult, wc: holder,
		ress: []Result{{TaskID: "t0", WorkerID: "holder", Payload: []byte(`"fresh"`)}}})

	var res []Result
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Map did not return")
	}
	if len(res) != 1 || res[0].WorkerID != "holder" || string(res[0].Payload) != `"fresh"` {
		t.Fatalf("results = %+v, want one result from holder", res)
	}
	byType := eventsByType(s.Events().Snapshot())
	if dones := byType[events.TaskDone]; len(dones) != 1 || dones[0].Worker != "holder" {
		t.Errorf("TaskDone = %+v, want exactly one, attributed to holder", dones)
	}
}

// TestSendFailureChargesRetryBudget: a worker dying exactly at handout
// time (the assignment send fails) is a worker death like any other — the
// redelivery must charge the retry budget, not splice the batch back as if
// never handed out.
func TestSendFailureChargesRetryBudget(t *testing.T) {
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

	done := make(chan []Result, 1)
	go func() {
		res, _ := c.Map([]Task{{ID: "frag", Payload: []byte(`{"mem":16}`)}}, nil)
		done <- res
	}()
	waitUntil(t, 5*time.Second, func() bool { return countEvents(s, events.TaskQueued) >= 1 }, "submit")

	// The brittle worker's pipe peer is already closed, so the handout
	// flush fails and the outbox closes the conn; the read pump a real
	// connection has would then fail and report the worker gone.
	sched, peer := net.Pipe()
	peer.Close()
	t.Cleanup(func() { sched.Close() })
	brittle := fakeWorkerConn(s, "brittle", sched)
	s.sendEvent(schedEvent{kind: inRegister, wc: brittle})
	select {
	case <-brittle.ob.(*outbox).stop:
	case <-time.After(5 * time.Second):
		t.Fatal("the failed handout write did not stop the outbox")
	}
	s.sendEvent(schedEvent{kind: inWorkerGone, wc: brittle})
	waitForEvent(t, s, events.WorkerLeave, 5*time.Second)

	// The retry lands on a healthy worker, unchanged.
	w := NewWorker("healer", echoHandler)
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
	if len(res) != 1 || res[0].Err != "" || res[0].WorkerID != "healer" {
		t.Fatalf("results = %+v, want one success on healer", res)
	}
	if string(res[0].Payload) != `{"mem":16}` {
		t.Fatalf("retry ran with payload %s, want the submitted {\"mem\":16}", res[0].Payload)
	}
	// Proof the redelivery went through the budgeted requeue: the brittle
	// worker's leave is followed by a queued event charging attempt 1, and
	// only that requeue hands the task to the healer.
	var got []string
	for _, e := range s.Events().Snapshot() {
		switch e.Type {
		case events.TaskQueued, events.TaskAssigned, events.WorkerLeave:
			got = append(got, fmt.Sprintf("%s/%s/%d", e.Type, dash(e.Worker), e.Attempt))
		}
	}
	if want := "[queued/-/0 assigned/brittle/0 worker_leave/brittle/0 queued/-/1 assigned/healer/0]"; fmt.Sprint(got) != want {
		t.Errorf("event trail = %v, want %s (send failure must charge an attempt)", got, want)
	}
}

// TestMapDedupesDuplicateResults: one duplicate result frame must not let
// Map return while another task's result is still outstanding, and the
// duplicate record must not appear in the returned slice. The scripted
// scheduler replays the buggy-peer wire sequence directly.
func TestMapDedupesDuplicateResults(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		codec, err := acceptCodec(r, bufio.NewWriter(conn))
		if err != nil {
			return
		}
		var m message
		if err := codec.Decode(&m); err != nil || m.Type != msgSubmit {
			return
		}
		codec.Encode(&message{Type: msgAccepted, Count: len(m.Tasks)})
		codec.Encode(&message{Type: msgResult, Results: []Result{{TaskID: "a", Payload: []byte(`"first"`)}}})
		// A duplicate ack for a, then a result for a task never submitted:
		// both must be ignored.
		codec.Encode(&message{Type: msgResult, Results: []Result{{TaskID: "a", Err: "late duplicate"}}})
		codec.Encode(&message{Type: msgResult, Results: []Result{{TaskID: "stranger"}}})
		codec.Encode(&message{Type: msgResult, Results: []Result{{TaskID: "b", Payload: []byte(`"second"`)}}})
		codec.Flush()
		// Hold the connection open so a premature extra read blocks
		// instead of erroring.
		var hold message
		_ = codec.Decode(&hold)
	}()

	c, err := DialClient(DialOptions{Addr: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.ResultTimeout = 10 * time.Second
	observed := 0
	res, err := c.Map([]Task{{ID: "a"}, {ID: "b"}}, func(*Result) { observed++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || observed != 2 {
		t.Fatalf("got %d results (%d observed), want 2", len(res), observed)
	}
	if res[0].TaskID != "a" || res[0].Err != "" || string(res[0].Payload) != `"first"` {
		t.Errorf("res[0] = %+v, want the FIRST record for a", res[0])
	}
	if res[1].TaskID != "b" || string(res[1].Payload) != `"second"` {
		t.Errorf("res[1] = %+v, want b", res[1])
	}
}

// TestQuotaDefersAdmissionAndAck: with -quota 1, the second task of a
// two-task frame is deferred until the first settles, and the frame's
// accepted ack is withheld until the whole frame is admitted — the
// backpressure signal. The raw client observes the exact wire order:
// first result, then the (late) ack, then the second result.
func TestQuotaDefersAdmissionAndAck(t *testing.T) {
	s := NewScheduler()
	s.Quota = 1
	s.Batch = 1 // the wire order below is read one result per frame
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	cl := dialRaw(t, addr, nil)
	if err := cl.send(&message{Type: msgSubmit, Campaign: "solo", Tasks: []Task{
		{ID: "q0", Payload: []byte(`1`)},
		{ID: "q1", Payload: []byte(`2`)},
	}}); err != nil {
		t.Fatal(err)
	}

	// No workers yet and the frame is over quota: the ack must be
	// withheld. Nothing may arrive on the wire.
	_ = cl.conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
	if n, err := cl.conn.Read(make([]byte, 1)); err == nil || n > 0 {
		t.Fatal("scheduler acked a frame whose admission is still deferred")
	}
	_ = cl.conn.SetReadDeadline(time.Now().Add(10 * time.Second))

	w := NewWorker("drainer", echoHandler)
	if err := w.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	var frames []message
	for len(frames) < 3 {
		var m message
		if err := cl.recv(&m); err != nil {
			t.Fatalf("reading frame %d: %v", len(frames), err)
		}
		frames = append(frames, m)
	}
	if frames[0].Type != msgResult || len(frames[0].Results) != 1 || frames[0].Results[0].TaskID != "q0" {
		t.Fatalf("frame 0 = %+v, want result for q0", frames[0])
	}
	if frames[1].Type != msgAccepted || frames[1].Count != 2 {
		t.Fatalf("frame 1 = %+v, want the deferred accepted ack for the whole frame", frames[1])
	}
	if frames[2].Type != msgResult || len(frames[2].Results) != 1 || frames[2].Results[0].TaskID != "q1" {
		t.Fatalf("frame 2 = %+v, want result for q1", frames[2])
	}

	// The event stream shows the deferred admission: q1 enters the queue
	// only after q0 settles.
	snap := s.Events().Snapshot()
	pos := func(typ events.Type, task string) int {
		for i, e := range snap {
			if e.Type == typ && e.Task == task {
				return i
			}
		}
		t.Fatalf("no %s event for %s", typ, task)
		return -1
	}
	if pos(events.TaskQueued, "q1") < pos(events.TaskDone, "q0") {
		t.Error("q1 was admitted before q0 settled despite -quota 1")
	}
}

// TestQuotaAckFollowsCoalescedResults: the same order holds when the
// results that free the quota share one worker ack and so one forward
// frame. With -quota 2 -batch 2 and a four-task frame, settling q1 admits
// the frame's last deferred task and releases its accepted ack — while q0
// and q1 are still an open forward run. The run must reach the client's
// outbox before the ack does.
func TestQuotaAckFollowsCoalescedResults(t *testing.T) {
	s := NewScheduler()
	s.Quota = 2
	s.Batch = 2
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	cl := dialRaw(t, addr, nil)
	if err := cl.send(&message{Type: msgSubmit, Campaign: "solo", Tasks: []Task{
		{ID: "q0"}, {ID: "q1"}, {ID: "q2"}, {ID: "q3"},
	}}); err != nil {
		t.Fatal(err)
	}
	w := NewWorker("drainer", echoHandler)
	if err := w.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	_ = cl.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var got []string
	for len(got) < 3 {
		var m message
		if err := cl.recv(&m); err != nil {
			t.Fatalf("reading frame %d: %v", len(got), err)
		}
		frame := m.Type
		for _, r := range m.Results {
			frame += " " + r.TaskID
		}
		got = append(got, frame)
	}
	if want := "[result q0 q1 accepted result q2 q3]"; fmt.Sprint(got) != want {
		t.Errorf("client read %v, want %v", got, want)
	}
}

// TestFairShareInterleavesTwoCampaigns: with -policy fair, a campaign
// submitted entirely after another's backlog still gets every other
// handout — the no-starvation property — while each campaign's tasks keep
// their own submission order.
func TestFairShareInterleavesTwoCampaigns(t *testing.T) {
	s := NewScheduler()
	s.Policy = PolicyFair
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	ca, err := connectClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ca.Close)
	ca.Campaign = "alpha"
	cb, err := connectClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cb.Close)
	cb.Campaign = "beta"

	tasksFor := func(prefix string, n int) []Task {
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = Task{ID: fmt.Sprintf("%s%d", prefix, i), Payload: []byte(`0`)}
		}
		return tasks
	}
	doneA := make(chan []Result, 1)
	go func() {
		res, _ := ca.Map(tasksFor("a", 4), nil)
		doneA <- res
	}()
	// Alpha's whole backlog is queued before beta even submits — the
	// starvation setup a FIFO queue cannot escape.
	waitUntil(t, 5*time.Second, func() bool { return countEvents(s, events.TaskQueued) >= 4 }, "alpha queued")
	doneB := make(chan []Result, 1)
	go func() {
		res, _ := cb.Map(tasksFor("b", 4), nil)
		doneB <- res
	}()
	waitUntil(t, 5*time.Second, func() bool { return countEvents(s, events.TaskQueued) >= 8 }, "beta queued")

	w := NewWorker("lone", echoHandler)
	if err := w.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	for name, ch := range map[string]chan []Result{"alpha": doneA, "beta": doneB} {
		select {
		case res := <-ch:
			if len(res) != 4 {
				t.Fatalf("campaign %s: %d results, want 4", name, len(res))
			}
			for _, r := range res {
				if r.Err != "" {
					t.Errorf("campaign %s task %s failed: %s", name, r.TaskID, r.Err)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("campaign %s never completed", name)
		}
	}

	var handout []string
	for _, e := range eventsByType(s.Events().Snapshot())[events.TaskAssigned] {
		handout = append(handout, e.Campaign+":"+e.Task)
	}
	want := "[alpha:a0 beta:b0 alpha:a1 beta:b1 alpha:a2 beta:b2 alpha:a3 beta:b3]"
	if got := fmt.Sprint(handout); got != want {
		t.Errorf("handout order = %v, want strict round-robin %v", got, want)
	}
}

// TestMonitorCampaignFilter: a monitor scoped to one campaign sees that
// campaign's task transitions and the fleet-wide events, but none of the
// other tenant's task traffic.
func TestMonitorCampaignFilter(t *testing.T) {
	s := NewScheduler()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker("shared", echoHandler)
	if err := w.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	m, err := DialMonitor(DialOptions{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.Campaign = "mine"
	m.ReadTimeout = 10 * time.Second
	// DialMonitor returns once the subscribe frame is sent, not once the
	// scheduler has read it; the worker's join, the stream's first event,
	// shows the subscription is live.
	if e, err := m.Next(); err != nil || e.Type != events.WorkerJoin {
		t.Fatalf("first monitor event = %+v, %v; want the worker's join", e, err)
	}

	for _, campaign := range []string{"mine", "theirs"} {
		c, err := connectClient(addr)
		if err != nil {
			t.Fatal(err)
		}
		c.Campaign = campaign
		if _, err := c.Map([]Task{{ID: campaign + "-0", Payload: []byte(`1`)}}, nil); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}

	foreign := func(e events.Event) {
		if e.Campaign == "theirs" || e.Task == "theirs-0" {
			t.Errorf("campaign-scoped monitor leaked foreign event %+v", e)
		}
	}
	// Events reach the monitor independently of the clients' results, so
	// read up to this campaign's completion before s.Close ends the
	// stream, then drain whatever else arrives.
	for {
		e, err := m.Next()
		if err != nil {
			t.Fatalf("monitor never saw its own campaign's completion: %v", err)
		}
		foreign(e)
		if e.Type == events.TaskDone && e.Campaign == "mine" {
			break
		}
	}
	s.Close() // ends the monitor stream cleanly
	for {
		e, err := m.Next()
		if err != nil {
			break
		}
		foreign(e)
	}
}
