package flow

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func queuedTask(id, campaign string, cc *clientConn) queued {
	return queued{task: Task{ID: id, Campaign: campaign}, client: cc}
}

// testQueue is a dispatcher's queue with the dispatcher's tenant records
// behind it, for tests that push entries straight into the queue.
type testQueue struct {
	*taskQueue
	d *dispatcher
}

func newTestQueue(t *testing.T, policy string) testQueue {
	t.Helper()
	s := NewScheduler()
	s.Policy = policy
	d, err := s.newDispatcher(txEpoch)
	if err != nil {
		t.Fatal(err)
	}
	return testQueue{&d.queue, d}
}

// task is queuedTask with the tenant the dispatcher would resolve.
func (p testQueue) task(id, campaign string, cc *clientConn) queued {
	q := queuedTask(id, campaign, cc)
	q.tenant = p.d.tenantOf(campaign, cc)
	return q
}

func popIDs(t *testing.T, p interface{ Pop() (queued, bool) }, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		q, ok := p.Pop()
		if !ok {
			t.Fatalf("Pop %d/%d: queue ran dry", i+1, n)
		}
		ids = append(ids, q.task.ID)
	}
	return ids
}

func TestNewQueuePolicyNames(t *testing.T) {
	newQueuePolicy := func(name string) (*dispatcher, error) {
		s := NewScheduler()
		s.Policy = name
		return s.newDispatcher(txEpoch)
	}
	for _, name := range []string{"", PolicyFIFO} {
		p, err := newQueuePolicy(name)
		if err != nil {
			t.Fatalf("newQueuePolicy(%q): %v", name, err)
		}
		if p.shared == nil {
			t.Errorf("newQueuePolicy(%q) has no shared lane, want one", name)
		}
	}
	p, err := newQueuePolicy(PolicyFair)
	if err != nil {
		t.Fatal(err)
	}
	if p.shared != nil {
		t.Errorf("newQueuePolicy(fair) has a shared lane, want one per tenant")
	}
	if _, err := newQueuePolicy("priority"); err == nil || !strings.Contains(err.Error(), PolicyFair) {
		t.Errorf("unknown policy error = %v, want mention of the valid names", err)
	}
}

// TestFIFOPolicyArrivalOrder pins the default discipline: strict arrival
// order, with PushFront (requeue) jumping the whole line.
func TestFIFOPolicyArrivalOrder(t *testing.T) {
	p := newTestQueue(t, "")
	for _, id := range []string{"t0", "t1", "t2"} {
		p.Push(p.task(id, "", nil))
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
	if got := popIDs(t, p, 1); got[0] != "t0" {
		t.Fatalf("first pop = %s, want t0", got[0])
	}
	p.PushFront(p.task("t0r", "", nil))
	if got := strings.Join(popIDs(t, p, 3), ","); got != "t0r,t1,t2" {
		t.Errorf("pops = %s, want t0r,t1,t2 (requeue jumps the line)", got)
	}
	if _, ok := p.Pop(); ok || p.Len() != 0 {
		t.Error("drained queue still pops")
	}
}

func TestFIFOPolicyDropClient(t *testing.T) {
	p := newTestQueue(t, PolicyFIFO)
	gone, stay := &clientConn{}, &clientConn{}
	p.Push(p.task("g0", "", gone))
	p.Push(p.task("s0", "", stay))
	p.Push(p.task("g1", "", gone))
	dropped := p.DropClient(gone)
	if len(dropped) != 2 || dropped[0].task.ID != "g0" || dropped[1].task.ID != "g1" {
		t.Fatalf("dropped = %+v, want g0,g1 in queue order", dropped)
	}
	if p.Len() != 1 {
		t.Fatalf("Len after drop = %d, want 1", p.Len())
	}
	if got := popIDs(t, p, 1); got[0] != "s0" {
		t.Errorf("survivor = %s, want s0", got[0])
	}
}

// TestFairPolicyRoundRobin: handout alternates across campaign lanes, so
// the second campaign's first task goes out ahead of the first campaign's
// backlog; within a lane, order is the FIFO default.
func TestFairPolicyRoundRobin(t *testing.T) {
	p := newTestQueue(t, PolicyFair)
	for _, id := range []string{"a0", "a1", "a2"} {
		p.Push(p.task(id, "A", nil))
	}
	for _, id := range []string{"b0", "b1"} {
		p.Push(p.task(id, "B", nil))
	}
	if p.Len() != 5 {
		t.Fatalf("Len = %d, want 5", p.Len())
	}
	if got := strings.Join(popIDs(t, p, 5), ","); got != "a0,b0,a1,b1,a2" {
		t.Errorf("pops = %s, want a0,b0,a1,b1,a2 (round-robin across lanes)", got)
	}
	if _, ok := p.Pop(); ok || p.Len() != 0 {
		t.Error("drained queue still pops")
	}
}

// TestFairPolicyPushFrontStaysInLane: a requeued task jumps its own lane's
// line without disturbing the rotation across lanes.
func TestFairPolicyPushFrontStaysInLane(t *testing.T) {
	p := newTestQueue(t, PolicyFair)
	p.Push(p.task("a0", "A", nil))
	p.Push(p.task("a1", "A", nil))
	p.Push(p.task("b0", "B", nil))
	if got := popIDs(t, p, 1); got[0] != "a0" {
		t.Fatalf("first pop = %s, want a0", got[0])
	}
	p.PushFront(p.task("a0r", "A", nil))
	if got := strings.Join(popIDs(t, p, 3), ","); got != "b0,a0r,a1" {
		t.Errorf("pops = %s, want b0,a0r,a1 (requeue heads its own lane)", got)
	}
}

// TestFairPolicyLanesUnnamedSubmittersByClient: tasks with no campaign
// identity still get fair treatment — one lane per client connection.
func TestFairPolicyLanesUnnamedSubmittersByClient(t *testing.T) {
	p := newTestQueue(t, PolicyFair)
	c1, c2 := &clientConn{}, &clientConn{}
	p.Push(p.task("x0", "", c1))
	p.Push(p.task("x1", "", c1))
	p.Push(p.task("y0", "", c2))
	if got := strings.Join(popIDs(t, p, 3), ","); got != "x0,y0,x1" {
		t.Errorf("pops = %s, want x0,y0,x1 (per-client lanes)", got)
	}
}

// TestFairPolicyDropClientAcrossLanes: a disconnecting client's tasks
// vanish from every lane it touched, lanes it emptied stop costing a
// rotation turn, and other campaigns' tasks are untouched.
func TestFairPolicyDropClientAcrossLanes(t *testing.T) {
	p := newTestQueue(t, PolicyFair)
	gone, stay := &clientConn{}, &clientConn{}
	p.Push(p.task("a0", "A", gone))
	p.Push(p.task("a1", "A", stay))
	p.Push(p.task("b0", "B", gone))
	p.Push(p.task("c0", "C", stay))
	dropped := p.DropClient(gone)
	if len(dropped) != 2 || dropped[0].task.ID != "a0" || dropped[1].task.ID != "b0" {
		t.Fatalf("dropped = %+v, want a0,b0", dropped)
	}
	if p.Len() != 2 {
		t.Fatalf("Len after drop = %d, want 2", p.Len())
	}
	// Lane B emptied and left the rotation: the survivors alternate A, C.
	if got := strings.Join(popIDs(t, p, 2), ","); got != "a1,c0" {
		t.Errorf("pops = %s, want a1,c0", got)
	}
}

// TestFIFOPolicyRequeueIntoDeepQueue is the cost of one worker death behind
// a bulk tenant: a 16-task batch popped from a 16k-entry queue and pushed
// back must reuse the room its pops vacated — not copy the queue once per
// task (16 × 16k × 160 B ≈ 42 MB before the ring) — come back out in
// handout order, and leave no popped payload pinned in the ring.
func TestFIFOPolicyRequeueIntoDeepQueue(t *testing.T) {
	const depth, batch = 16384, 16
	p := &lane{}
	for i := 0; i < depth; i++ {
		q := queuedTask(fmt.Sprintf("t%05d", i), "", nil)
		q.task.Payload = []byte(`{"kernel":"k"}`)
		p.Push(q)
	}
	popped := make([]queued, 0, batch)
	for i := 0; i < batch; i++ {
		q, _ := p.Pop()
		popped = append(popped, q)
	}
	for i := range p.buf[:batch] {
		if p.buf[i].task.Payload != nil || p.buf[i].task.ID != "" {
			t.Fatalf("ring slot %d still holds popped task %q", i, p.buf[i].task.ID)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := batch - 1; i >= 0; i-- {
		p.PushFront(popped[i])
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("requeueing %d tasks into a %d-entry queue allocated %d bytes, want under 64 KiB", batch, depth, got)
	}

	if p.n != depth {
		t.Fatalf("Len = %d, want %d", p.n, depth)
	}
	for i, id := range popIDs(t, p, depth) {
		if want := fmt.Sprintf("t%05d", i); id != want {
			t.Fatalf("pop %d = %s, want %s (requeued batch must keep handout order)", i, id, want)
		}
	}
}

// TestFIFOPolicyRingWraps drives head and tail around the ring's end in
// every combination the scheduler produces (push, pop, requeue, client
// drop) and checks the order against a plain slice.
func TestFIFOPolicyRingWraps(t *testing.T) {
	p := &lane{}
	gone, stay := &clientConn{}, &clientConn{}
	var model []string
	next := 0
	push := func(cc *clientConn) {
		id := fmt.Sprintf("t%d", next)
		next++
		p.Push(queuedTask(id, "", cc))
		model = append(model, id)
	}
	for round := 0; round < 40; round++ {
		for i := 0; i < 5; i++ {
			push(stay)
		}
		for i := 0; i < 4; i++ {
			q, ok := p.Pop()
			if !ok || q.task.ID != model[0] {
				t.Fatalf("round %d: pop = %q, %v; want %q", round, q.task.ID, ok, model[0])
			}
			model = model[1:]
			if i == 0 { // the first of every four dies with its worker
				p.PushFront(q)
				model = append([]string{q.task.ID}, model...)
			}
		}
		if round%10 == 9 {
			push(gone)
			push(gone)
			if d := p.DropClient(gone); len(d) != 2 {
				t.Fatalf("round %d: dropped %d, want 2", round, len(d))
			}
			model = model[:len(model)-2]
		}
		if p.n != len(model) {
			t.Fatalf("round %d: Len = %d, want %d", round, p.n, len(model))
		}
	}
	if got := strings.Join(popIDs(t, p, len(model)), ","); got != strings.Join(model, ",") {
		t.Errorf("drain order diverged from the slice model:\n got %s\nwant %s", got, strings.Join(model, ","))
	}
}
