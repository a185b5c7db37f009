package flow

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/rng"
)

// TestSameInputsSameStream: the order of worker_lost, dropped and the
// requeues behind them is a function of the inputs, not of map iteration.
// Two workers are lost in one sweep, and a client leaves with deferred
// work in two campaigns; fifty runs must read the same, in first-seen
// order.
func TestSameInputsSameStream(t *testing.T) {
	run := func() string {
		sc := &scene{rig: newDirectRig(t, txConfig{policy: PolicyFair, quota: 2, batch: 2, beatTimeout: time.Second})}
		leaver, stayer := sc.connect(""), sc.connect("")
		sc.submit(leaver, 8, "", "x", "y") // two admitted and two deferred in each campaign
		sc.submit(stayer, 4, "", "y", "x")
		w0, _, w2 := sc.join(), sc.join(), sc.join()
		sc.drop(leaver)
		sc.submit(stayer, 6, "", "x", "y", "z")
		sc.sweep([]*txWorker{w2, w0})
		sc.drain()
		return sc.out.String()
	}
	first := run()
	for _, want := range []string{
		// The leaver's deferred work goes campaign by campaign, x first.
		"dropped t004 - 0 x\n  dropped t006 - 0 x\n  dropped t005 - 0 y\n  dropped t007 - 0 y\n",
		// w0 joined before w2, so it is lost first, whatever the caller's order.
		"> sweep losing [w0 w2]\n  worker_lost - w0 0 -\n",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("transcript lacks %q:\n%s", want, first)
		}
	}
	if lost := strings.Index(first, "worker_lost - w2"); lost < strings.Index(first, "worker_lost - w0") {
		t.Errorf("w2 lost before w0:\n%s", first)
	}
	for i := 1; i < 50; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d differs from run 0 at line %d:\n%s", i, firstDiff(got, first), got)
		}
	}
}

// invariants is what must hold of a dispatcher after every step of any
// interleaving (ROADMAP aim 3), checked from outside: on the frames and
// events a step produced, and on the dispatcher's own records.
type invariants struct {
	t        testing.TB
	sc       *scene
	d        *dispatcher
	fold     *events.Fold
	received map[string]bool
	settled  map[string]int  // terminal events per task
	answered map[string]bool // tasks whose result reached their client
	// waiting lists each tenant's tasks received and not yet admitted, in
	// arrival order: a tenant admits, deferred or not, only its oldest.
	waiting map[string][]string
}

func watch(t testing.TB, sc *scene) *invariants {
	v := &invariants{t: t, sc: sc, d: sc.rig.(*directRig).d, fold: events.NewFold(),
		received: map[string]bool{}, settled: map[string]int{}, answered: map[string]bool{},
		waiting: map[string][]string{}}
	sc.check = v.step
	return v
}

func (v *invariants) step(frames map[string][]message, evs []events.Event) {
	t := v.t
	for i := range evs {
		e := &evs[i]
		v.fold.Observe(e)
		tenant := e.Campaign
		if tenant == "" && e.Type.TaskScoped() {
			tenant = "client " + v.sc.owner[e.Task].name
		}
		switch e.Type {
		case events.TaskReceived:
			v.received[e.Task] = true
			v.waiting[tenant] = append(v.waiting[tenant], e.Task)
		case events.TaskQueued:
			if e.Attempt == 0 { // an admission, not a requeue
				w := v.waiting[tenant]
				if len(w) == 0 || w[0] != e.Task {
					t.Fatalf("%s admitted task %s out of arrival order: waiting, oldest first, %v", tenant, e.Task, w)
				}
				v.waiting[tenant] = w[1:]
			}
		case events.TaskDone, events.TaskFailed, events.TaskDropped:
			if v.settled[e.Task]++; v.settled[e.Task] > 1 {
				t.Fatalf("task %s settled twice (%s)", e.Task, e.Type)
			}
			if e.Type == events.TaskDropped {
				// Dropped before admission: it leaves the line it waited in.
				v.waiting[tenant] = slices.DeleteFunc(v.waiting[tenant], func(id string) bool { return id == e.Task })
			}
		case events.TaskAssigned:
			if i := slices.IndexFunc(v.sc.workers, func(w *txWorker) bool { return w.id == e.Worker }); v.sc.workers[i].gone {
				t.Fatalf("task %s assigned to dropped worker %s", e.Task, e.Worker)
			}
		}
	}
	if err := events.CheckFold(v.fold); err != nil {
		t.Fatal(err)
	}
	for _, c := range v.sc.clients {
		for _, m := range frames[c.name] {
			for _, res := range m.Results {
				if v.sc.owner[res.TaskID] != c || v.answered[res.TaskID] {
					t.Fatalf("client %s was sent a result for %s, which it does not await", c.name, res.TaskID)
				}
				v.answered[res.TaskID] = true
			}
		}
		if p := c.cc.ob.(*fakePeer); p.late > 0 {
			t.Fatalf("dropped client %s was enqueued %d frames", c.name, p.late)
		}
	}
	for _, w := range v.sc.workers {
		if p := w.wc.ob.(*fakePeer); p.late > 0 {
			t.Fatalf("dropped worker %s was enqueued %d frames", w.id, p.late)
		}
	}
	if len(v.d.byKey) != len(v.d.tenants) {
		t.Fatalf("%d tenants listed, %d indexed", len(v.d.tenants), len(v.d.byKey))
	}
	for _, tn := range v.d.tenants {
		if tn.admitted < 0 || (v.d.quota > 0 && tn.admitted > v.d.quota) || (tn.deferred.n > 0 && tn.admitted < v.d.quota) {
			t.Fatalf("tenant %+v: admitted %d, deferred %d under quota %d", tn.key, tn.admitted, tn.deferred.n, v.d.quota)
		}
	}
}

// quiescent checks what must hold once every worker has answered
// everything: each task received settled exactly once, each live client
// has every answer it awaits, and the dispatcher holds nothing.
func (v *invariants) quiescent() {
	t := v.t
	for task := range v.received {
		if v.settled[task] != 1 {
			t.Errorf("task %s settled %d times at quiescence", task, v.settled[task])
		}
		if c := v.sc.owner[task]; !c.gone && !v.answered[task] {
			t.Errorf("client %s never got its answer for %s", c.name, task)
		}
	}
	if n := len(v.d.tenants) + len(v.d.byKey) + len(v.d.queue.order) + v.d.queue.Len(); n != 0 {
		t.Errorf("dispatcher holds %d tenants (%d indexed), %d lanes in rotation, %d tasks at quiescence",
			len(v.d.tenants), len(v.d.byKey), len(v.d.queue.order), v.d.queue.Len())
	}
	live := v.sc.live()
	if len(v.d.free) != len(live) || len(v.d.workers) != len(live) {
		t.Errorf("%d live workers, but %d in the fleet and %d free", len(live), len(v.d.workers), len(v.d.free))
	}
}

// interleave runs one generated interleaving: cfg's bits choose the
// scheduler, ch the steps.
func interleave(t testing.TB, cfg byte, ch chooser, steps int) {
	sc := &scene{sweeps: true, rig: newDirectRig(t, txConfig{
		policy:      []string{PolicyFIFO, PolicyFair}[cfg&1],
		quota:       []int{0, 5}[cfg>>1&1],
		batch:       []int{0, 4}[cfg>>2&1],
		maxRetries:  []int{0, 2}[cfg>>3&1],
		beatTimeout: time.Second,
	})}
	v := watch(t, sc)
	sc.walk(ch, steps, []string{"", "alpha", "beta"})
	sc.drain()
	v.quiescent()
	if t.Failed() {
		t.Logf("transcript:\n%s", sc.out.String())
	}
}

// TestDispatcherInterleavings drives the dispatcher's methods through
// seeded interleavings of register, submit, ack, partial ack, duplicate
// ack, late ack, worker death, client loss and sweep, checking the
// invariants after every step.
func TestDispatcherInterleavings(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			// Seeds 1..8 between them take every policy, quota and batch
			// setting, with and without a retry budget.
			interleave(t, byte(seed*5), rng.New(seed), 2000)
		})
	}
}

// byteChooser draws a walk's choices from a fuzzer's bytes, and zeroes
// once they run out.
type byteChooser struct{ data []byte }

func (b *byteChooser) Intn(n int) int {
	if len(b.data) == 0 {
		return 0
	}
	c := b.data[0]
	b.data = b.data[1:]
	return int(c) % n
}

// FuzzDispatcher is TestDispatcherInterleavings with the fuzzer choosing
// the steps: the first byte is the configuration, every later one a
// choice. The seeds under testdata/fuzz/FuzzDispatcher are named for
// their configuration and reach every kind of step.
func FuzzDispatcher(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		interleave(t, data[0], &byteChooser{data[1:]}, min(len(data), 400))
	})
}

// pump has every worker answer everything it has been handed, until none
// has anything left.
func pump(d *dispatcher, workers []*workerConn, now time.Time) {
	for again := true; again; {
		again = false
		for _, wc := range workers {
			for _, m := range wc.ob.(*fakePeer).take() {
				ress := make([]Result, len(m.Tasks))
				for i, task := range m.Tasks {
					ress[i] = Result{TaskID: task.ID, WorkerID: wc.id}
				}
				d.result(wc, ress, now)
				again = true
			}
		}
	}
}

// TestTenantsAreReleased: a tenant record lives exactly as long as
// something of the tenant's is admitted or deferred. Ten thousand
// short-lived unnamed clients and a hundred named campaigns submit,
// settle and go — some abandoned mid-flight, some with deferred work —
// and afterwards the dispatcher holds no tenant and no lane; at no step
// does a tenant have more admitted than the quota.
func TestTenantsAreReleased(t *testing.T) {
	const quota = 4
	s := NewScheduler()
	s.Policy, s.Quota, s.Batch = PolicyFair, quota, 3
	s.Events().SetLimit(64)
	d, err := s.newDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	now := txEpoch
	workers := make([]*workerConn, 4)
	for i := range workers {
		workers[i] = &workerConn{id: fmt.Sprintf("w%d", i), ob: &fakePeer{}}
		d.register(workers[i], now)
	}
	r := rng.New(24)
	next, peak := 0, 0
	submit := func(cc *clientConn, campaign string) {
		tasks := make([]Task, 1+r.Intn(2*quota))
		for i := range tasks {
			tasks[i] = Task{ID: fmt.Sprintf("t%d", next)}
			next++
		}
		d.submit(cc, tasks, campaign, now)
	}
	check := func() {
		t.Helper()
		peak = max(peak, len(d.tenants))
		for _, tn := range d.tenants {
			if tn.admitted > quota {
				t.Fatalf("tenant %+v has %d admitted under quota %d", tn.key, tn.admitted, quota)
			}
		}
	}
	// leave ends a client's visit one of three ways: after everything
	// settled, abandoning what is queued, deferred and in flight, or
	// abandoning with the fleet answering afterwards.
	leave := func(cc *clientConn) {
		switch r.Intn(3) {
		case 0:
			pump(d, workers, now)
			check()
			d.clientGone(cc, now)
		case 1:
			d.clientGone(cc, now)
		default:
			d.clientGone(cc, now)
			pump(d, workers, now)
		}
		check()
	}
	for i := 0; i < 10000; i++ {
		cc := &clientConn{ob: &fakePeer{}}
		submit(cc, "")
		check()
		leave(cc)
	}
	for i := 0; i < 100; i++ {
		// Two clients share each campaign, so one's leaving admits the
		// other's deferred work.
		a, b := &clientConn{ob: &fakePeer{}}, &clientConn{ob: &fakePeer{}}
		campaign := fmt.Sprintf("campaign-%d", i)
		submit(a, campaign)
		submit(b, campaign)
		check()
		leave(a)
		leave(b)
	}
	pump(d, workers, now)
	if n := len(d.tenants) + len(d.byKey) + len(d.queue.order) + d.queue.Len(); n != 0 {
		t.Errorf("after every client left: %d tenants (%d indexed), %d lanes in rotation, %d tasks queued",
			len(d.tenants), len(d.byKey), len(d.queue.order), d.queue.Len())
	}
	if len(d.free) != len(workers) {
		t.Errorf("%d of %d workers free", len(d.free), len(workers))
	}
	t.Logf("%d tasks, at most %d tenant records at once", next, peak)
}

// TestTenantCountsOnlyItsOwnTasks is the rule for a client that submits
// both named and unnamed tasks under a quota: the campaign's quota is
// charged for the named ones, the connection's for the unnamed ones, and
// neither for the other's.
func TestTenantCountsOnlyItsOwnTasks(t *testing.T) {
	s := NewScheduler()
	s.Quota = 2
	d, err := s.newDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	ob := &fakePeer{}
	cc := &clientConn{ob: ob}
	d.submit(cc, []Task{{ID: "n0"}, {ID: "n1"}}, "named", txEpoch)
	d.submit(cc, []Task{{ID: "u0"}, {ID: "u1"}}, "", txEpoch)
	if got := countEvents(s, events.TaskQueued); got != 4 {
		t.Errorf("%d tasks admitted, want all 4: the client's named tasks must not use up its unnamed quota", got)
	}
	d.submit(cc, []Task{{ID: "u2"}}, "", txEpoch)
	d.submit(cc, []Task{{ID: "n2"}}, "named", txEpoch)
	if got := countEvents(s, events.TaskQueued); got != 4 {
		t.Errorf("%d tasks admitted, want u2 and n2 deferred behind their own tenant's quota", got)
	}
	var acks []int
	for _, m := range ob.take() {
		acks = append(acks, m.Count)
	}
	if fmt.Sprint(acks) != "[2 2]" {
		t.Errorf("accepted acks = %v, want [2 2]: the two deferred frames' acks are withheld", acks)
	}
	for _, tn := range d.tenants {
		if tn.admitted != 2 || tn.deferred.n != 1 {
			t.Errorf("tenant %+v: admitted %d, deferred %d; want 2 and 1", tn.key, tn.admitted, tn.deferred.n)
		}
	}
}

// TestDeferredRingWrapsThenClientLeaves: two clients of one campaign
// queue behind its quota until the deferred lane has wrapped around its
// ring; then one client leaves. Only the leaver's tasks are dropped, and
// the survivor's are admitted in the order they arrived.
func TestDeferredRingWrapsThenClientLeaves(t *testing.T) {
	sc := &scene{rig: newDirectRig(t, txConfig{policy: PolicyFair, quota: 2, batch: 1})}
	v := watch(t, sc)
	var evs []events.Event
	sc.check = func(frames map[string][]message, got []events.Event) {
		evs = append(evs, got...)
		v.step(frames, got)
	}
	a, b := sc.connect("c"), sc.connect("c")
	w := sc.join()
	sc.submit(a, 8, "") // t000, t001 admitted; t002..t007 deferred
	sc.submit(b, 6, "") // t008..t013 deferred
	for i := 0; i < 4; i++ {
		sc.ack(w, 1, 40*time.Microsecond, false) // each admits the deferred head
	}
	sc.submit(a, 4, "") // t014..t017
	sc.submit(b, 4, "") // t018..t021
	d := v.d
	if len(d.tenants) != 1 {
		t.Fatalf("%d tenants, want the one campaign", len(d.tenants))
	}
	if l := &d.tenants[0].deferred; l.head+l.n <= len(l.buf) {
		t.Fatalf("deferred ring head %d, %d tasks in %d slots: it has not wrapped", l.head, l.n, len(l.buf))
	}
	evs = nil
	sc.drop(a)
	var dropped []string
	for _, e := range evs {
		if e.Type == events.TaskDropped {
			dropped = append(dropped, e.Task)
		}
	}
	// The leaver's deferred tasks first, then its queued one; t004 is on
	// the worker and finishes orphaned.
	if want := "[t006 t007 t014 t015 t016 t017 t005]"; fmt.Sprint(dropped) != want {
		t.Errorf("dropped %v, want %s", dropped, want)
	}
	sc.drain()
	v.quiescent()
	var admitted []string
	for _, e := range evs {
		if e.Type == events.TaskQueued && sc.owner[e.Task] == b {
			admitted = append(admitted, e.Task)
		}
	}
	if want := "[t008 t009 t010 t011 t012 t013 t018 t019 t020 t021]"; fmt.Sprint(admitted) != want {
		t.Errorf("survivor's tasks admitted as %v, want %s", admitted, want)
	}
	if t.Failed() {
		t.Logf("transcript:\n%s", sc.out.String())
	}
}
