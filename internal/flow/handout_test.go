package flow

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/events"
)

// TestFillHandoutSizing pins the handout sizing rule on an in-memory
// queue: no sockets, no clock. Each case queues runs of tasks, one wave
// per run, and reads off how many tasks each successive handout takes.
func TestFillHandoutSizing(t *testing.T) {
	type run struct {
		tasks    int
		mean     time.Duration // the wave's running mean; 0 = no result back yet
		attempts int
	}
	for _, tc := range []struct {
		name  string
		batch int
		queue []run
		want  []int // sizes of successive handouts until the queue is empty
	}{
		{"minute-long targets go out one per worker", 0, []run{{tasks: 3, mean: 60 * time.Second}}, []int{1, 1, 1}},
		{"46us kernels go out about twenty at a time", 0, []run{{tasks: 50, mean: 46 * time.Microsecond}}, []int{21, 21, 8}},
		{"2us tasks stop at the cap", 0, []run{{tasks: 130, mean: 2 * time.Microsecond}}, []int{64, 64, 2}},
		{"a wave nothing has come back from goes out one by one", 0, []run{{tasks: 3}}, []int{1, 1, 1}},
		{"a retried task travels alone at the head", 0, []run{{tasks: 1, mean: 2 * time.Microsecond, attempts: 1}, {tasks: 5, mean: 2 * time.Microsecond}}, []int{1, 5}},
		{"a retried task travels alone behind others", 0, []run{{tasks: 3, mean: 2 * time.Microsecond}, {tasks: 2, mean: 2 * time.Microsecond, attempts: 2}, {tasks: 3, mean: 2 * time.Microsecond}}, []int{3, 1, 1, 3}},
		{"an unmeasured wave behind a measured one waits for its own handout", 0, []run{{tasks: 4, mean: 2 * time.Microsecond}, {tasks: 2}}, []int{4, 1, 1}},
		{"a long task behind short ones closes the handout", 0, []run{{tasks: 3, mean: 46 * time.Microsecond}, {tasks: 2, mean: 60 * time.Second}, {tasks: 3, mean: 46 * time.Microsecond}}, []int{3, 1, 1, 3}},
		{"a fixed batch ignores all of it", 4, []run{{tasks: 3, mean: 60 * time.Second}, {tasks: 2, attempts: 3}, {tasks: 5, mean: 2 * time.Microsecond}}, []int{4, 4, 2}},
		{"batch 1 is one task per handout", 1, []run{{tasks: 3, mean: 2 * time.Microsecond}}, []int{1, 1, 1}},
	} {
		for _, policy := range []string{PolicyFIFO, PolicyFair} {
			t.Run(tc.name+"/"+policy, func(t *testing.T) {
				queue := newTestQueue(t, policy)
				// One lane, so that fair hands out in submission order too.
				next := 0
				for _, r := range tc.queue {
					sub := &submission{}
					if r.mean > 0 {
						sub.wave.observe(r.mean)
					}
					for i := 0; i < r.tasks; i++ {
						q := queue.task(fmt.Sprintf("t%03d", next), "c", nil)
						q.attempts, q.sub = r.attempts, sub
						queue.Push(q)
						next++
					}
				}
				var got []int
				popped := 0
				for queue.Len() > 0 {
					h := fillHandout(nil, queue.taskQueue, tc.batch)
					if len(h) == 0 {
						t.Fatalf("empty handout with %d tasks queued", queue.Len())
					}
					for _, q := range h {
						if want := fmt.Sprintf("t%03d", popped); q.task.ID != want {
							t.Fatalf("handout %d carries %s, want %s: handouts must keep queue order", len(got), q.task.ID, want)
						}
						popped++
					}
					got = append(got, len(h))
				}
				if fmt.Sprint(got) != fmt.Sprint(tc.want) {
					t.Errorf("handout sizes = %v, want %v", got, tc.want)
				}
				if h := fillHandout(nil, queue.taskQueue, tc.batch); len(h) != 0 {
					t.Errorf("handout from an empty queue = %v", h)
				}
			})
		}
	}
}

// TestFillHandoutAcrossFairLanes: under the fair policy a handout takes
// from the lanes in rotation, and a lane whose head may not join — here a
// redelivery — ends the handout without losing its turn.
func TestFillHandoutAcrossFairLanes(t *testing.T) {
	queue := newTestQueue(t, PolicyFair)
	sub := &submission{}
	sub.wave.observe(2 * time.Microsecond)
	for i := 0; i < 2; i++ {
		for _, c := range []string{"a", "b"} {
			q := queue.task(fmt.Sprintf("%s%d", c, i), c, nil)
			q.sub = sub
			queue.Push(q)
		}
	}
	retry := queue.task("b-retry", "b", nil)
	retry.sub, retry.attempts = sub, 1
	queue.PushFront(retry)
	var got []string
	for queue.Len() > 0 {
		var ids []string
		for _, q := range fillHandout(nil, queue.taskQueue, 0) {
			ids = append(ids, q.task.ID)
		}
		got = append(got, strings.Join(ids, "+"))
	}
	if want := "[a0 b-retry a1+b0+b1]"; fmt.Sprint(got) != want {
		t.Errorf("handouts = %v, want %v", got, want)
	}
}

// TestWaveMean: the estimate is the plain mean of what was observed, and
// a backwards clock on a worker counts as zero, not as negative time.
func TestWaveMean(t *testing.T) {
	q := queued{sub: &submission{}}
	if _, ok := q.estimate(); ok {
		t.Error("estimate before any sample")
	}
	q.sub.wave.observe(10 * time.Microsecond)
	q.sub.wave.observe(30 * time.Microsecond)
	q.sub.wave.observe(-time.Hour)
	if d, ok := q.estimate(); !ok || d != 40*time.Microsecond/3 {
		t.Errorf("estimate = %v, %v; want %v", d, ok, 40*time.Microsecond/3)
	}
	q.attempts = 1
	if _, ok := q.estimate(); ok {
		t.Error("a redelivery has an estimate")
	}
}

// TestStartRejectsNegativeBatch: below zero is neither self-sizing nor a
// size.
func TestStartRejectsNegativeBatch(t *testing.T) {
	s := NewScheduler()
	s.Batch = -1
	if addr, err := s.Start("127.0.0.1:0"); err == nil {
		s.Close()
		t.Fatalf("Start with Batch = -1 listened on %s", addr)
	}
}

// TestSelfSizedHandoutIsolatesWorkerKiller is the blast radius of a
// poison task under Batch = 0. The task kills every worker it runs on. Its
// first delivery may share a handout with up to 63 neighbours, which all
// go back to the queue with it, each charged one attempt; from then on
// every one of them travels alone, so the neighbours complete on their
// second delivery and only the poison task burns the rest of the budget.
func TestSelfSizedHandoutIsolatesWorkerKiller(t *testing.T) {
	s := NewScheduler()
	s.MaxRetries = 2
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	const poison = "t120"
	var mu sync.Mutex
	workers := map[string]*Worker{}
	spawned := 0
	var spawn func()
	handler := func(id string) Handler {
		return func(task Task) (json.RawMessage, error) {
			if task.ID != poison {
				return task.Payload, nil
			}
			// The worker dies with the task — and whatever else it was
			// handed — in flight; a replacement joins, as a supervisor
			// would restart it.
			mu.Lock()
			w := workers[id]
			mu.Unlock()
			w.conn.Close()
			spawn()
			return nil, fmt.Errorf("unreachable: the connection is gone")
		}
	}
	spawn = func() {
		mu.Lock()
		defer mu.Unlock()
		id := fmt.Sprintf("w%02d", spawned)
		spawned++
		w := NewWorker(id, handler(id))
		workers[id] = w
		if err := w.Connect(addr); err != nil {
			t.Errorf("worker %s: %v", id, err)
			return
		}
		t.Cleanup(w.Close)
	}
	spawn()
	spawn()

	c, err := connectClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.ResultTimeout = 20 * time.Second
	tasks := makeTasks(200)
	results, err := c.Map(tasks, nil)
	if err != nil {
		t.Fatal(err)
	}

	var failed []string
	for _, r := range results {
		if r.Failed() {
			failed = append(failed, r.TaskID)
		}
	}
	if len(results) != len(tasks) || fmt.Sprint(failed) != "["+poison+"]" {
		t.Fatalf("%d results, failed %v; want %d results and only %s failed", len(results), failed, len(tasks), poison)
	}

	// The event stream has the rest. A requeue is a queued event with
	// Attempt > 0, so the tasks that have one are the poison task and
	// whoever shared a handout with it.
	requeues := map[string]int{}
	quarantined := map[string]int{}
	for _, e := range s.Events().Snapshot() {
		switch e.Type {
		case events.TaskQueued:
			requeues[e.Task] = max(requeues[e.Task], e.Attempt)
		case events.TaskQuarantined:
			quarantined[e.Task] = e.Attempt
		}
	}
	if len(quarantined) != 1 || quarantined[poison] != s.MaxRetries+1 {
		t.Errorf("quarantined = %v, want only %s, after %d deliveries", quarantined, poison, s.MaxRetries+1)
	}
	neighbours := 0
	for id, n := range requeues {
		if id == poison || n == 0 {
			continue
		}
		neighbours++
		if n > 1 {
			t.Errorf("task %s went through %d worker deaths; sharing the poison task's first handout costs one", id, n)
		}
	}
	// The scenario is the one this test is about only if the poison task
	// had company on its first delivery.
	if neighbours == 0 {
		t.Error("the poison task's first handout held nothing else")
	}
}

// TestForwardsCoalescePerClient reads, on raw clients, the frames one
// worker ack turns into: one result frame for each run of consecutive
// records owed to the same client, and nothing for a record that settles
// no task.
func TestForwardsCoalescePerClient(t *testing.T) {
	ids := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%02d", prefix, i)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		// submits lists each client's task IDs; the clients submit in order.
		submits [][]string
		// ack is the one frame the worker answers the handout with.
		ack []string
		// want is, per client, the frames it must read after its accepted
		// ack, each a "+"-joined list of task IDs.
		want [][]string
	}{
		{
			name:    "a 16-result ack for one client is one frame",
			submits: [][]string{ids("t", 16)},
			ack:     ids("t", 16),
			want:    [][]string{{strings.Join(ids("t", 16), "+")}},
		},
		{
			name:    "an ack mixing two clients' tasks is one frame each",
			submits: [][]string{ids("a", 8), ids("b", 8)},
			ack:     append(ids("a", 8), ids("b", 8)...),
			want:    [][]string{{strings.Join(ids("a", 8), "+")}, {strings.Join(ids("b", 8), "+")}},
		},
		{
			name:    "interleaved clients get one frame per run",
			submits: [][]string{ids("a", 3), ids("b", 2)},
			ack:     []string{"a00", "b00", "b01", "a01", "a02"},
			want:    [][]string{{"a00", "a01+a02"}, {"b00+b01"}},
		},
		{
			name:    "a duplicate or a stray record splits the run and is not forwarded",
			submits: [][]string{ids("t", 4)},
			ack:     []string{"t00", "t01", "t00", "t02", "stranger", "t03"},
			want:    [][]string{{"t00+t01", "t02", "t03"}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler()
			s.Batch = 16
			addr, err := s.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)

			clients := make([]*rawPeer, len(tc.submits))
			queuedSoFar := 0
			submit := func(c *rawPeer, taskIDs ...string) {
				tasks := make([]Task, len(taskIDs))
				for j, id := range taskIDs {
					tasks[j] = Task{ID: id}
				}
				if err := c.send(&message{Type: msgSubmit, Tasks: tasks}); err != nil {
					t.Fatal(err)
				}
				// Whoever acts next does so once these tasks are queued, so
				// one handout holds every task in submission order.
				queuedSoFar += len(tasks)
				waitUntil(t, 10*time.Second, func() bool { return countEvents(s, events.TaskQueued) == queuedSoFar }, "submit to be queued")
			}
			for i, taskIDs := range tc.submits {
				clients[i] = dialRaw(t, addr, nil)
				_ = clients[i].conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				submit(clients[i], taskIDs...)
			}

			rw := dialRawWorker(t, addr, "acker")
			ackHandout := func(want int, acked ...string) {
				if got := len(rw.awaitHandout(t)); got != want {
					t.Fatalf("handout carries %d tasks, want %d", got, want)
				}
				ack := message{Type: msgResult}
				for _, id := range acked {
					ack.Results = append(ack.Results, Result{TaskID: id, WorkerID: "acker"})
				}
				if err := rw.send(&ack); err != nil {
					t.Fatal(err)
				}
			}
			ackHandout(queuedSoFar, tc.ack...)

			// A sentinel task per client marks the end of what the ack was
			// forwarded as: every result frame a client reads before its
			// sentinel's is one the ack produced.
			for i, c := range clients {
				submit(c, "sentinel")
				ackHandout(1, "sentinel")
				var got []string
				for {
					var m message
					if err := c.recv(&m); err != nil {
						t.Fatalf("client %d after %v: %v", i, got, err)
					}
					if m.Type != msgResult {
						continue
					}
					frame := make([]string, len(m.Results))
					for j, r := range m.Results {
						frame[j] = r.TaskID
					}
					if frame[0] == "sentinel" {
						break
					}
					got = append(got, strings.Join(frame, "+"))
				}
				if fmt.Sprint(got) != fmt.Sprint(tc.want[i]) {
					t.Errorf("client %d read frames %v, want %v", i, got, tc.want[i])
				}
			}
		})
	}
}
