package events_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/flow"
	"repro/internal/rng"
)

// The corpus: every event stream the repository has. Scripted streams are
// the hand-written scenarios of the events, flow, analysis, top and
// monitor tests; the rest are the on-disk FuzzReadLog corpus, a live
// scheduler's history, and seeded simulations of the scheduler's emit
// order.

// foldStream is one corpus entry.
type foldStream struct {
	name string
	evs  []events.Event
}

// stamp numbers a scripted stream the way a Hub would.
func stamp(evs ...events.Event) []events.Event {
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
	}
	return evs
}

func scriptedStreams() []foldStream {
	type E = events.Event
	lifecycleRules := func() []events.Event {
		var evs []events.Event
		add := func(typ events.Type, task string, attempt int) {
			evs = append(evs, E{Type: typ, Task: task, Campaign: "c", Attempt: attempt, Worker: "w1"})
		}
		add(events.TaskReceived, "a", 0)
		add(events.TaskQueued, "a", 0)
		add(events.TaskAssigned, "a", 0)
		add(events.TaskRunning, "a", 0)
		add(events.TaskQueued, "a", 1)
		add(events.TaskAssigned, "a", 0)
		add(events.TaskFailed, "a", 2)
		add(events.TaskQuarantined, "a", 2)
		add(events.TaskReceived, "b", 0)
		add(events.TaskQueued, "b", 0)
		add(events.TaskDropped, "b", 0)
		return append(evs, E{Type: events.Truncated, Err: "3 events evicted"})
	}
	return []foldStream{
		{name: "events/lifecycle", evs: stamp(
			E{Type: events.WorkerJoin, Worker: "w1", TimeNS: 1},
			E{Type: events.TaskReceived, Task: "a", TimeNS: 2},
			E{Type: events.TaskQueued, Task: "a", TimeNS: 2},
			E{Type: events.TaskAssigned, Task: "a", Worker: "w1", TimeNS: 3},
			E{Type: events.TaskRunning, Task: "a", Worker: "w1", TimeNS: 3},
			E{Type: events.TaskDone, Task: "a", Worker: "w1", TimeNS: 9},
			E{Type: events.WorkerLeave, Worker: "w1", TimeNS: 10},
		)},
		{name: "events/requeue-and-drop", evs: stamp(
			E{Type: events.TaskQueued, Task: "a"},
			E{Type: events.TaskAssigned, Task: "a", Worker: "w1"},
			E{Type: events.WorkerLeave, Worker: "w1"},
			E{Type: events.TaskQueued, Task: "a"}, // requeue without an attempt
			E{Type: events.TaskDropped, Task: "a"},
			E{Type: events.TaskDropped, Task: "b"},
			E{Type: events.TaskAssigned, Task: "c", Worker: "w2"},
		)},
		{name: "events/reconstructs-run", evs: stamp(
			E{TimeNS: 0, Type: events.WorkerJoin, Worker: "w1"},
			E{TimeNS: 1, Type: events.WorkerJoin, Worker: "w2"},
			E{TimeNS: 10, Type: events.TaskReceived, Task: "a"},
			E{TimeNS: 10, Type: events.TaskQueued, Task: "a"},
			E{TimeNS: 10, Type: events.TaskReceived, Task: "b"},
			E{TimeNS: 10, Type: events.TaskQueued, Task: "b"},
			E{TimeNS: 11, Type: events.TaskAssigned, Task: "a", Worker: "w1"},
			E{TimeNS: 12, Type: events.TaskRunning, Task: "a", Worker: "w1"},
			E{TimeNS: 13, Type: events.TaskAssigned, Task: "b", Worker: "w2"},
			E{TimeNS: 13, Type: events.TaskRunning, Task: "b", Worker: "w2"},
			E{TimeNS: 50, Type: events.TaskDone, Task: "a", Worker: "w1"},
			E{TimeNS: 60, Type: events.TaskFailed, Task: "b", Worker: "w2", Err: "boom"},
		)},
		{name: "events/worker-death", evs: stamp(
			E{TimeNS: 0, Type: events.WorkerJoin, Worker: "w1"},
			E{TimeNS: 0, Type: events.WorkerJoin, Worker: "w2"},
			E{TimeNS: 5, Type: events.TaskReceived, Task: "a"},
			E{TimeNS: 5, Type: events.TaskQueued, Task: "a"},
			E{TimeNS: 6, Type: events.TaskAssigned, Task: "a", Worker: "w1"},
			E{TimeNS: 6, Type: events.TaskRunning, Task: "a", Worker: "w1"},
			E{TimeNS: 20, Type: events.WorkerLeave, Worker: "w1"},
			E{TimeNS: 20, Type: events.TaskQueued, Task: "a"}, // requeue without an attempt
			E{TimeNS: 21, Type: events.TaskAssigned, Task: "a", Worker: "w2"},
			E{TimeNS: 21, Type: events.TaskRunning, Task: "a", Worker: "w2"},
			E{TimeNS: 40, Type: events.TaskDone, Task: "a", Worker: "w2"},
		)},
		{name: "events/ghost-done", evs: stamp(
			E{TimeNS: 1, Type: events.TaskDone, Task: "ghost", Worker: "w1"},
		)},
		{name: "events/lost-then-quarantined", evs: stamp(
			E{Type: events.WorkerJoin, Worker: "w1"},
			E{Type: events.TaskReceived, Task: "a"},
			E{Type: events.TaskQueued, Task: "a"},
			E{Type: events.TaskAssigned, Task: "a", Worker: "w1", TimeNS: 10},
			E{Type: events.TaskRunning, Task: "a", Worker: "w1", TimeNS: 11},
			E{Type: events.WorkerLost, Worker: "w1", Err: "silent", TimeNS: 20},
			E{Type: events.TaskFailed, Task: "a", Err: "quarantined", Attempt: 1, TimeNS: 21},
			E{Type: events.TaskQuarantined, Task: "a", Attempt: 1, TimeNS: 21},
		)},
		{name: "events/campaign-tallies", evs: stamp(
			E{Type: events.TaskReceived, Task: "a", Campaign: "dvu"},
			E{Type: events.TaskQueued, Task: "a", Campaign: "dvu"},
			E{Type: events.TaskAssigned, Task: "a", Campaign: "dvu", Worker: "w1"},
			E{Type: events.TaskRunning, Task: "a", Campaign: "dvu", Worker: "w1"},
			E{Type: events.TaskDone, Task: "a", Campaign: "dvu", Worker: "w1"},
			E{Type: events.TaskReceived, Task: "b", Campaign: "dvu"},
			E{Type: events.TaskQueued, Task: "b", Campaign: "dvu"},
			E{Type: events.TaskAssigned, Task: "b", Campaign: "dvu", Worker: "w1"},
			E{Type: events.TaskReceived, Task: "x"},
			E{Type: events.TaskQueued, Task: "x"},
			E{Type: events.TaskAssigned, Task: "x", Worker: "w2"},
			E{Type: events.TaskQueued, Task: "x", Attempt: 1},
			E{Type: events.TaskAssigned, Task: "x", Worker: "w2"},
			E{Type: events.TaskFailed, Task: "x", Attempt: 2},
			E{Type: events.TaskQuarantined, Task: "x", Attempt: 2},
			E{Type: events.WorkerJoin, Worker: "w1"},
			E{Type: events.WorkerLost, Worker: "w1"},
		)},
		{name: "flow/lifecycle-rules", evs: stamp(lifecycleRules()...)},
		{name: "analysis/occupancy", evs: stamp(
			E{TimeNS: 0, Type: events.WorkerJoin, Worker: "w1"},
			E{TimeNS: 0, Type: events.WorkerJoin, Worker: "w2"},
			E{TimeNS: 0, Type: events.TaskReceived, Task: "a"},
			E{TimeNS: 0, Type: events.TaskQueued, Task: "a"},
			E{TimeNS: 0, Type: events.TaskReceived, Task: "c"},
			E{TimeNS: 0, Type: events.TaskQueued, Task: "c"},
			E{TimeNS: 1e9, Type: events.TaskAssigned, Task: "a", Worker: "w1"},
			E{TimeNS: 2e9, Type: events.TaskAssigned, Task: "c", Worker: "w2"},
			E{TimeNS: 4e9, Type: events.TaskDone, Task: "c", Worker: "w2"},
			E{TimeNS: 5e9, Type: events.TaskDone, Task: "a", Worker: "w1"},
			E{TimeNS: 5e9, Type: events.TaskReceived, Task: "b"},
			E{TimeNS: 5e9, Type: events.TaskQueued, Task: "b"},
			E{TimeNS: 6e9, Type: events.TaskAssigned, Task: "b", Worker: "w1"},
			E{TimeNS: 8e9, Type: events.TaskDone, Task: "b", Worker: "w1"},
			E{TimeNS: 8e9, Type: events.TaskReceived, Task: "d"},
			E{TimeNS: 8e9, Type: events.TaskQueued, Task: "d"},
			E{TimeNS: 9e9, Type: events.TaskAssigned, Task: "d", Worker: "w2"},
			E{TimeNS: 10e9, Type: events.WorkerLost, Worker: "w2", Err: "silent"},
		)},
		{name: "top/two-tasks", evs: stamp(
			E{TimeNS: 0, Type: events.WorkerJoin, Worker: "w1"},
			E{TimeNS: 0, Type: events.TaskReceived, Task: "a", Campaign: "dvu"},
			E{TimeNS: 0, Type: events.TaskQueued, Task: "a", Campaign: "dvu"},
			E{TimeNS: 0, Type: events.TaskReceived, Task: "b", Campaign: "dvu"},
			E{TimeNS: 0, Type: events.TaskQueued, Task: "b", Campaign: "dvu"},
			E{TimeNS: 1e9, Type: events.TaskAssigned, Task: "a", Worker: "w1", Campaign: "dvu"},
			E{TimeNS: 3e9, Type: events.TaskDone, Task: "a", Worker: "w1", Campaign: "dvu"},
			E{TimeNS: 3e9, Type: events.TaskAssigned, Task: "b", Worker: "w1", Campaign: "dvu"},
			E{TimeNS: 4e9, Type: events.TaskFailed, Task: "b", Worker: "w1", Campaign: "dvu", Err: "boom"},
		)},
		{name: "top/worker-loss", evs: stamp(
			E{TimeNS: 0, Type: events.WorkerJoin, Worker: "w1"},
			E{TimeNS: 0, Type: events.TaskReceived, Task: "a"},
			E{TimeNS: 0, Type: events.TaskQueued, Task: "a"},
			E{TimeNS: 1e9, Type: events.TaskAssigned, Task: "a", Worker: "w1"},
			E{TimeNS: 2e9, Type: events.WorkerLost, Worker: "w1", Err: "silent"},
			E{TimeNS: 2e9, Type: events.TaskQueued, Task: "a", Attempt: 1},
		)},
		{name: "top/batch-acked-at-one-stamp", evs: batchAckEvents()},
		{name: "monitor/campaign", evs: stamp(
			E{TimeNS: 0, Type: events.WorkerJoin, Worker: "w1"},
			E{TimeNS: 1, Type: events.TaskReceived, Task: "DVU_00001"},
			E{TimeNS: 2, Type: events.TaskQueued, Task: "DVU_00001"},
			E{TimeNS: 3, Type: events.TaskReceived, Task: "DVU_00002"},
			E{TimeNS: 4, Type: events.TaskQueued, Task: "DVU_00002"},
			E{TimeNS: 5, Type: events.TaskAssigned, Task: "DVU_00001", Worker: "w1"},
			E{TimeNS: 6, Type: events.TaskRunning, Task: "DVU_00001", Worker: "w1"},
			E{TimeNS: 7, Type: events.TaskDone, Task: "DVU_00001", Worker: "w1"},
			E{TimeNS: 8, Type: events.TaskAssigned, Task: "DVU_00002", Worker: "w1"},
			E{TimeNS: 9, Type: events.TaskRunning, Task: "DVU_00002", Worker: "w1"},
			E{TimeNS: 10, Type: events.TaskFailed, Task: "DVU_00002", Worker: "w1", Err: "boom"},
			E{TimeNS: 11, Type: events.WorkerLeave, Worker: "w1"},
		)},
	}
}

// batchAckEvents is a worker handed a four-task batch that it acks in one
// frame: four executions over the same second.
func batchAckEvents() []events.Event {
	evs := []events.Event{{TimeNS: 0, Type: events.WorkerJoin, Worker: "w1"}}
	tasks := []string{"a", "b", "c", "d"}
	for _, task := range tasks {
		evs = append(evs,
			events.Event{TimeNS: 0, Type: events.TaskReceived, Task: task},
			events.Event{TimeNS: 0, Type: events.TaskQueued, Task: task})
	}
	for _, task := range tasks {
		evs = append(evs, events.Event{TimeNS: 1e9, Type: events.TaskAssigned, Task: task, Worker: "w1"})
	}
	evs = append(evs, events.Event{TimeNS: 1e9, Type: events.TaskRunning, Task: "a", Worker: "w1"})
	for _, task := range tasks {
		evs = append(evs, events.Event{TimeNS: 2e9, Type: events.TaskDone, Task: task, Worker: "w1"})
	}
	return stamp(evs...)
}

// testdataStreams decodes the on-disk FuzzReadLog corpus (go test fuzz v1
// files holding one []byte literal); entries that fail to decode as a log
// contribute their intact prefix, as ReadLog callers get it.
func testdataStreams(t *testing.T) []foldStream {
	t.Helper()
	paths, err := filepath.Glob("testdata/fuzz/FuzzReadLog/*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no FuzzReadLog corpus found: %v", err)
	}
	var out []foldStream
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(data), "\n", 3)
		if len(lines) < 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a go fuzz corpus file", p)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lines[1]), "[]byte("), ")")
		raw, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		evs, _ := events.ReadLog(strings.NewReader(raw))
		out = append(out, foldStream{name: "testdata/" + filepath.Base(p), evs: evs})
	}
	return out
}

// liveStream is the history of a real scheduler under the settings the
// bench's tuned fleet uses — fair policy, a quota, batched handout — with
// two campaigns running the same task labels on three shared workers, one
// of which is killed while it holds a batch.
func liveStream(t *testing.T) foldStream {
	t.Helper()
	s := flow.NewScheduler()
	s.Policy, s.Quota, s.Batch, s.MaxRetries = flow.PolicyFair, 24, 4, 3
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	nap := func(task flow.Task) (json.RawMessage, error) {
		time.Sleep(200 * time.Microsecond)
		if strings.HasSuffix(task.ID, "7") {
			return nil, fmt.Errorf("task %s fails", task.ID)
		}
		return task.Payload, nil
	}
	var victim *flow.Worker
	for i := 0; i < 3; i++ {
		w := flow.NewWorker(fmt.Sprintf("w%d", i), nap)
		if err := w.Dial(flow.DialOptions{Addr: addr}); err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		victim = w
	}
	done := make(chan error, 2)
	for _, campaign := range []string{"dvu", "eco"} {
		c, err := flow.DialClient(flow.DialOptions{Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Campaign = campaign
		tasks := make([]flow.Task, 96)
		for i := range tasks {
			tasks[i] = flow.Task{ID: fmt.Sprintf("%s-%03d", campaign, i), Label: fmt.Sprintf("P%03d", i), Payload: []byte(`1`)}
		}
		go func() {
			_, err := c.Map(tasks, nil)
			done <- err
		}()
	}
	// Kill the victim once it holds work.
	deadline := time.Now().Add(10 * time.Second)
	for held := false; !held; {
		if time.Now().After(deadline) {
			t.Fatal("victim worker never received a batch")
		}
		for _, e := range s.Events().Snapshot() {
			held = held || (e.Type == events.TaskAssigned && e.Worker == "w2")
		}
		time.Sleep(50 * time.Microsecond)
	}
	victim.Close()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("Map: %v", err)
		}
	}
	evs := s.Events().Snapshot()
	lost := false
	for _, e := range evs {
		lost = lost || (e.Type == events.WorkerLeave && e.Worker == "w2")
	}
	if !lost {
		t.Fatal("live stream shows no worker death")
	}
	return foldStream{name: "live/fair-quota-batch", evs: evs}
}

// shapedStream simulates n events in the scheduler's emit order (the
// event loop of flow/scheduler.go): submissions with quota-deferred
// admission, batched handout with the head's running event, partial and
// full acks, send failures, worker deaths that requeue or quarantine
// their batch back to front, and client disconnects that drop queued and
// deferred work. Without quota, no task is deferred, and so none is
// dropped that was never queued.
func shapedStream(seed uint64, n int, quota bool) []events.Event {
	type task struct {
		label, campaign string
		attempts        int
	}
	type worker struct {
		name    string
		current []task
	}
	const maxRetries = 2
	r := rng.New(seed)
	campaigns := []string{"", "dvu", "eco"}
	var (
		evs      []events.Event
		now      int64
		queue    []task
		deferred []task
		fleet    []*worker
		tasks    int
		joined   int
	)
	emit := func(e events.Event) {
		e.Seq, e.TimeNS = uint64(len(evs)+1), now
		evs = append(evs, e)
	}
	emitTask := func(typ events.Type, tk task, worker, errMsg string) {
		emit(events.Event{Type: typ, Task: tk.label, Campaign: tk.campaign, Worker: worker, Err: errMsg})
	}
	die := func(i int, typ events.Type) {
		w := fleet[i]
		fleet = append(fleet[:i], fleet[i+1:]...)
		emit(events.Event{Type: typ, Worker: w.name, Err: "gone"})
		for j := len(w.current) - 1; j >= 0; j-- {
			tk := w.current[j]
			tk.attempts++
			if tk.attempts > maxRetries {
				emit(events.Event{Type: events.TaskFailed, Task: tk.label, Campaign: tk.campaign, Attempt: tk.attempts, Err: "quarantined"})
				emit(events.Event{Type: events.TaskQuarantined, Task: tk.label, Campaign: tk.campaign, Attempt: tk.attempts})
				continue
			}
			queue = append([]task{tk}, queue...)
			emit(events.Event{Type: events.TaskQueued, Task: tk.label, Campaign: tk.campaign, Attempt: tk.attempts})
		}
	}
	for len(evs) < n {
		if r.Intn(3) > 0 {
			now += int64(r.Intn(1_000_000))
		}
		switch r.Intn(10) {
		case 0: // a worker joins
			joined++
			fleet = append(fleet, &worker{name: fmt.Sprintf("w%d", joined)})
			emit(events.Event{Type: events.WorkerJoin, Worker: fleet[len(fleet)-1].name})
		case 1, 2: // a client submits a wave
			campaign := campaigns[r.Intn(len(campaigns))]
			for k := 1 + r.Intn(6); k > 0; k-- {
				tasks++
				tk := task{label: fmt.Sprintf("%s/t%04d", campaign, tasks), campaign: campaign}
				emitTask(events.TaskReceived, tk, "", "")
				if quota && r.Intn(5) == 0 {
					deferred = append(deferred, tk)
					continue
				}
				queue = append(queue, tk)
				emitTask(events.TaskQueued, tk, "", "")
			}
		case 3: // a quota slot frees: deferred work is admitted
			if len(deferred) > 0 {
				tk := deferred[0]
				deferred = deferred[1:]
				queue = append(queue, tk)
				emitTask(events.TaskQueued, tk, "", "")
			}
		case 4, 5, 6: // handout to a free worker
			for _, i := range r.Perm(len(fleet)) {
				w := fleet[i]
				if len(w.current) > 0 || len(queue) == 0 {
					continue
				}
				k := min(1+r.Intn(4), len(queue))
				w.current, queue = append(w.current, queue[:k]...), queue[k:]
				for _, tk := range w.current {
					emitTask(events.TaskAssigned, tk, w.name, "")
				}
				if r.Intn(20) == 0 { // the send failed
					die(i, events.WorkerLeave)
				} else {
					emitTask(events.TaskRunning, w.current[0], w.name, "")
				}
				break
			}
		case 7, 8: // a worker acks part or all of its batch
			for _, i := range r.Perm(len(fleet)) {
				w := fleet[i]
				if len(w.current) == 0 {
					continue
				}
				k := 1 + r.Intn(len(w.current))
				for _, tk := range w.current[:k] {
					if r.Intn(8) == 0 {
						emitTask(events.TaskFailed, tk, w.name, "boom")
					} else {
						emitTask(events.TaskDone, tk, w.name, "")
					}
				}
				if w.current = w.current[k:]; len(w.current) > 0 {
					emitTask(events.TaskRunning, w.current[0], w.name, "")
				}
				break
			}
		case 9:
			switch {
			case len(fleet) > 0 && r.Intn(2) == 0: // a worker dies
				typ := events.WorkerLeave
				if r.Intn(3) == 0 {
					typ = events.WorkerLost
				}
				die(r.Intn(len(fleet)), typ)
			case r.Intn(4) == 0: // a client disconnects
				campaign := campaigns[r.Intn(len(campaigns))]
				keep := func(list []task) []task {
					kept := list[:0]
					for _, tk := range list {
						if tk.campaign == campaign {
							emitTask(events.TaskDropped, tk, "", "")
						} else {
							kept = append(kept, tk)
						}
					}
					return kept
				}
				deferred = keep(deferred)
				queue = keep(queue)
			}
		}
	}
	return evs
}

// foldCorpus is every stream above, each also as a late-attaching monitor
// on a bounded backlog would see it: headless, behind a truncation marker.
func foldCorpus(t *testing.T) []foldStream {
	t.Helper()
	corpus := append(scriptedStreams(), testdataStreams(t)...)
	corpus = append(corpus, liveStream(t))
	for seed := uint64(1); seed <= 8; seed++ {
		corpus = append(corpus, foldStream{
			name: fmt.Sprintf("shaped/seed%d", seed), evs: shapedStream(seed, 1500, seed%2 == 0),
		})
	}
	for _, st := range corpus {
		if cut := len(st.evs) / 3; cut > 0 {
			marker := events.Event{Seq: st.evs[cut].Seq - 1, TimeNS: st.evs[cut-1].TimeNS, Type: events.Truncated, Err: "evicted"}
			corpus = append(corpus, foldStream{
				name: st.name + "/truncated", evs: append([]events.Event{marker}, st.evs[cut:]...),
			})
		}
	}
	return corpus
}

// TestFoldInvariantsOverCorpus runs every stream through a Fold and through
// the SchedulerMetrics that mirrors one, and checks after each event what
// must hold whatever the stream: the total is the sum of the campaigns, no
// count is negative, no worker is busy longer than it was connected
// (events.CheckFold), and every gauge and counter /metrics renders equals
// the fold's number.
func TestFoldInvariantsOverCorpus(t *testing.T) {
	for _, st := range foldCorpus(t) {
		t.Run(st.name, func(t *testing.T) {
			f := events.NewFold()
			m := flow.NewSchedulerMetrics(nil)
			completed := 0
			for i := range st.evs {
				e := st.evs[i]
				f.Observe(&e)
				m.Observe(e)
				if err := events.CheckFold(f); err != nil {
					t.Fatalf("event %d %+v: %v", i+1, e, err)
				}
				for _, x := range f.Closed {
					if !x.Lost {
						completed++
					}
				}
				// Rendering is the slow part: long streams sample it.
				if len(st.evs) > 200 && i%37 != 0 && i != len(st.evs)-1 {
					continue
				}
				var buf bytes.Buffer
				if err := m.WritePrometheus(&buf); err != nil {
					t.Fatal(err)
				}
				scrape := parseScrape(buf.String())
				want := map[string]int{
					"flow_queue_depth":        f.Total.Queued,
					"flow_tasks_running":      f.Total.Running,
					"flow_retries_total":      f.Total.Retries,
					"flow_workers_connected":  f.Connected,
					"flow_task_seconds_count": completed,
				}
				for _, name := range f.Campaigns() {
					c := f.Campaign(name)
					want[fmt.Sprintf("flow_campaign_queued{campaign=%q}", name)] = c.Queued
					want[fmt.Sprintf("flow_campaign_running{campaign=%q}", name)] = c.Running
					for event, n := range map[events.Type]int{
						events.TaskReceived: c.Received, events.TaskDone: c.Done, events.TaskFailed: c.Failed,
						events.TaskDropped: c.Dropped, events.TaskQuarantined: c.Quarantined,
					} {
						want[fmt.Sprintf("flow_tasks_total{event=%q,campaign=%q}", event, name)] = n
					}
				}
				for series, n := range want {
					if got, ok := scrape[series]; !ok || got != float64(n) {
						t.Fatalf("event %d %+v: %s = %v (present=%v), fold says %d", i+1, e, series, got, ok, n)
					}
				}
			}
		})
	}
}

// parseScrape indexes a Prometheus text scrape by series name with labels.
func parseScrape(body string) map[string]float64 {
	series := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				series[line[:i]] = v
			}
		}
	}
	return series
}
