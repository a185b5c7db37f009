package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
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

// foldStream is one corpus entry. shaped marks streams with the
// scheduler's own invariants (every requeue carries an attempt, a leave
// precedes its requeues, labels are unique in flight); the hand-written
// ones break them on purpose.
type foldStream struct {
	name   string
	evs    []events.Event
	shaped bool
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
		), shaped: true},
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
		), shaped: true},
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
		), shaped: true},
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
		), shaped: true},
		{name: "top/two-tasks", evs: topEvents(), shaped: true},
		{name: "top/worker-loss", evs: stamp(
			E{TimeNS: 0, Type: events.WorkerJoin, Worker: "w1"},
			E{TimeNS: 0, Type: events.TaskReceived, Task: "a"},
			E{TimeNS: 0, Type: events.TaskQueued, Task: "a"},
			E{TimeNS: 1e9, Type: events.TaskAssigned, Task: "a", Worker: "w1"},
			E{TimeNS: 2e9, Type: events.WorkerLost, Worker: "w1", Err: "silent"},
			E{TimeNS: 2e9, Type: events.TaskQueued, Task: "a", Attempt: 1},
		), shaped: true},
		{name: "top/batch-acked-at-one-stamp", evs: batchAckEvents(), shaped: true},
		{name: "monitor/campaign", evs: campaignEvents(), shaped: true},
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
	paths, err := filepath.Glob("../../internal/events/testdata/fuzz/FuzzReadLog/*")
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
// two campaigns sharing three workers, one of which is killed while it
// holds a batch.
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
			tasks[i] = flow.Task{ID: fmt.Sprintf("%s-%03d", campaign, i), Payload: json.RawMessage(`1`)}
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
	return foldStream{name: "live/fair-quota-batch", evs: evs, shaped: true}
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

func foldCorpus(t *testing.T) []foldStream {
	t.Helper()
	corpus := append(scriptedStreams(), testdataStreams(t)...)
	corpus = append(corpus, liveStream(t))
	for seed := uint64(1); seed <= 8; seed++ {
		corpus = append(corpus, foldStream{
			name: fmt.Sprintf("shaped/seed%d", seed), evs: shapedStream(seed, 1500, seed%2 == 0), shaped: true,
		})
	}
	return corpus
}

// gauge reads one series from a Prometheus text scrape (0 when absent).
func gauge(t *testing.T, scrape, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(scrape, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return v
		}
	}
	return 0
}

// checkFold asserts what must hold of a fold after any event of any
// stream: the total is the sum of the campaigns, no count is negative,
// and no worker is busy longer than it was connected.
func checkFold(t *testing.T, f *events.Fold) {
	t.Helper()
	var sum events.Tally
	for _, name := range f.Campaigns() {
		c := f.Campaign(name)
		for _, n := range []int{c.Received, c.Done, c.Failed, c.Dropped, c.Quarantined, c.Queued, c.Running, c.Retries} {
			if n < 0 {
				t.Fatalf("campaign %q has a negative count: %+v", name, c)
			}
		}
		sum.Received += c.Received
		sum.Done += c.Done
		sum.Failed += c.Failed
		sum.Dropped += c.Dropped
		sum.Quarantined += c.Quarantined
		sum.Queued += c.Queued
		sum.Running += c.Running
		sum.Retries += c.Retries
	}
	if sum != f.Total {
		t.Fatalf("total %+v is not the sum of the campaigns %+v", f.Total, sum)
	}
	connected := 0
	for _, name := range f.Workers() {
		w := f.Worker(name)
		busy, span := w.BusyNS(f.NowNS), w.ConnectedNS(f.NowNS)
		if busy < 0 || busy > span {
			t.Fatalf("worker %s busy %d ns of %d ns connected", name, busy, span)
		}
		if w.Connected {
			connected++
		}
	}
	if connected != f.Connected || f.FirstNS > f.NowNS {
		t.Fatalf("connected=%d (table says %d), first=%d now=%d", f.Connected, connected, f.FirstNS, f.NowNS)
	}
}

// TestFoldMatchesOldFolds feeds the whole corpus through events.Fold and
// through the five interpreters it replaces, and requires equal global
// tallies, per-campaign tallies, intervals and depth series. The intended
// differences are asserted as such:
//
//  1. top started an interval at assigned; the fold refines the start at
//     running, as ReplayEvents always did. top's per-worker sum must equal
//     the fold's executions measured from AssignedNS.
//  2. Replay and top summed a worker's intervals; the fold takes their
//     union, so a batch held over one second is one busy second. The
//     union can only be smaller, and never exceeds the connected span.
//  3. SchedulerMetrics observed flow_task_seconds for the terminal failed
//     of a quarantine, measuring from the assignment to a worker that had
//     died since; the fold closed that execution as Lost at the leave.
//
// And three places where the old folds disagreed with each other, which
// the fold settles. Tracker retired an in-flight task on any queued
// event, CampaignView and SchedulerMetrics only on one carrying an attempt
// (the fold's rule — scheduler.go always stamps it), so Tracker.Busy is
// only compared on scheduler-shaped streams. Tracker, ReplayEvents and
// SchedulerMetrics knew only workers whose join they saw, top also those
// first seen on an assignment (the fold's rule, and it counts them as
// connected), so worker counts are only compared on scheduler-shaped
// streams, where every worker joins. And a drop of a task that was never
// queued (a quota-deferred task whose client left) took one off Tracker's
// and SchedulerMetrics' global depth whenever any campaign had a task
// queued, but off CampaignView's only when its own campaign had one (the
// fold's rule, which keeps the total equal to the sum of the campaigns),
// so the global depth is not compared after such a drop.
func TestFoldMatchesOldFolds(t *testing.T) {
	for _, st := range foldCorpus(t) {
		t.Run(st.name, func(t *testing.T) {
			f := events.NewFold()
			tr := events.NewTracker()
			cv := events.NewCampaignView()
			top := newTopState()
			m := flow.NewSchedulerMetrics(nil)

			var intervals []events.Interval
			var depth []events.DepthPoint
			fromAssigned := map[string]int64{} // worker -> Σ EndNS-AssignedNS
			completed, phantom := 0, 0
			lost := map[string]bool{} // tasks whose execution was closed Lost
			lastDepth := 0
			queued := map[string]int{} // campaign -> its tasks in the queue
			strayDrop := false

			for i := range st.evs {
				e := st.evs[i]
				f.Observe(&e)
				tr.Observe(e)
				cv.Observe(e)
				top.observe(e)
				m.Observe(e)
				checkFold(t, f)

				for _, x := range f.Closed {
					intervals = append(intervals, x.Interval)
					fromAssigned[x.Worker] += x.EndNS - x.AssignedNS
					if x.Lost {
						lost[x.Task] = true
					} else {
						completed++
					}
				}
				switch {
				case e.Type == events.TaskFailed && lost[e.Task] && len(f.Closed) == 0:
					phantom++ // difference 3
					delete(lost, e.Task)
				case e.Type == events.TaskQueued || e.Type == events.TaskAssigned:
					delete(lost, e.Task)
				}
				if q := f.Total.Queued; q != lastDepth {
					lastDepth = q
					if n := len(depth); n > 0 && depth[n-1].TimeNS == f.NowNS {
						depth[n-1].Depth = q
					} else {
						depth = append(depth, events.DepthPoint{TimeNS: f.NowNS, Depth: q})
					}
				}

				switch e.Type {
				case events.TaskQueued:
					queued[e.Campaign]++
				case events.TaskAssigned:
					queued[e.Campaign]--
				case events.TaskDropped:
					if queued[e.Campaign]--; queued[e.Campaign] < 0 {
						queued[e.Campaign], strayDrop = 0, true
					}
				}

				// Tracker.
				got := f.Total
				want := events.Tally{
					Received: tr.Received, Done: tr.Done, Failed: tr.Failed, Dropped: tr.Dropped,
					Quarantined: tr.Quarantined, Queued: tr.QueueDepth,
					Running: got.Running, Retries: got.Retries,
				}
				if strayDrop {
					want.Queued = got.Queued
				}
				if st.shaped {
					want.Running = tr.Busy()
				}
				if got != want || (st.shaped && f.Connected != len(tr.Workers)) || f.NowNS != tr.LastNS {
					t.Fatalf("event %d %+v:\nfold    %+v connected=%d now=%d\ntracker %+v connected=%d now=%d",
						i+1, e, got, f.Connected, f.NowNS, want, len(tr.Workers), tr.LastNS)
				}
				// CampaignView.
				if !reflect.DeepEqual(f.Campaigns(), cv.Campaigns()) {
					t.Fatalf("event %d: campaigns %v, old view %v", i+1, f.Campaigns(), cv.Campaigns())
				}
				for _, name := range cv.Campaigns() {
					c, old := f.Campaign(name), cv.Tally(name)
					c.Retries = 0
					if c != (events.Tally{Received: old.Received, Done: old.Done, Failed: old.Failed, Dropped: old.Dropped,
						Quarantined: old.Quarantined, Queued: old.Queued, Running: old.Running}) {
						t.Fatalf("event %d %+v: campaign %q fold %+v, old view %+v", i+1, e, name, c, old)
					}
				}
			}

			// SchedulerMetrics: every gauge and counter the old fold kept.
			var buf bytes.Buffer
			if err := m.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			scrape := buf.String()
			for series, want := range map[string]int{
				"flow_queue_depth":        f.Total.Queued,
				"flow_tasks_running":      f.Total.Running,
				"flow_retries_total":      f.Total.Retries,
				"flow_workers_connected":  f.Connected,
				"flow_task_seconds_count": completed + phantom,
			} {
				if series == "flow_queue_depth" && strayDrop || series == "flow_workers_connected" && !st.shaped {
					continue
				}
				if got := gauge(t, scrape, series); got != float64(want) {
					t.Errorf("%s = %v, fold says %d", series, got, want)
				}
			}
			for _, name := range f.Campaigns() {
				c := f.Campaign(name)
				for series, want := range map[string]int{
					fmt.Sprintf("flow_campaign_queued{campaign=%q}", name):                   c.Queued,
					fmt.Sprintf("flow_campaign_running{campaign=%q}", name):                  c.Running,
					fmt.Sprintf("flow_tasks_total{event=\"received\",campaign=%q}", name):    c.Received,
					fmt.Sprintf("flow_tasks_total{event=\"done\",campaign=%q}", name):        c.Done,
					fmt.Sprintf("flow_tasks_total{event=\"failed\",campaign=%q}", name):      c.Failed,
					fmt.Sprintf("flow_tasks_total{event=\"dropped\",campaign=%q}", name):     c.Dropped,
					fmt.Sprintf("flow_tasks_total{event=\"quarantined\",campaign=%q}", name): c.Quarantined,
				} {
					if got := gauge(t, scrape, series); got != float64(want) {
						t.Errorf("%s = %v, fold says %d", series, got, want)
					}
				}
			}

			// ReplayEvents. Seeds from the fuzz corpus may carry sequence
			// gaps the replay rejects; the fold has no opinion on Seq.
			rep, err := events.ReplayEvents(st.evs)
			if err != nil {
				return
			}
			sort.SliceStable(intervals, func(i, j int) bool {
				a, b := &intervals[i], &intervals[j]
				if a.Worker != b.Worker {
					return a.Worker < b.Worker
				}
				if a.StartNS != b.StartNS {
					return a.StartNS < b.StartNS
				}
				return a.Task < b.Task
			})
			if !reflect.DeepEqual(intervals, rep.Intervals) {
				t.Errorf("intervals differ:\nfold   %+v\nreplay %+v", intervals, rep.Intervals)
			}
			if !strayDrop && !reflect.DeepEqual(depth, rep.Depth) {
				t.Errorf("depth series differ:\nfold   %+v\nreplay %+v", depth, rep.Depth)
			}
			if f.NowNS != rep.SpanNS {
				t.Errorf("span: fold %d, replay %d", f.NowNS, rep.SpanNS)
			}
			oldSum := rep.WorkerBusyNS()
			holding := map[string]bool{} // the old sums leave open intervals out
			for _, iv := range top.open {
				holding[iv.worker] = true
			}
			for _, name := range f.Workers() {
				w := f.Worker(name)
				if union := w.BusyNS(f.NowNS); st.shaped && !holding[name] && union > oldSum[name] {
					t.Errorf("worker %s: union %d exceeds the old sum %d", name, union, oldSum[name]) // difference 2
				}
				// top's bookkeeping, measured the way top measured it.
				old := top.workers[name]
				if old == nil {
					t.Errorf("worker %s unknown to top", name)
					continue
				}
				if st.shaped && (old.tasks != w.Tasks || old.joinNS != w.JoinNS || old.leftNS != w.LeftNS) {
					t.Errorf("worker %s: top %+v, fold %+v", name, *old, w)
				}
				if st.shaped && old.busyNS != fromAssigned[name] { // difference 1
					t.Errorf("worker %s: top summed %d ns, fold's executions from assigned sum to %d", name, old.busyNS, fromAssigned[name])
				}
			}
			if len(top.workers) != len(f.Workers()) {
				t.Errorf("top knows %d workers, fold %d", len(top.workers), len(f.Workers()))
			}
		})
	}
}
