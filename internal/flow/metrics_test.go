package flow

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/events"
)

// scrape renders one /metrics-shaped snapshot of the scheduler's registry.
func scrape(t *testing.T, m *SchedulerMetrics) string {
	t.Helper()
	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

// metricValue extracts the value of an exact series line ("name{labels}")
// from a scrape, failing when the series is absent.
func metricValue(t *testing.T, scrape, series string) string {
	t.Helper()
	for _, line := range strings.Split(scrape, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			return rest
		}
	}
	t.Fatalf("series %q not in scrape:\n%s", series, scrape)
	return ""
}

func TestSchedulerMetricsLiveCluster(t *testing.T) {
	s := NewScheduler()
	s.Metrics = NewSchedulerMetrics(nil)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	var workers []*Worker
	for i := 0; i < 2; i++ {
		w := NewWorker(fmt.Sprintf("w%d", i), echoHandler)
		w.HeartbeatInterval = 20 * time.Millisecond
		if err := w.Connect(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		workers = append(workers, w)
	}

	// Connect returns once the registration is sent; the counts below are
	// of registrations the scheduler has processed.
	waitUntil(t, 10*time.Second, func() bool { return countEvents(s, events.WorkerJoin) == 2 }, "both workers to join")

	c, err := connectClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.Campaign = "dvu-pilot"

	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = Task{ID: fmt.Sprintf("t%d", i), Label: fmt.Sprintf("t%d", i)}
	}
	if _, err := c.Map(tasks, nil); err != nil {
		t.Fatal(err)
	}

	out := scrape(t, s.Metrics)
	for series, want := range map[string]string{
		`flow_tasks_total{event="received",campaign="dvu-pilot"}`: "8",
		`flow_tasks_total{event="done",campaign="dvu-pilot"}`:     "8",
		`flow_tasks_total{event="failed",campaign="dvu-pilot"}`:   "0",
		`flow_worker_events_total{event="worker_join"}`:           "2",
		"flow_workers_connected":                                  "2",
		"flow_queue_depth":                                        "0",
		"flow_tasks_running":                                      "0",
		`flow_campaign_queued{campaign="dvu-pilot"}`:              "0",
		`flow_campaign_running{campaign="dvu-pilot"}`:             "0",
		"flow_task_seconds_count":                                 "8",
		// One observation per handout, of its size: however the scheduler
		// cut the eight tasks into handouts, the sizes add up to eight.
		"flow_handout_tasks_sum":      "8",
		"flow_outbox_overflows_total": "0",
	} {
		if got := metricValue(t, out, series); got != want {
			t.Errorf("%s = %s, want %s", series, got, want)
		}
	}

	// Heartbeats carry worker runtime gauges; wait for one beat per worker.
	deadline := time.Now().Add(5 * time.Second)
	for {
		out = scrape(t, s.Metrics)
		if strings.Contains(out, `flow_worker_goroutines{worker="w0"}`) &&
			strings.Contains(out, `flow_worker_goroutines{worker="w1"}`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker gauges never appeared:\n%s", out)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Each worker ran tasks, so its cumulative busy time and task count
	// must be visible once a post-completion heartbeat lands.
	for {
		out = scrape(t, s.Metrics)
		total := 0
		for _, id := range []string{"w0", "w1"} {
			if !strings.Contains(out, `flow_worker_tasks_executed{worker="`+id+`"}`) {
				total = -1
				break
			}
			var n int
			fmt.Sscanf(metricValue(t, out, `flow_worker_tasks_executed{worker="`+id+`"}`), "%d", &n)
			total += n
		}
		if total == 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker task gauges never reached 8 (have %d):\n%s", total, out)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A departing worker's gauge series disappear rather than freeze.
	workers[0].Close()
	waitForEvent(t, s, events.WorkerLeave, 5*time.Second)
	for {
		out = scrape(t, s.Metrics)
		if !strings.Contains(out, `flow_worker_goroutines{worker="w0"}`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("departed worker's gauges still scraped:\n%s", out)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := metricValue(t, out, "flow_workers_connected"); got != "1" {
		t.Errorf("flow_workers_connected = %s after leave, want 1", got)
	}
}

// TestMetricsObserveLifecycleRules feeds the adapter a synthetic stream and
// checks the fold's counting rules as /metrics shows them, on what a live
// cluster cannot deterministically produce: requeues, drops, quarantines, truncation.
func TestMetricsObserveLifecycleRules(t *testing.T) {
	m := NewSchedulerMetrics(nil)
	obs := func(typ events.Type, task string, attempt int) {
		m.Observe(events.Event{Type: typ, Task: task, Campaign: "c", Attempt: attempt, Worker: "w1"})
	}
	obs(events.TaskReceived, "a", 0)
	obs(events.TaskQueued, "a", 0)
	obs(events.TaskAssigned, "a", 0)
	obs(events.TaskRunning, "a", 0)
	// Worker dies: requeue with attempt 1, reassign, then quarantine.
	obs(events.TaskQueued, "a", 1)
	obs(events.TaskAssigned, "a", 0)
	obs(events.TaskFailed, "a", 2)
	obs(events.TaskQuarantined, "a", 2)
	// A second task is received, queued, then dropped before assignment.
	obs(events.TaskReceived, "b", 0)
	obs(events.TaskQueued, "b", 0)
	obs(events.TaskDropped, "b", 0)
	m.Observe(events.Event{Type: events.Truncated, Err: "3 events evicted"})

	out := scrape(t, m)
	for series, want := range map[string]string{
		`flow_tasks_total{event="received",campaign="c"}`:    "2",
		`flow_tasks_total{event="queued",campaign="c"}`:      "3",
		`flow_tasks_total{event="assigned",campaign="c"}`:    "2",
		`flow_tasks_total{event="failed",campaign="c"}`:      "1",
		`flow_tasks_total{event="dropped",campaign="c"}`:     "1",
		`flow_tasks_total{event="quarantined",campaign="c"}`: "1",
		"flow_retries_total":                                 "1",
		"flow_truncated_events_total":                        "1",
		"flow_queue_depth":                                   "0",
		"flow_tasks_running":                                 "0",
		`flow_campaign_queued{campaign="c"}`:                 "0",
		`flow_campaign_running{campaign="c"}`:                "0",
		"flow_task_seconds_count":                            "1",
	} {
		if got := metricValue(t, out, series); got != want {
			t.Errorf("%s = %s, want %s", series, got, want)
		}
	}
}

// TestMetricsObserveDoesNotAllocate: Observe runs under the hub lock on the
// dispatch path, so once a stream's campaigns and workers have been seen it
// must not allocate — fold included.
func TestMetricsObserveDoesNotAllocate(t *testing.T) {
	m := NewSchedulerMetrics(nil)
	m.Observe(events.Event{Type: events.WorkerJoin, Worker: "w1"})
	var ns int64
	wave := func() {
		for _, campaign := range []string{"dvu", "eco"} {
			for _, step := range []struct {
				typ     events.Type
				attempt int
			}{
				{events.TaskReceived, 0}, {events.TaskQueued, 0}, {events.TaskAssigned, 0}, {events.TaskRunning, 0},
				{events.TaskQueued, 1}, {events.TaskAssigned, 0}, {events.TaskRunning, 0}, {events.TaskDone, 0},
			} {
				ns += 1000
				m.Observe(events.Event{TimeNS: ns, Type: step.typ, Task: "t", Campaign: campaign, Worker: "w1", Attempt: step.attempt})
			}
		}
	}
	wave() // warm: series, map buckets, the fold's Closed slice
	if allocs := testing.AllocsPerRun(100, wave); allocs != 0 {
		t.Fatalf("Observe allocates %.1f times per 16-event wave at steady state, want 0", allocs)
	}
	if got := metricValue(t, scrape(t, m), "flow_task_seconds_count"); got != "204" {
		t.Fatalf("flow_task_seconds_count = %s, want 204 (102 waves, two tasks each)", got)
	}
}

func TestSchedulerHealthz(t *testing.T) {
	s := NewScheduler()
	if s.Healthy() {
		t.Fatal("unstarted scheduler reports healthy")
	}
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if !s.Healthy() {
		t.Fatal("started scheduler reports unhealthy")
	}
	s.Close()
	if s.Healthy() {
		t.Fatal("closed scheduler reports healthy")
	}
}

// TestOutboxOverflowCounter: a peer that never drains overflows its outbox,
// which stops its writer; the overflow — which never reaches the event
// stream — must land on the counter, once.
func TestOutboxOverflowCounter(t *testing.T) {
	s := NewScheduler()
	s.Metrics = NewSchedulerMetrics(nil)
	s.OutboxDepth = 1
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// A net.Pipe peer never reads: the writer goroutine blocks in its
	// first write, the queue (depth 1) fills, and the next enqueue
	// overflows.
	us, them := net.Pipe()
	t.Cleanup(func() { us.Close(); them.Close() })
	ob := s.newOutbox(them, newJSONCodec(bufio.NewReader(them), bufio.NewWriter(them)))
	defer ob.shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for stopped := false; !stopped; {
		ob.enqueue(&message{Type: msgEvent})
		select {
		case <-ob.stop:
			stopped = true
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("outbox never overflowed")
		}
		time.Sleep(time.Millisecond)
	}
	ob.enqueue(&message{Type: msgEvent}) // after the overflow: dropped, not counted
	if n := s.Metrics.outboxOverflows.Value(); n != 1 {
		t.Fatalf("flow_outbox_overflows_total = %d, want 1", n)
	}
}
