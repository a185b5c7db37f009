package flow

import (
	"io"
	"sync"

	"repro/internal/events"
	"repro/internal/obs"
)

// taskSecondsBuckets spans the dispatch-bound microsecond regime through
// multi-minute inference tasks.
var taskSecondsBuckets = []float64{0.0001, 0.001, 0.01, 0.1, 1, 10, 60, 300, 1800}

// handoutTasksBuckets resolves every size a fixed -batch is usually given
// and the self-sizing range up to its cap.
var handoutTasksBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// SchedulerMetrics publishes the scheduler's event stream as live
// Prometheus series: an events.Fold interprets the stream, and Observe
// mirrors what each event did into atomics a scrape can read from another
// goroutine. It is registered as a synchronous hub sink (Scheduler.Metrics),
// so Observe runs under the hub lock on the dispatch path and must stay
// allocation-free at steady state: per-campaign series are resolved once
// and cached, and every update is an atomic add. One instance serves one
// scheduler.
type SchedulerMetrics struct {
	reg *obs.Registry

	// Task lifecycle. tasks is the ground-truth counter family the e2e
	// contract checks against the persisted event log: one increment per
	// event, labeled by event type and campaign.
	tasks       *obs.CounterVec
	queueDepth  *obs.Gauge
	tasksBusy   *obs.Gauge
	campQueued  *obs.GaugeVec
	campRunning *obs.GaugeVec
	retries     *obs.Counter
	truncated   *obs.Counter
	taskSeconds *obs.Histogram
	// handoutTasks is observed by the event loop once per handout, not
	// from the event stream: what Scheduler.Batch, or the self-sizing in
	// its place, chose.
	handoutTasks *obs.Histogram

	// Fleet.
	workers      *obs.Gauge
	workerEvents *obs.CounterVec

	// Worker-side runtime gauges, carried by heartbeats.
	wGoroutines *obs.GaugeVec
	wHeapBytes  *obs.GaugeVec
	wTasks      *obs.GaugeVec
	wBusyNS     *obs.GaugeVec

	// I/O pressure.
	outboxOverflows *obs.Counter

	// fold interprets the stream and campaigns caches the per-campaign
	// series structs; Observe runs on one goroutine (the hub lock
	// serializes emitters), so neither needs a lock of its own.
	fold      *events.Fold
	campaigns map[string]*campaignSeries

	// dropFns reads AsyncSink drop totals at scrape time.
	dropMu  sync.Mutex
	dropFns []func() uint64
}

// campaignSeries is one campaign's resolved counters — a single map lookup
// plus atomic adds per event on the hot path.
type campaignSeries struct {
	events         map[events.Type]*obs.Counter
	qDepth, active *obs.Gauge
}

// NewSchedulerMetrics builds the full series set on reg (a fresh registry
// when nil). Set the result as Scheduler.Metrics before Start.
func NewSchedulerMetrics(reg *obs.Registry) *SchedulerMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &SchedulerMetrics{
		reg: reg,

		tasks: reg.CounterVec("flow_tasks_total",
			"Task lifecycle events observed by the scheduler, by event type and campaign.",
			"event", "campaign"),
		queueDepth: reg.Gauge("flow_queue_depth",
			"Tasks queued and waiting for a worker."),
		tasksBusy: reg.Gauge("flow_tasks_running",
			"Tasks assigned to a worker and not yet finished."),
		campQueued: reg.GaugeVec("flow_campaign_queued",
			"Queued tasks per campaign.", "campaign"),
		campRunning: reg.GaugeVec("flow_campaign_running",
			"In-flight tasks per campaign.", "campaign"),
		retries: reg.Counter("flow_retries_total",
			"Tasks requeued after their worker died mid-flight."),
		truncated: reg.Counter("flow_truncated_events_total",
			"Truncation markers observed on the event stream (bounded backlog evictions)."),
		taskSeconds: reg.Histogram("flow_task_seconds",
			"Assignment-to-completion duration per task, scheduler-side.",
			taskSecondsBuckets),
		handoutTasks: reg.Histogram("flow_handout_tasks",
			"Tasks per handout frame, as fixed by -batch or sized by the scheduler.",
			handoutTasksBuckets),

		workers: reg.Gauge("flow_workers_connected",
			"Workers currently registered."),
		workerEvents: reg.CounterVec("flow_worker_events_total",
			"Worker fleet transitions (worker_join, worker_leave, worker_lost).", "event"),

		wGoroutines: reg.GaugeVec("flow_worker_goroutines",
			"Goroutines on the worker process, from its last heartbeat.", "worker"),
		wHeapBytes: reg.GaugeVec("flow_worker_heap_bytes",
			"Live heap bytes on the worker process, from its last heartbeat.", "worker"),
		wTasks: reg.GaugeVec("flow_worker_tasks_executed",
			"Cumulative handler invocations on the worker, from its last heartbeat.", "worker"),
		wBusyNS: reg.GaugeVec("flow_worker_busy_ns",
			"Cumulative nanoseconds the worker spent inside task handlers, from its last heartbeat; rate over wall time is occupancy.", "worker"),

		outboxOverflows: reg.Counter("flow_outbox_overflows_total",
			"Peers declared dead because their outbound frame queue overflowed."),

		fold:      events.NewFold(),
		campaigns: make(map[string]*campaignSeries),
	}
	reg.CounterFunc("flow_async_sink_dropped_total",
		"Events dropped by bounded async sinks (the event log) under sustained overload.",
		m.asyncDropped)
	return m
}

// Registry returns the backing registry, for serving /metrics.
func (m *SchedulerMetrics) Registry() *obs.Registry { return m.reg }

// WritePrometheus renders one scrape of every series.
func (m *SchedulerMetrics) WritePrometheus(w io.Writer) error {
	return m.reg.WritePrometheus(w)
}

// AddDropSource registers a callback read at scrape time whose value joins
// flow_async_sink_dropped_total (typically an events.AsyncSink.Dropped).
func (m *SchedulerMetrics) AddDropSource(fn func() uint64) {
	m.dropMu.Lock()
	m.dropFns = append(m.dropFns, fn)
	m.dropMu.Unlock()
}

func (m *SchedulerMetrics) asyncDropped() float64 {
	m.dropMu.Lock()
	defer m.dropMu.Unlock()
	var n uint64
	for _, fn := range m.dropFns {
		n += fn()
	}
	return float64(n)
}

// campaign resolves the cached series struct for a campaign, creating it on
// first sight (the only allocating path; steady state is a map hit).
func (m *SchedulerMetrics) campaign(name string) *campaignSeries {
	if cs, ok := m.campaigns[name]; ok {
		return cs
	}
	cs := &campaignSeries{
		events: make(map[events.Type]*obs.Counter, len(events.TaskTypes)),
		qDepth: m.campQueued.With(name),
		active: m.campRunning.With(name),
	}
	for _, typ := range events.TaskTypes {
		cs.events[typ] = m.tasks.With(string(typ), name)
	}
	m.campaigns[name] = cs
	return cs
}

// Observe publishes one event: the per-type event counter, then whatever
// the fold says the event did to the queue, the running set, the retry
// count and the fleet, plus the assignment-to-completion time of each
// execution a worker's result closed.
func (m *SchedulerMetrics) Observe(e events.Event) {
	did := m.fold.Observe(&e)
	// Not only joins and leaves move this: on a stream whose head was
	// lost, a worker is first seen when it is handed a task.
	if n := int64(m.fold.Connected); n != m.workers.Value() {
		m.workers.Set(n)
	}
	switch {
	case e.Type.TaskScoped():
		cs := m.campaign(e.Campaign)
		cs.events[e.Type].Inc()
		// Locked adds are most of this function's cost; most events move
		// one of the three.
		if did.Queued != 0 {
			m.queueDepth.Add(int64(did.Queued))
			cs.qDepth.Add(int64(did.Queued))
		}
		if did.Running != 0 {
			m.tasksBusy.Add(int64(did.Running))
			cs.active.Add(int64(did.Running))
		}
		if did.Retries != 0 {
			m.retries.Add(uint64(did.Retries))
		}
		for i := range m.fold.Closed {
			x := &m.fold.Closed[i]
			m.taskSeconds.Observe(float64(x.EndNS-x.AssignedNS) / 1e9)
		}
	case e.Type == events.Truncated:
		m.truncated.Inc()
	case e.Type == events.WorkerJoin:
		m.workerEvents.With(string(e.Type)).Inc()
	case e.Type == events.WorkerLeave, e.Type == events.WorkerLost:
		m.workerEvents.With(string(e.Type)).Inc()
		m.forgetWorker(e.Worker)
	}
}

// SetWorkerGauges publishes a worker's heartbeat-carried runtime snapshot.
// Called from the scheduler's event loop; a worker that does not beat has
// no series (absent, not zero), and a beat without gauges changes nothing.
func (m *SchedulerMetrics) SetWorkerGauges(worker string, g *WorkerGauges) {
	if g == nil {
		return
	}
	m.wGoroutines.With(worker).Set(int64(g.Goroutines))
	m.wHeapBytes.With(worker).Set(int64(g.HeapBytes))
	m.wTasks.With(worker).Set(int64(g.TasksExecuted))
	m.wBusyNS.With(worker).Set(g.BusyNS)
}

// forgetWorker drops a departed worker's gauge series so the scrape stops
// advertising a stale snapshot.
func (m *SchedulerMetrics) forgetWorker(worker string) {
	m.wGoroutines.Delete(worker)
	m.wHeapBytes.Delete(worker)
	m.wTasks.Delete(worker)
	m.wBusyNS.Delete(worker)
}
