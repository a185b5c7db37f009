package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/events"
)

// span is one interval at a layer boundary. Spans of one repetition share
// Rep; Parent is the ID of the span that caused this one (0 = none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Rep     string `json:"rep"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until the benchmark ends.
// A nil tracer records nothing, which is how untraced runs stay untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	rep   string
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setRep names the repetition the following spans belong to.
func (t *tracer) setRep(rep string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rep = rep
	t.mu.Unlock()
}

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Rep: t.rep, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// begin opens a span; the returned func closes it and yields its ID, so
// children recorded meanwhile can name begin's ID as their parent.
func (t *tracer) begin(name string, parent int) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Rep: t.rep, Name: name, StartNS: start.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return id, func() {
		now := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].EndNS = now
		t.mu.Unlock()
	}
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string, stamp machineStamp) error {
	t.mu.Lock()
	doc := struct {
		Stamp machineStamp `json:"stamp"`
		Spans []span       `json:"spans"`
	}{stamp, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// handlerRec is the worker-clock half of one task's life: what a stats CSV
// row or a Client.Map Result record says about it.
type handlerRec struct {
	key       string // the identity the event log names the task by
	enqueueNS int64  // orders repeated keys (stage waves reuse labels)
	handlerNS int64
	worker    string
	bytes     int
}

// taskLegs is one task's latency split, scheduler clock joined to worker
// clock. Every duration is measured on one clock, so skew cannot enter.
type taskLegs struct {
	key                  string
	receivedNS, queuedNS int64 // scheduler clock stamps
	assignedNS, doneNS   int64
	queueWaitNS          int64 // queued → assigned
	serviceNS            int64 // assigned → done
	handlerNS            int64 // worker clock; -1 when no record joined
	turnaroundNS         int64 // service − handler: wire + framing + ack
	worker               string
	bytes                int
}

// joinLegs pairs each completed task lifecycle in the event log with its
// handler record. A key may recur (the feature and relax waves both name a
// task by its protein): the k-th lifecycle of a key joins the key's k-th
// record in enqueue order. Lifecycles torn by a requeue keep their last
// assignment; records without a lifecycle are dropped.
func joinLegs(evs []events.Event, recs []handlerRec) []taskLegs {
	byKey := make(map[string][]handlerRec, len(recs))
	for _, r := range recs {
		byKey[r.key] = append(byKey[r.key], r)
	}
	for _, rs := range byKey {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].enqueueNS < rs[j].enqueueNS })
	}
	open := make(map[string]*taskLegs)
	seen := make(map[string]int)
	var out []taskLegs
	for i := range evs {
		e := &evs[i]
		switch e.Type {
		case events.TaskReceived:
			open[e.Task] = &taskLegs{key: e.Task, receivedNS: e.TimeNS, handlerNS: -1}
		case events.TaskQueued:
			if l := open[e.Task]; l != nil {
				l.queuedNS = e.TimeNS
			}
		case events.TaskAssigned:
			if l := open[e.Task]; l != nil {
				l.assignedNS, l.worker = e.TimeNS, e.Worker
			}
		case events.TaskDone, events.TaskFailed:
			l := open[e.Task]
			if l == nil || l.assignedNS == 0 {
				continue
			}
			delete(open, e.Task)
			l.doneNS = e.TimeNS
			l.queueWaitNS = l.assignedNS - l.queuedNS
			l.serviceNS = l.doneNS - l.assignedNS
			k := seen[e.Task]
			seen[e.Task] = k + 1
			if rs := byKey[e.Task]; k < len(rs) {
				l.handlerNS, l.bytes = rs[k].handlerNS, rs[k].bytes
				l.turnaroundNS = l.serviceNS - l.handlerNS
			}
			out = append(out, *l)
		}
	}
	return out
}

// legMetrics folds joined legs into the B-group latency rows.
func legMetrics(legs []taskLegs, workers int, wallS float64) values {
	var qw, svc, hnd, turn []float64
	perWorker := map[string]float64{}
	busyNS, bytes := 0.0, 0.0
	for i := range legs {
		l := &legs[i]
		qw = append(qw, float64(l.queueWaitNS)/1e6)
		svc = append(svc, float64(l.serviceNS)/1e3)
		perWorker[l.worker]++
		if l.handlerNS >= 0 {
			hnd = append(hnd, float64(l.handlerNS)/1e3)
			turn = append(turn, float64(l.turnaroundNS)/1e3)
			busyNS += float64(l.handlerNS)
			bytes += float64(l.bytes)
		}
	}
	v := values{
		"flow.queue_wait_ms_p50": median(qw), "flow.queue_wait_ms_p99": percentile(qw, 99),
		"flow.service_us_p50": median(svc), "flow.service_us_p99": percentile(svc, 99),
		"flow.handler_us_p50": median(hnd), "flow.handler_us_p99": percentile(hnd, 99),
		"flow.turnaround_us_p50": median(turn),
	}
	if workers > 0 && wallS > 0 {
		v["flow.worker_busy_frac"] = busyNS / 1e9 / (float64(workers) * wallS)
	}
	if n := len(legs); n > 0 && len(perWorker) > 0 {
		lo, hi := float64(n), 0.0
		for _, c := range perWorker {
			lo, hi = min(lo, c), max(hi, c)
		}
		if len(perWorker) < workers {
			lo = 0 // a worker that ran nothing
		}
		v["flow.balance_spread_pct"] = 100 * (hi - lo) / (float64(n) / float64(workers))
		v["flow.result_bytes_per_task"] = bytes / float64(n)
	}
	return v
}

// legSpans records the derived per-task legs as spans under parent, on the
// bench clock (scheduler stamps are shifted by the scheduler's start
// time). At most maxLegSpanTasks evenly sampled tasks are written, so a
// 130k-task repetition does not turn the span file into its own workload.
func legSpans(tr *tracer, parent int, legs []taskLegs, schedStart time.Time) {
	if tr == nil || len(legs) == 0 {
		return
	}
	step := (len(legs) + maxLegSpanTasks - 1) / maxLegSpanTasks
	at := func(ns int64) time.Time { return schedStart.Add(time.Duration(ns)) }
	for i := 0; i < len(legs); i += step {
		l := &legs[i]
		task := tr.add("task "+l.key, parent, at(l.receivedNS), at(l.doneNS))
		tr.add("flow.queue_wait", task, at(l.queuedNS), at(l.assignedNS))
		svc := tr.add("flow.service", task, at(l.assignedNS), at(l.doneNS))
		if l.handlerNS >= 0 {
			// The handler ran somewhere inside the service interval; it is
			// drawn centred, the turnaround being the two margins.
			pad := time.Duration(l.turnaroundNS / 2)
			tr.add("flow.handler", svc, at(l.assignedNS).Add(pad), at(l.assignedNS).Add(pad+time.Duration(l.handlerNS)))
		}
	}
}

const maxLegSpanTasks = 20000
