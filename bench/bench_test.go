package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"repro/internal/events"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50.5}, {95, 95.05}, {99, 99.01}, {100, 100}, {0, 1}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want the sample", got)
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quartiles 2.75, 5.5, 8.25
	if got := quartileSpread(ten); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	four := []float64{10, 12, 11, 14} // quartiles 10.25, 11.5, 13.5
	if got := quartileSpread(four); !near(got, (13.5-10.25)/11.5) {
		t.Errorf("spread(four) = %v, want %v", got, (13.5-10.25)/11.5)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("spread of one run = %v, want 0", got)
	}
}

func TestBestTwo(t *testing.T) {
	xs := []float64{5, 1, 9, 3}
	if got := bestTwo(xs, "lower"); got != 2 {
		t.Errorf("lower-is-better best two = %v, want 2", got)
	}
	if got := bestTwo(xs, "higher"); got != 7 {
		t.Errorf("higher-is-better best two = %v, want 7", got)
	}
	if xs[0] != 5 {
		t.Error("bestTwo sorted its argument in place")
	}
	if bestTwo([]float64{4}, "lower") != 4 || bestTwo(nil, "lower") != 0 {
		t.Error("one sample is itself, none is 0")
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening("lower", 10, 11); !near(got, 0.1) {
		t.Errorf("lower-is-better 10→11 = %v, want 0.1", got)
	}
	if got := worsening("higher", 10, 9); !near(got, 0.1) {
		t.Errorf("higher-is-better 10→9 = %v, want 0.1", got)
	}
	if got := worsening("higher", 10, 12); got >= 0 {
		t.Errorf("an improvement reads as worsening %v", got)
	}
}

// ev builds one log event; seq is filled by the caller's order.
func ev(typ events.Type, ns int64, task, worker string) events.Event {
	return events.Event{Type: typ, TimeNS: ns, Task: task, Worker: worker}
}

// The feature and relax waves both name a task by its protein, so a key
// recurs in the log; and a worker death requeues a task mid-flight.
func TestJoinLegsRecurringKeysAndRequeue(t *testing.T) {
	log := []events.Event{
		ev(events.TaskReceived, 100, "P1", ""), ev(events.TaskQueued, 110, "P1", ""),
		ev(events.TaskReceived, 120, "P2", ""), ev(events.TaskQueued, 130, "P2", ""),
		ev(events.TaskAssigned, 200, "P1", "w0"), ev(events.TaskRunning, 201, "P1", "w0"),
		ev(events.TaskAssigned, 210, "P2", "w1"),
		ev(events.WorkerLeave, 300, "", "w1"),
		ev(events.TaskQueued, 310, "P2", ""), // requeue: the wait starts over
		ev(events.TaskDone, 400, "P1", "w0"),
		ev(events.TaskAssigned, 410, "P2", "w0"), ev(events.TaskDone, 500, "P2", "w0"),
		// second wave, same keys
		ev(events.TaskReceived, 600, "P1", ""), ev(events.TaskQueued, 610, "P1", ""),
		ev(events.TaskAssigned, 620, "P1", "w0"), ev(events.TaskFailed, 700, "P1", "w0"),
		// a lifecycle the log lost the head of: skipped, not misjoined
		ev(events.TaskDone, 800, "P9", "w0"),
	}
	recs := []handlerRec{
		{key: "P1", enqueueNS: 9000, handlerNS: 50, worker: "w0", bytes: 7}, // second wave, listed first
		{key: "P1", enqueueNS: 1000, handlerNS: 150, worker: "w0", bytes: 3},
		{key: "P2", enqueueNS: 1100, handlerNS: 60, worker: "w0", bytes: 5},
		{key: "P7", enqueueNS: 1, handlerNS: 1}, // no lifecycle: dropped
	}
	legs := joinLegs(log, recs)
	if len(legs) != 3 {
		t.Fatalf("joined %d lifecycles, want 3: %+v", len(legs), legs)
	}
	first, requeued, second := legs[0], legs[1], legs[2]
	if first.key != "P1" || first.queueWaitNS != 90 || first.serviceNS != 200 || first.handlerNS != 150 || first.turnaroundNS != 50 || first.bytes != 3 {
		t.Errorf("first P1 lifecycle joined wrong: %+v", first)
	}
	if requeued.key != "P2" || requeued.queueWaitNS != 100 || requeued.serviceNS != 90 || requeued.worker != "w0" || requeued.turnaroundNS != 30 {
		t.Errorf("requeued P2 keeps its last queue wait and assignment: %+v", requeued)
	}
	if second.handlerNS != 50 || second.bytes != 7 || second.serviceNS != 80 {
		t.Errorf("second P1 lifecycle must join the later record: %+v", second)
	}

	m := legMetrics(legs, 2, 1e-6)
	if got := m["flow.service_us_p50"]; !near(got, 0.09) {
		t.Errorf("service p50 = %v us, want 0.09", got)
	}
	if got := m["flow.worker_busy_frac"]; !near(got, 260e-9/(2*1e-6)) {
		t.Errorf("busy fraction = %v", got)
	}
	// w0 ran all three, w1 none: (3-0) over a mean of 1.5 per worker.
	if got := m["flow.balance_spread_pct"]; !near(got, 200) {
		t.Errorf("balance spread = %v%%, want 200", got)
	}
	if got := m["flow.result_bytes_per_task"]; !near(got, 5) {
		t.Errorf("result bytes per task = %v, want 5", got)
	}
}

func TestTallyMismatches(t *testing.T) {
	log := []events.Event{
		{Type: events.WorkerJoin, Worker: "w0"},
		{Type: events.TaskReceived, Task: "a", Campaign: "bulk"},
		{Type: events.TaskDone, Task: "a", Campaign: "bulk"},
		{Type: events.TaskDone, Task: "b"},
	}
	scrape := map[string]float64{
		`flow_worker_events_total{event="worker_join"}`:      1,
		`flow_tasks_total{event="received",campaign="bulk"}`: 1,
		`flow_tasks_total{event="done",campaign="bulk"}`:     1,
		`flow_tasks_total{event="done",campaign=""}`:         1,
	}
	if bad := tallyMismatches(scrape, log); len(bad) != 0 {
		t.Errorf("agreeing views reported: %v", bad)
	}
	scrape[`flow_tasks_total{event="done",campaign="bulk"}`] = 2
	if bad := tallyMismatches(scrape, log); len(bad) != 1 {
		t.Errorf("one disagreeing series must be one mismatch, got %v", bad)
	}
	// A gapped log (its async sink dropped under load) can only be held to
	// the totals: 4 counted = 3 logged + 1 dropped.
	gapped := append(log, events.Event{Type: events.Truncated})
	scrape["flow_async_sink_dropped_total"] = 1
	if bad := tallyMismatches(scrape, gapped); len(bad) != 0 {
		t.Errorf("gapped log with matching totals reported: %v", bad)
	}
	scrape["flow_async_sink_dropped_total"] = 0
	if bad := tallyMismatches(scrape, gapped); len(bad) != 1 {
		t.Errorf("gapped log with missing events must mismatch, got %v", bad)
	}
}

func TestSummarize(t *testing.T) {
	waits := func(lo int) []float64 {
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = float64(lo + i)
		}
		return xs
	}
	reps := []*repResult{
		{setupS: 1, wallS: 2, cpuS: 3, tasks: 100, attempted: 100, waitsMS: waits(1), report: "r"},
		{setupS: 3, wallS: 4, cpuS: 5, tasks: 100, attempted: 100, waitsMS: waits(101), report: "r"},
		{setupS: 2, wallS: 5, cpuS: 4, tasks: 100, attempted: 100, failed: 2, waitsMS: waits(201), report: "r"},
	}
	res := summarize("w", 1, reps)
	want := values{"setup_s": 1.5, "wall_s": 3, "tasks_per_s": 37.5, "cpu_s": 3.5, "wait_ms_p50": 100.5, "wait_ms_p90": 140.1}
	for k, v := range want {
		if !near(res.EndToEnd[k], v) {
			t.Errorf("%s = %v, want %v (percentiles per repetition, then the two best repetitions)", k, res.EndToEnd[k], v)
		}
	}
	if res.Attempted != 300 || res.Failed != 2 || res.correct() {
		t.Errorf("attempted/failed = %d/%d, correct=%v", res.Attempted, res.Failed, res.correct())
	}

	// A lost repetition counts all its tasks failed and gives no timing.
	lost := (&repResult{}).failAll(100, "deadline")
	res = summarize("w", 1, []*repResult{reps[0], lost})
	if res.Failed != 100 || res.EndToEnd["wall_s"] != 2 || len(res.Errors) == 0 {
		t.Errorf("lost repetition: failed=%d wall=%v errors=%v", res.Failed, res.EndToEnd["wall_s"], res.Errors)
	}
	// A report that differs between repetitions fails that repetition.
	odd := *reps[1]
	odd.report = "other"
	res = summarize("w", 1, []*repResult{reps[0], &odd})
	if res.Failed != 100 || res.correct() {
		t.Errorf("differing report: failed=%d correct=%v", res.Failed, res.correct())
	}
}

func setOf(stamp machineStamp, wall ...float64) *resultSet {
	s := &resultSet{Stamp: stamp}
	for _, w := range wall {
		s.Runs = append(s.Runs, &runResult{Workload: wlPingpong, EndToEnd: values{"wall_s": w, "tasks_per_s": 1 / w, "setup_s": 1}})
	}
	return s
}

func TestCompareSets(t *testing.T) {
	here := machineStamp{NProc: 2, CPU: "x", Go: "go1", Commit: "a"}
	var out bytes.Buffer
	// 25 % is wall_s's bound: +20 % passes, +30 % does not — and the
	// matching 23 % drop of tasks_per_s is held to its own row.
	if err := compareSets(&out, setOf(here, 1.00), setOf(here, 1.20)); err != nil {
		t.Errorf("+20%% wall must pass: %v\n%s", err, out.String())
	}
	if err := compareSets(&out, setOf(here, 1.00), setOf(here, 1.30)); err == nil {
		t.Error("+30% wall must fail")
	}
	for _, c := range compareMedians(setOf(here, 1.00), setOf(here, 1.30)) {
		wantOK := c.metric == "tasks_per_s" || c.metric == "setup_s"
		if c.ok != wantOK {
			t.Errorf("%s: ok=%v, want %v (%+v)", c.metric, c.ok, wantOK, c)
		}
	}
	// A later commit on the same machine compares; another machine does not.
	later := here
	later.Commit = "b"
	if err := compareSets(&out, setOf(here, 1), setOf(later, 1)); err != nil {
		t.Errorf("same machine, other commit must compare: %v", err)
	}
	other := here
	other.NProc = 64
	if err := compareSets(&out, setOf(here, 1), setOf(other, 1)); err == nil || !strings.Contains(err.Error(), "different machines") {
		t.Errorf("different machines must be refused, got %v", err)
	}
	// With enough runs the base set's own spread is held to the bound too.
	noisy := setOf(here, 1.0, 1.3, 0.7, 1.4, 0.6, 1.0)
	if err := compareSets(&out, noisy, setOf(here, 1.0)); err == nil {
		t.Error("a base set noisier than the bound must fail")
	}
}

// The driver refuses a BENCHMARK.json outside its schema before a single
// run, and later issues cite these names: hold the file to the tables.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	_ = json.Unmarshal(data, &keys)
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(keys))
	}
	if strings.Join(doc.Command, " ") != "go run -C bench repro/bench" || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("command %v / paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	// 4 + 22 runs per workload, each the budget plus bring-up, teardown
	// and half a repetition of rounding, must fit the driver's 3420 s.
	if total := (4 + 22*len(doc.Workloads)) * (doc.RunSeconds + 8); total > 3420 {
		t.Errorf("%d runs of ~%d s need %d s, over the 3420 s cap", 4+22*len(doc.Workloads), doc.RunSeconds+8, total)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q outside the allowed charset or length", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(allWorkloads))
	}
	for i, w := range doc.Workloads {
		checkName(w.Name)
		if w.Name != allWorkloads[i] || workloadByName(w.Name) == nil {
			t.Errorf("workload %d is %q, want %q", i, w.Name, allWorkloads[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}

	check := func(kind string, got []metric, want []metricDef, limit int, bounded bool) {
		t.Helper()
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s lists %d metrics, the bench reports %d (limit %d)", kind, len(got), len(want), limit)
		}
		for i, m := range got {
			d := want[i]
			checkName(m.Name)
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s[%d] = %+v, the bench has %s [%s] %s", kind, i, m, d.Name, d.Unit, d.Better)
			}
			if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s %s: unit %q / better %q", kind, m.Name, m.Unit, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s %s: bound missing or not the bench's %v (0 < bound <= 0.25)", kind, m.Name, d.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %s: per-layer metrics have no bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, 16, true)
	check("per_layer", doc.PerLayer, perLayer, 128, false)
	if !seen["setup_s"] {
		t.Error("end_to_end must include setup_s")
	}
	for _, d := range endToEnd {
		if d.Name == "setup_s" && (d.Unit != "s" || d.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better: %+v", d)
		}
	}

	// Every per-layer metric says which end-to-end metric it should move,
	// on which workload, and which traced runs measure it.
	e2e, wls := map[string]bool{}, map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.Name] = true
	}
	for _, w := range allWorkloads {
		wls[w] = true
	}
	for _, d := range perLayer {
		if len(d.Moves) == 0 || len(d.On) == 0 {
			t.Errorf("%s: needs a predicted end-to-end effect and a workload that measures it", d.Name)
		}
		for _, mv := range d.Moves {
			m, w, ok := strings.Cut(mv, "@")
			if !ok || !e2e[m] || !wls[w] {
				t.Errorf("%s moves %q: not an end-to-end metric @ workload", d.Name, mv)
			}
		}
		for _, w := range d.On {
			if !wls[w] {
				t.Errorf("%s measured on unknown workload %q", d.Name, w)
			}
		}
	}
}

func TestDriverLine(t *testing.T) {
	res := &runResult{Attempted: 10, EndToEnd: values{"wall_s": 1.5}, Layer: values{"obs.scrape_ms": 0.7}}
	for _, traced := range []bool{false, true} {
		var doc struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		line := driverLine(res, traced)
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&doc); err != nil || bytes.ContainsRune(line, '\n') {
			t.Fatalf("driver line %q: %v", line, err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if doc.Correct == nil || !*doc.Correct || *doc.Attempted != 10 || *doc.Failed != 0 || len(doc.Metrics) != len(defs) {
			t.Errorf("traced=%v: %s", traced, line)
		}
		for _, d := range defs {
			if m, ok := doc.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value == nil {
				t.Errorf("traced=%v: metric %s missing or without unit/value", traced, d.Name)
			}
		}
	}
}

// TestSmoke runs the real thing at toy sizes: processes, sockets, checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds proteomectl and spawns processes")
	}
	out, err := exec.Command("go", "run", ".", "-smoke").CombinedOutput()
	if err != nil {
		t.Fatalf("go run . -smoke: %v\n%s", err, out)
	}
	for _, w := range flowWorkloads {
		if !regexp.MustCompile(w + `\s+fail_ratio\s+0 ratio`).Match(out) {
			t.Errorf("%s did not report fail_ratio 0:\n%s", w, out)
		}
	}
}
