package main

import (
	"fmt"
	"maps"
	"sort"
	"time"

	"repro/internal/events"
)

// runCtx is what every repetition of a run shares.
type runCtx struct {
	seed  uint64
	nproc int
	root  string // the checkout
	work  string // scratch directory inside the checkout, removed at exit
	bin   string // the built proteomectl
	stamp machineStamp
	smoke bool
	// verbose prints every repetition as it ends.
	verbose bool
	// repDeadline bounds one repetition: a wedged cluster fails it.
	repDeadline time.Duration
	// tr is non-nil only while the traced repetition and the layer
	// timings run.
	tr *tracer
}

// repResult is one repetition: fixed work, timed, checked.
type repResult struct {
	setupS, wallS, cpuS float64
	// tasks is the completed work the throughput counts.
	tasks             int
	attempted, failed int
	// waitsMS holds every answer the workload's waiting party waited for
	// in this repetition (one for an operator waiting on a report).
	waitsMS []float64
	// report must be identical across a run's repetitions.
	report string
	// layer carries group A always and group B on the traced repetition.
	layer values
	errs  []string

	// Captured by the traced repetition for the layer timings.
	events   []events.Event
	logBytes []byte
	recs     []handlerRec
}

// endToEnd is the repetition's own reading of every end-to-end metric.
func (r *repResult) endToEnd() values {
	return values{
		"setup_s": r.setupS, "wall_s": r.wallS, "cpu_s": r.cpuS,
		"tasks_per_s": float64(r.tasks) / r.wallS,
		"wait_ms_p50": median(r.waitsMS), "wait_ms_p90": percentile(r.waitsMS, 90),
	}
}

func (r *repResult) fail(format string, a ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, a...))
}

// failAll marks the repetition lost: a timed-out or broken repetition
// counts all its tasks failed.
func (r *repResult) failAll(tasks int, format string, a ...any) *repResult {
	r.fail(format, a...)
	r.attempted, r.failed, r.tasks = max(tasks, 1), max(tasks, 1), 0
	return r
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	name() string
	// prepare runs once per invocation, outside every metric: reference
	// outputs and inputs made from the seed.
	prepare(rc *runCtx) error
	// rep runs one repetition; traced turns the instruments on.
	rep(rc *runCtx, traced bool) *repResult
	// layers times exported functions over what the traced repetition
	// captured (group C).
	layers(rc *runCtx, traced *repResult) values
}

func workloadByName(name string) workload {
	switch name {
	case wlCampaignPool:
		return &campaignPool{}
	case wlCampaignMP:
		return &campaignMP{}
	case wlPingpong:
		return &pingpong{}
	case wlTenantsFair:
		return &tenantsFair{}
	case wlRelaxCASP:
		return &relaxCASP{}
	}
	return nil
}

// runResult is one run of one workload: each metric over its two best
// repetitions.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Reps      int      `json:"reps"`
	Samples   int      `json:"wait_samples"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	EndToEnd  values   `json:"end_to_end"`
	Layer     values   `json:"per_layer,omitempty"`
	Errors    []string `json:"errors,omitempty"`
}

func (r *runResult) correct() bool { return r.Failed == 0 && len(r.Errors) == 0 }

// bestTwo is the mean of the two best values of xs (of the one, given one;
// 0 given none). A run reports this over its repetitions, not their median:
// on a shared VM a neighbour only ever slows a repetition, in bursts of
// seconds to a minute, so the best repetitions are the ones it missed and
// say what the code costs. Over 135 consecutive pingpong repetitions, cut
// into runs of 18, the median's run-to-run quartile spread was 13.7 % and
// this one's 6.0 %; on a quiet stretch the two agree (README, "How a run
// is measured").
func bestTwo(xs []float64, better string) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if better == "higher" {
		s = s[max(0, len(s)-2):]
	} else {
		s = s[:min(2, len(s))]
	}
	if len(s) == 0 {
		return 0
	}
	return (s[0] + s[len(s)-1]) / 2
}

// summarize reduces repetitions to a runResult. Every metric — percentiles
// included — is computed inside each repetition, then bestTwo picks over
// the repetitions.
func summarize(name string, seed uint64, reps []*repResult) *runResult {
	out := &runResult{Workload: name, Seed: seed, Reps: len(reps), EndToEnd: values{}}
	per := map[string][]float64{}
	for i, r := range reps {
		for _, e := range r.errs {
			out.Errors = append(out.Errors, fmt.Sprintf("rep %d: %s", i+1, e))
		}
		failed := r.failed
		if r.report != reps[0].report {
			out.Errors = append(out.Errors, fmt.Sprintf("rep %d: report differs from rep 1", i+1))
			failed = r.attempted
		}
		if len(r.errs) > 0 {
			failed = r.attempted // an unverified repetition vouches for none of its tasks
		}
		out.Attempted += r.attempted
		out.Failed += failed
		out.Samples += len(r.waitsMS)
		if r.wallS <= 0 {
			continue // lost repetition: counted failed above, no timing
		}
		for k, v := range r.endToEnd() {
			per[k] = append(per[k], v)
		}
	}
	for _, d := range endToEnd {
		out.EndToEnd[d.Name] = bestTwo(per[d.Name], d.Better)
	}
	return out
}

// runUntraced repeats the workload's fixed-size repetition until the time
// budget is spent, rounding to the nearest whole repetition.
func runUntraced(rc *runCtx, w workload, seconds float64) *runResult {
	var reps []*repResult
	start := time.Now()
	for {
		r := w.rep(rc, false)
		reps = append(reps, r)
		if rc.verbose {
			fmt.Printf("%-14s rep %d: setup_s %.6f wall_s %.4f cpu_s %.4f p50 %.5f p90 %.5f p95 %.5f p99 %.5f tasks %d failed %d\n",
				w.name(), len(reps), r.setupS, r.wallS, r.cpuS, median(r.waitsMS), percentile(r.waitsMS, 90), percentile(r.waitsMS, 95), percentile(r.waitsMS, 99), r.tasks, r.failed)
		}
		elapsed := time.Since(start).Seconds()
		// A lost repetition has failed the run; repeating it would only
		// spin on whatever broke.
		if r.wallS <= 0 || elapsed+0.5*elapsed/float64(len(reps)) >= seconds {
			break
		}
	}
	res := summarize(w.name(), rc.seed, reps)
	// Group A is free (wait4), so untraced runs carry it too.
	res.Layer = medianLayers(reps)
	return res
}

func medianLayers(reps []*repResult) values {
	by := map[string][]float64{}
	for _, r := range reps {
		for k, v := range r.layer {
			by[k] = append(by[k], v)
		}
	}
	out := values{}
	for k, xs := range by {
		out[k] = median(xs)
	}
	return out
}

// runTraced is the traced run: one untraced repetition for the overhead
// base, one repetition with the instruments on, then the layer timings.
// Its end-to-end numbers are not reported; those come from untraced runs.
func runTraced(rc *runCtx, w workload, tr *tracer) *runResult {
	base := w.rep(rc, false)
	rc.tr = tr
	tr.setRep(w.name() + "#traced")
	traced := w.rep(rc, true)
	res := summarize(w.name(), rc.seed, []*repResult{base, traced})
	res.Layer = values{}
	for _, d := range perLayer {
		res.Layer[d.Name] = 0 // every row is reported; 0 = not measured here
	}
	maps.Copy(res.Layer, traced.layer)
	if base.wallS > 0 && traced.wallS > 0 {
		res.Layer["trace_overhead_pct"] = 100 * (traced.wallS - base.wallS) / base.wallS
	}
	if len(traced.errs) == 0 {
		tr.setRep(w.name() + "#layers")
		maps.Copy(res.Layer, w.layers(rc, traced))
	}
	if sched, ok := res.Layer["flow.sched.cpu_us_per_task"]; ok && sched > 0 {
		// What the scheduler's per-task CPU is not explained by: the
		// event emits (with the traced run's sinks) are the one layer of
		// it the bench can time from outside.
		attributed := res.Layer["flow.events_per_task"] * res.Layer["events.emit_ns.metrics_log"] / 1e3
		res.Layer["flow.sched.unattributed_us_per_task"] = sched - attributed
	}
	rc.tr = nil
	return res
}
