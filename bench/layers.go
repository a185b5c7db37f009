package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/proteome"
)

// Group C: exported functions timed by the bench process, on one
// goroutine, over what the traced repetition really carried.

// timeBatches calls fn `batches` times, each call doing ops operations,
// and returns the median nanoseconds per operation. Each batch is a span.
func timeBatches(tr *tracer, name string, batches, ops int, fn func()) float64 {
	per := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		s := time.Now()
		fn()
		e := time.Now()
		tr.add(name, 0, s, e)
		per = append(per, float64(e.Sub(s).Nanoseconds())/float64(ops))
	}
	return median(per)
}

// timeEach calls fn(i) for i in [0, n), timing every call, and returns the
// median nanoseconds per call. The whole pass is one span.
func timeEach(tr *tracer, name string, n int, fn func(i int)) float64 {
	per := make([]float64, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		s := time.Now()
		fn(i)
		per = append(per, float64(time.Since(s).Nanoseconds()))
	}
	tr.add(name, 0, start, time.Now())
	return median(per)
}

// eventLayers replays the captured event log through the event stream and
// each of its views — the scheduler's per-event costs, one layer at a
// time — and times the offline readers of the same log.
func eventLayers(rc *runCtx, traced *repResult) values {
	evs, n := traced.events, float64(len(traced.events))
	if n == 0 {
		return values{}
	}
	const batches = 5
	emit := func(attach func(*events.Hub)) func() {
		return func() {
			hub := events.NewHub()
			attach(hub)
			for i := range evs {
				hub.Emit(evs[i])
			}
			hub.Close()
		}
	}
	v := values{
		"events.emit_ns.bare": timeBatches(rc.tr, "events.Hub.Emit bare", batches, len(evs), emit(func(*events.Hub) {})),
		"events.emit_ns.metrics": timeBatches(rc.tr, "events.Hub.Emit +metrics", batches, len(evs), emit(func(h *events.Hub) {
			h.AddSink(flow.NewSchedulerMetrics(nil).Observe)
		})),
		// The traced scheduler's exact sink set: the synchronous metrics
		// fold plus the event log behind its async sink.
		"events.emit_ns.metrics_log": timeBatches(rc.tr, "events.Hub.Emit +metrics +log", batches, len(evs), emit(func(h *events.Hub) {
			h.AddSink(flow.NewSchedulerMetrics(nil).Observe)
			h.AddAsyncSink(events.LogSink(io.Discard), 0)
		})),
	}
	m := flow.NewSchedulerMetrics(nil)
	v["flow.metrics_fold_ns"] = timeBatches(rc.tr, "flow.SchedulerMetrics.Observe", 1, len(evs), func() {
		for i := range evs {
			m.Observe(evs[i])
		}
	})
	v["obs.render_us"] = timeBatches(rc.tr, "obs.Registry.WritePrometheus", 51, 1, func() {
		_ = m.WritePrometheus(io.Discard)
	}) / 1e3
	sink := events.LogSink(io.Discard)
	v["events.logsink_ns"] = timeBatches(rc.tr, "events.LogSink", batches, len(evs), func() {
		for i := range evs {
			sink(evs[i])
		}
	})
	v["events.readlog_ns"] = timeBatches(rc.tr, "events.ReadLog", batches, len(evs), func() {
		_, _ = events.ReadLog(bytes.NewReader(traced.logBytes))
	})
	v["events.replay_ns"] = timeBatches(rc.tr, "events.ReplayEvents", batches, len(evs), func() {
		_, _ = events.ReplayEvents(evs)
	})

	rows := make([]exec.TaskStats, len(traced.recs))
	for i, rec := range traced.recs {
		start := time.Unix(0, rec.enqueueNS)
		rows[i] = exec.TaskStats{
			TaskID: rec.key, Kernel: core.KernelRelax, WorkerID: rec.worker,
			Enqueue: start, Start: start, Finish: start.Add(time.Duration(rec.handlerNS)), PayloadBytes: rec.bytes,
		}
	}
	if len(rows) > 0 {
		v["exec.stats_csv_ns"] = timeBatches(rc.tr, "exec.WriteStatsCSV", batches, len(rows), func() {
			_ = exec.WriteStatsCSV(io.Discard, rows)
		})
	}
	return v
}

// relaxFleetLayers is group C of the two bench-driven workloads: the event
// stream's views, and the relax kernel, warm, over the workload's tasks.
func relaxFleetLayers(rc *runCtx, traced *repResult, tasks []flow.Task) values {
	v := eventLayers(rc, traced)
	experiments.RegisterCampaignKernels()
	n := min(len(tasks), 2000)
	run := func(i int) { _, _ = flow.DefaultRegistry().Run(tasks[i].Payload) }
	timeEach(nil, "", n, run) // warm
	v["experiments.kernel_relax_us"] = timeEach(rc.tr, "flow.Registry.Run "+core.KernelRelax, n, run) / 1e3
	return v
}

func (w *pingpong) layers(rc *runCtx, traced *repResult) values {
	return relaxFleetLayers(rc, traced, w.tasks)
}

func (w *tenantsFair) layers(rc *runCtx, traced *repResult) values {
	return relaxFleetLayers(rc, traced, w.bulk)
}

// captureSpecs runs the head of the D. vulgaris campaign through an
// in-process scheduler and one worker whose handler records every
// Task.Payload before serving it, so the spec timings below run on the
// payloads `submit` really ships. Serving them also warms this process's
// kernel world for the seed.
func captureSpecs(rc *runCtx, proteins int) ([]json.RawMessage, error) {
	experiments.RegisterCampaignKernels()
	s := flow.NewScheduler()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer s.Close()
	var mu sync.Mutex
	var payloads []json.RawMessage
	serve := flow.SpecHandler()
	wk := flow.NewWorker("capture", func(t flow.Task) (json.RawMessage, error) {
		mu.Lock()
		payloads = append(payloads, append(json.RawMessage(nil), t.Payload...))
		mu.Unlock()
		return serve(t)
	})
	if err := wk.Connect(addr); err != nil {
		return nil, err
	}
	defer wk.Close()
	fl, err := exec.Connect(flow.DialOptions{Addr: addr})
	if err != nil {
		return nil, err
	}
	defer fl.Close()

	// The world and configuration `proteomectl submit` resolves by default.
	env := experiments.NewEnv(rc.seed)
	head := env.Proteome(proteome.DVulgaris).FilterMaxLen(2500)
	head = head[:min(proteins, len(head))]
	cfg := core.DefaultConfig()
	cfg.AndesNodes = 96
	cfg.Executor = fl
	cfg.Remote = &core.RemoteCampaign{Seed: rc.seed, Species: proteome.DVulgaris.Code}
	if _, err := core.RunCampaign(env.Engine, env.FeatureGen(), head, env.FS, core.ReducedDatabase(), cfg); err != nil {
		return nil, err
	}
	mu.Lock()
	defer mu.Unlock()
	return payloads, nil
}

func (w *campaignMP) layers(rc *runCtx, traced *repResult) values {
	v := eventLayers(rc, traced)
	_, end := rc.tr.begin("capture spec payloads (in-process scheduler + worker)", 0)
	payloads, err := captureSpecs(rc, 400)
	end()
	if err != nil || len(payloads) == 0 {
		return v
	}

	v["flow.spec_decode_ns"] = timeEach(rc.tr, "flow.DecodeSpec", len(payloads), func(i int) {
		_, _ = flow.DecodeSpec(payloads[i])
	})

	// Encoding needs the typed argument blocks back, as the stages hold
	// them when they call NewSpecTask.
	type typed struct {
		kernel string
		arg    any
	}
	specs := make([]typed, 0, len(payloads))
	byKernel := map[string][]json.RawMessage{}
	var firstFeature *core.FeatureSpec
	for _, p := range payloads {
		js, err := flow.DecodeSpec(p)
		if err != nil {
			continue
		}
		byKernel[js.Kernel] = append(byKernel[js.Kernel], p)
		var arg any
		switch js.Kernel {
		case core.KernelFeature:
			a := new(core.FeatureSpec)
			arg = a
			if firstFeature == nil {
				firstFeature = a
			}
		case core.KernelInfer:
			arg = new(core.InferSpec)
		case core.KernelRelax:
			arg = new(core.RelaxSpec)
		default:
			continue
		}
		if json.Unmarshal(js.Args, arg) == nil {
			specs = append(specs, typed{js.Kernel, arg})
		}
	}
	ids := make([]string, len(specs))
	for i := range ids {
		ids[i] = "c.1." + strconv.Itoa(i)
	}
	v["flow.spec_encode_ns"] = timeEach(rc.tr, "flow.NewSpecTask", len(specs), func(i int) {
		_, _ = flow.NewSpecTask(ids[i], 0, specs[i].kernel, specs[i].arg)
	})

	for kernel, metric := range map[string]string{
		core.KernelFeature: "experiments.kernel_feature_us",
		core.KernelInfer:   "experiments.kernel_infer_us",
		core.KernelRelax:   "experiments.kernel_relax_us",
	} {
		ps := byKernel[kernel]
		v[metric] = timeEach(rc.tr, "flow.Registry.Run "+kernel, min(len(ps), 2000), func(i int) {
			_, _ = flow.DefaultRegistry().Run(ps[i])
		}) / 1e3
	}

	// A worker's first task of a campaign builds the world for its seed;
	// fresh seeds make this process pay that again.
	if firstFeature != nil {
		var builds []float64
		for k := uint64(1); k <= 3; k++ {
			spec := *firstFeature
			spec.Seed = rc.seed + k
			t, err := flow.NewSpecTask("w", 0, core.KernelFeature, spec)
			if err != nil {
				break
			}
			s := time.Now()
			_, err = flow.DefaultRegistry().Run(t.Payload)
			e := time.Now()
			if err != nil {
				break
			}
			rc.tr.add(fmt.Sprintf("flow.Registry.Run %s (fresh seed)", core.KernelFeature), 0, s, e)
			builds = append(builds, float64(e.Sub(s).Nanoseconds())/1e6)
		}
		v["experiments.world_build_ms"] = median(builds)
	}
	return v
}
