package main

import (
	"sort"

	"repro/internal/metrics"
)

// Workload names, as BENCHMARK.json and every later issue spell them.
const (
	wlCampaignPool = "campaign_pool"
	wlCampaignMP   = "campaign_mp"
	wlPingpong     = "pingpong"
	wlTenantsFair  = "tenants_fair"
	wlRelaxCASP    = "relax_casp"
)

// metricDef is one row of the metric glossary. BENCHMARK.json repeats
// name/unit/better/bound; TestBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload it is predicted to move ("wall_s@campaign_mp").
	Moves []string
	// On lists the workloads whose traced run measures a per-layer
	// metric; elsewhere it reads 0 (not measured).
	On []string
}

// endToEnd is what a user of the system waits for or pays. Every workload
// reports every row; each value is taken over the run's two best
// repetitions (bestTwo).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "tasks_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wait_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "wait_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
}

var (
	flowWorkloads = []string{wlCampaignMP, wlPingpong, wlTenantsFair}
	allWorkloads  = []string{wlCampaignPool, wlCampaignMP, wlPingpong, wlTenantsFair, wlRelaxCASP}
)

// perLayer lists the single-layer metrics of the traced run, grouped as in
// README.md: A process accounting, B the program's own instruments, C
// exported functions timed by the bench over the workload's real inputs.
var perLayer = []metricDef{
	// A — wait4 rusage of each process.
	{Name: "flow.sched.cpu_us_per_task", Unit: "us", Better: "lower", On: flowWorkloads,
		Moves: []string{"cpu_s@campaign_mp", "wall_s@campaign_mp", "wait_ms_p50@pingpong", "tasks_per_s@tenants_fair"}},
	{Name: "flow.sched.maxrss_mb", Unit: "MB", Better: "lower", On: flowWorkloads,
		Moves: []string{"cpu_s@campaign_mp"}},
	{Name: "flow.worker.cpu_us_per_task", Unit: "us", Better: "lower", On: flowWorkloads,
		Moves: []string{"cpu_s@campaign_mp"}},
	{Name: "flow.worker.maxrss_mb", Unit: "MB", Better: "lower", On: flowWorkloads,
		Moves: []string{"cpu_s@campaign_mp"}},
	{Name: "exec.submit.cpu_us_per_task", Unit: "us", Better: "lower", On: []string{wlCampaignMP},
		Moves: []string{"wall_s@campaign_mp"}},
	{Name: "exec.submit.maxrss_mb", Unit: "MB", Better: "lower", On: []string{wlCampaignMP},
		Moves: []string{"wall_s@campaign_mp"}},
	{Name: "flow.client.cpu_us_per_task", Unit: "us", Better: "lower", On: []string{wlPingpong, wlTenantsFair},
		Moves: []string{"wait_ms_p50@pingpong"}},

	// B — event log, stats CSV / Result records, /metrics.
	{Name: "flow.queue_wait_ms_p50", Unit: "ms", Better: "lower", On: flowWorkloads,
		Moves: []string{"wait_ms_p50@tenants_fair", "wall_s@campaign_mp"}},
	{Name: "flow.queue_wait_ms_p99", Unit: "ms", Better: "lower", On: flowWorkloads,
		Moves: []string{"wait_ms_p90@tenants_fair"}},
	{Name: "flow.service_us_p50", Unit: "us", Better: "lower", On: flowWorkloads,
		Moves: []string{"wall_s@campaign_mp"}},
	{Name: "flow.service_us_p99", Unit: "us", Better: "lower", On: flowWorkloads,
		Moves: []string{"wait_ms_p90@pingpong"}},
	{Name: "flow.handler_us_p50", Unit: "us", Better: "lower", On: flowWorkloads,
		Moves: []string{"wall_s@campaign_mp"}},
	{Name: "flow.handler_us_p99", Unit: "us", Better: "lower", On: flowWorkloads,
		Moves: []string{"wall_s@campaign_mp"}},
	{Name: "flow.turnaround_us_p50", Unit: "us", Better: "lower", On: flowWorkloads,
		Moves: []string{"wait_ms_p50@pingpong", "wall_s@campaign_mp"}},
	{Name: "flow.forward_us_p50", Unit: "us", Better: "lower", On: []string{wlPingpong},
		Moves: []string{"wait_ms_p50@pingpong"}},
	{Name: "flow.worker_busy_frac", Unit: "ratio", Better: "higher", On: flowWorkloads,
		Moves: []string{"wall_s@campaign_mp"}},
	{Name: "flow.balance_spread_pct", Unit: "%", Better: "lower", On: flowWorkloads,
		Moves: []string{"wall_s@campaign_mp"}},
	{Name: "flow.events_per_task", Unit: "count", Better: "lower", On: flowWorkloads,
		Moves: []string{"cpu_s@campaign_mp"}},
	{Name: "flow.result_bytes_per_task", Unit: "B", Better: "lower", On: flowWorkloads,
		Moves: []string{"cpu_s@campaign_mp"}},
	{Name: "events.log_bytes_per_task", Unit: "B", Better: "lower", On: flowWorkloads,
		Moves: []string{"cpu_s@campaign_mp"}},
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower", On: flowWorkloads,
		Moves: []string{"cpu_s@campaign_mp"}},
	{Name: "obs.scrape_bytes", Unit: "B", Better: "lower", On: flowWorkloads,
		Moves: []string{"cpu_s@campaign_mp"}},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower", On: allWorkloads,
		Moves: []string{"wall_s@campaign_mp", "wall_s@pingpong", "wall_s@tenants_fair", "wall_s@campaign_pool", "wall_s@relax_casp"}},
	{Name: "flow.sched.unattributed_us_per_task", Unit: "us", Better: "lower", On: flowWorkloads,
		Moves: []string{"cpu_s@campaign_mp", "wait_ms_p50@pingpong"}},

	// C — spec marshal and the campaign kernels.
	{Name: "flow.spec_encode_ns", Unit: "ns", Better: "lower", On: []string{wlCampaignMP},
		Moves: []string{"wall_s@campaign_mp"}},
	{Name: "flow.spec_decode_ns", Unit: "ns", Better: "lower", On: []string{wlCampaignMP},
		Moves: []string{"wall_s@campaign_mp"}},
	{Name: "experiments.kernel_feature_us", Unit: "us", Better: "lower", On: []string{wlCampaignMP},
		Moves: []string{"wall_s@campaign_mp", "wall_s@campaign_pool"}},
	{Name: "experiments.kernel_infer_us", Unit: "us", Better: "lower", On: []string{wlCampaignMP},
		Moves: []string{"wall_s@campaign_mp", "wall_s@campaign_pool"}},
	{Name: "experiments.kernel_relax_us", Unit: "us", Better: "lower", On: flowWorkloads,
		Moves: []string{"wall_s@campaign_mp", "wait_ms_p50@pingpong"}},
	{Name: "experiments.world_build_ms", Unit: "ms", Better: "lower", On: []string{wlCampaignMP},
		Moves: []string{"wall_s@campaign_mp"}},

	// C — the event stream and its views, replaying the captured log.
	{Name: "events.emit_ns.bare", Unit: "ns", Better: "lower", On: flowWorkloads,
		Moves: []string{"wait_ms_p50@pingpong", "tasks_per_s@tenants_fair"}},
	{Name: "events.emit_ns.metrics", Unit: "ns", Better: "lower", On: flowWorkloads,
		Moves: []string{"wait_ms_p50@pingpong", "tasks_per_s@tenants_fair"}},
	{Name: "events.emit_ns.metrics_log", Unit: "ns", Better: "lower", On: flowWorkloads,
		Moves: []string{"wait_ms_p50@pingpong", "tasks_per_s@tenants_fair"}},
	{Name: "flow.metrics_fold_ns", Unit: "ns", Better: "lower", On: flowWorkloads,
		Moves: []string{"wait_ms_p50@pingpong", "tasks_per_s@tenants_fair"}},
	{Name: "events.logsink_ns", Unit: "ns", Better: "lower", On: flowWorkloads,
		Moves: []string{"cpu_s@campaign_mp"}},
	{Name: "events.readlog_ns", Unit: "ns", Better: "lower", On: flowWorkloads,
		Moves: []string{"setup_s@campaign_mp"}},
	{Name: "events.replay_ns", Unit: "ns", Better: "lower", On: flowWorkloads,
		Moves: []string{"cpu_s@campaign_mp"}},
	{Name: "obs.render_us", Unit: "us", Better: "lower", On: flowWorkloads,
		Moves: []string{"cpu_s@campaign_mp"}},
	{Name: "exec.stats_csv_ns", Unit: "ns", Better: "lower", On: flowWorkloads,
		Moves: []string{"wall_s@campaign_mp"}},

	// C — the pool and the three stages.
	{Name: "exec.pool_item_ns", Unit: "ns", Better: "lower", On: []string{wlCampaignPool, wlRelaxCASP},
		Moves: []string{"wall_s@campaign_pool", "wall_s@relax_casp"}},
	{Name: "parallel.foreach_ns", Unit: "ns", Better: "lower", On: []string{wlCampaignPool, wlRelaxCASP},
		Moves: []string{"wall_s@campaign_pool", "wall_s@relax_casp"}},
	{Name: "core.feature_stage_s", Unit: "s", Better: "lower", On: []string{wlCampaignPool},
		Moves: []string{"wall_s@campaign_pool", "cpu_s@campaign_pool"}},
	{Name: "core.inference_stage_s", Unit: "s", Better: "lower", On: []string{wlCampaignPool},
		Moves: []string{"wall_s@campaign_pool", "cpu_s@campaign_pool"}},
	{Name: "core.relax_stage_s", Unit: "s", Better: "lower", On: []string{wlCampaignPool},
		Moves: []string{"wall_s@campaign_pool", "cpu_s@campaign_pool"}},
	{Name: "proteome.generate_s", Unit: "s", Better: "lower", On: []string{wlCampaignPool},
		Moves: []string{"setup_s@campaign_pool"}},
	{Name: "core.allocs_per_target", Unit: "count", Better: "lower", On: []string{wlCampaignPool},
		Moves: []string{"cpu_s@campaign_pool"}},
	{Name: "core.alloc_kb_per_target", Unit: "KB", Better: "lower", On: []string{wlCampaignPool},
		Moves: []string{"cpu_s@campaign_pool"}},
	{Name: "core.gc_pause_ms", Unit: "ms", Better: "lower", On: []string{wlCampaignPool},
		Moves: []string{"wall_s@campaign_pool"}},
	{Name: "fold.infer_us", Unit: "us", Better: "lower", On: []string{wlCampaignPool},
		Moves: []string{"wall_s@campaign_pool", "cpu_s@campaign_pool"}},
	{Name: "cluster.simulate_dataflow_ms", Unit: "ms", Better: "lower", On: []string{wlCampaignPool},
		Moves: []string{"wall_s@campaign_pool"}},

	// C — real minimisations.
	{Name: "relax.relax_ms_p50", Unit: "ms", Better: "lower", On: []string{wlRelaxCASP},
		Moves: []string{"wall_s@relax_casp"}},
	{Name: "relax.relax_ms_p95", Unit: "ms", Better: "lower", On: []string{wlRelaxCASP},
		Moves: []string{"wall_s@relax_casp"}},
	{Name: "relax.energy_forces_us", Unit: "us", Better: "lower", On: []string{wlRelaxCASP},
		Moves: []string{"wall_s@relax_casp"}},
	{Name: "relax.steps_per_relax", Unit: "count", Better: "lower", On: []string{wlRelaxCASP},
		Moves: []string{"wall_s@relax_casp"}},
}

// values maps metric name to measured value.
type values map[string]float64

// percentile is the p-th percentile (0 <= p <= 100) of xs as the
// repository's own reports compute it (metrics.Quantile, linear
// interpolation), or 0 for no samples. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return metrics.Quantile(s, p/100)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// worsening returns by what share of base the value cur is worse, given
// which direction is better; negative when cur is better.
func worsening(better string, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// quartileSpread is the driver's steadiness measure: the distance between
// the first and third quartile as a share of the median, with quartiles as
// Python's statistics.quantiles(xs, n=4) ("exclusive" method) gives them.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}
