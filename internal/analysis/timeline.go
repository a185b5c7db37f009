package analysis

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/svgplot"
)

// This file builds the paper's Fig-2-style worker-timeline figure from
// the two observability records the system keeps — the client-side
// per-task trace (exec.TaskStats) and the scheduler-side structured
// event log (events.Replay) — and overlays each recorded run on
// cluster.SimulateDataflow's prediction for the same task set: the
// measured-vs-simulated comparison the ROADMAP's load-balance figure
// asks for.

// statsOrder sorts rows chronologically (enqueue, start, task ID) — the
// submission order the simulator replays.
func statsOrder(rows []exec.TaskStats) []exec.TaskStats {
	sorted := append([]exec.TaskStats(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := &sorted[i], &sorted[j]
		if !a.Enqueue.Equal(b.Enqueue) {
			return a.Enqueue.Before(b.Enqueue)
		}
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		return a.TaskID < b.TaskID
	})
	return sorted
}

// SimTasksFromStats converts a recorded trace into the simulator's task
// list: one SimTask per row in enqueue order, with the measured run time
// as both duration and weight. Feeding it to cluster.SimulateDataflow
// with the run's worker count predicts the timeline an ideal
// earliest-free-worker dataflow would have produced for the same tasks.
func SimTasksFromStats(rows []exec.TaskStats) []cluster.SimTask {
	sorted := statsOrder(rows)
	tasks := make([]cluster.SimTask, len(sorted))
	for i := range sorted {
		r := &sorted[i]
		tasks[i] = cluster.SimTask{
			ID:       r.TaskID,
			Weight:   r.RunSeconds(),
			Duration: r.RunSeconds(),
		}
	}
	return tasks
}

// TimelineFromStats builds the measured-vs-simulated timeline figure
// from a recorded trace: filled blocks are the run as measured (one row
// per worker, start→finish per task), outlined blocks are
// cluster.SimulateDataflow's prediction for the same tasks at the same
// worker count, and the depth strip counts enqueued-but-unstarted tasks
// over time.
func TimelineFromStats(rows []exec.TaskStats, title string) (*svgplot.Timeline, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("analysis: timeline needs a non-empty trace")
	}
	sorted := statsOrder(rows)

	// The time origin is the earliest stamp in the trace; rows without an
	// enqueue stamp (quarantine records) fall back to their start.
	var t0 time.Time
	for i := range sorted {
		begin := sorted[i].Enqueue
		if begin.IsZero() {
			begin = sorted[i].Start
		}
		if t0.IsZero() || begin.Before(t0) {
			t0 = begin
		}
	}
	secs := func(ts time.Time) float64 {
		if ts.IsZero() {
			return 0
		}
		return ts.Sub(t0).Seconds()
	}

	workers := make([]string, 0, 8)
	rowOf := make(map[string]int)
	for i := range sorted {
		id := sorted[i].WorkerID
		if id == "" {
			id = "(unplaced)"
		}
		if _, ok := rowOf[id]; !ok {
			rowOf[id] = 0
			workers = append(workers, id)
		}
	}
	sort.Strings(workers)
	for i, id := range workers {
		rowOf[id] = i
	}

	fig := &svgplot.Timeline{
		Title:          title,
		Rows:           workers,
		MeasuredLabel:  "measured",
		SimulatedLabel: "simulated",
	}

	// Multi-tenant traces get a campaign legend and per-campaign block
	// colors; a trace with no campaign identity anywhere renders
	// byte-identically to pre-campaign releases.
	campaignOf := make(map[string]int)
	for i := range sorted {
		if c := sorted[i].Campaign; c != "" {
			if _, ok := campaignOf[c]; !ok {
				campaignOf[c] = 0
				fig.CampaignLabels = append(fig.CampaignLabels, c)
			}
		}
	}
	sort.Strings(fig.CampaignLabels)
	for i, c := range fig.CampaignLabels {
		campaignOf[c] = i + 1
	}

	firstStart := -1.0
	for i := range sorted {
		r := &sorted[i]
		id := r.WorkerID
		if id == "" {
			id = "(unplaced)"
		}
		start := secs(r.Start)
		if firstStart < 0 || start < firstStart {
			firstStart = start
		}
		fig.Measured = append(fig.Measured, svgplot.Interval{
			Row: rowOf[id], Start: start, End: secs(r.Finish), Label: r.TaskID,
			Campaign: campaignOf[r.Campaign],
		})
	}

	// Queue depth: +1 at enqueue, -1 at start, replayed in time order.
	type step struct {
		t float64
		d int
	}
	var steps []step
	for i := range sorted {
		r := &sorted[i]
		if r.Enqueue.IsZero() {
			continue // no queue residency observable for this row
		}
		steps = append(steps, step{secs(r.Enqueue), +1}, step{secs(r.Start), -1})
	}
	sort.SliceStable(steps, func(i, j int) bool {
		if steps[i].t != steps[j].t {
			return steps[i].t < steps[j].t
		}
		return steps[i].d > steps[j].d // enqueues before dequeues at a tie
	})
	depth := 0
	for _, st := range steps {
		depth += st.d
		// Enqueue is stamped by the scheduler's clock and Start by the
		// worker's; on a cross-host deployment skew can order a start
		// before its enqueue. Clamp rather than render a negative depth.
		if depth < 0 {
			depth = 0
		}
		if n := len(fig.Depth); n > 0 && fig.Depth[n-1].T == st.t {
			fig.Depth[n-1].Depth = depth
			continue
		}
		fig.Depth = append(fig.Depth, svgplot.DepthPoint{T: st.t, Depth: depth})
	}

	// The simulator's prediction for the same tasks: same worker count,
	// submission order as recorded, startup delay aligned to the first
	// measured start so the two timelines share an origin. The synthetic
	// "(unplaced)" row (rows with no worker identity) is not a worker —
	// counting it would grant the prediction phantom parallelism.
	var realRows []int
	for row, id := range workers {
		if id != "(unplaced)" {
			realRows = append(realRows, row)
		}
	}
	if len(realRows) == 0 {
		realRows = []int{0} // a fully unplaced trace still gets a 1-worker prediction
	}
	sim, err := cluster.SimulateDataflow(SimTasksFromStats(rows), cluster.DataflowOptions{
		Workers:      len(realRows),
		StartupDelay: firstStart,
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: simulating recorded tasks: %w", err)
	}
	fig.Simulated = simIntervals(sim, func(w int) int { return realRows[w] })
	return fig, nil
}

// simIntervals converts a simulation result into figure blocks; rowFor
// maps a simulated worker index onto its figure row.
func simIntervals(sim *cluster.SimResult, rowFor func(int) int) []svgplot.Interval {
	out := make([]svgplot.Interval, len(sim.Intervals))
	for i, iv := range sim.Intervals {
		out[i] = svgplot.Interval{Row: rowFor(iv.Worker), Start: iv.Start, End: iv.End, Label: iv.TaskID}
	}
	return out
}

// WriteTimelineSVG renders the measured-vs-simulated figure for a
// recorded trace — the artifact behind `proteomectl run/submit -timeline`
// and `afbench -timeline`.
func WriteTimelineSVG(w io.Writer, rows []exec.TaskStats, title string) error {
	fig, err := TimelineFromStats(rows, title)
	if err != nil {
		return err
	}
	return fig.Render(w)
}

// WriteTimelineFile is WriteTimelineSVG to a file path — the shared body
// of the CLI -timeline flags.
func WriteTimelineFile(path string, rows []exec.TaskStats, title string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTimelineSVG(f, rows, title); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReplayTimeline builds the same figure from a scheduler event-log
// replay instead of a client-side trace: busy intervals and queue depth
// come from the structured stream alone (no client cooperation), and the
// overlay simulates the reconstructed durations at the replay's worker
// count.
func ReplayTimeline(rep *events.Replay, title string) (*svgplot.Timeline, error) {
	if len(rep.Intervals) == 0 {
		return nil, fmt.Errorf("analysis: replay has no busy intervals")
	}
	rowOf := make(map[string]int, len(rep.Workers))
	for i, w := range rep.Workers {
		rowOf[w] = i
	}

	// Time origin: the first queue or interval activity in the log (the
	// scheduler may have idled long before the campaign).
	t0 := rep.Intervals[0].StartNS
	for i := range rep.Intervals {
		if rep.Intervals[i].StartNS < t0 {
			t0 = rep.Intervals[i].StartNS
		}
	}
	for _, d := range rep.Depth {
		if d.TimeNS < t0 {
			t0 = d.TimeNS
		}
	}
	secs := func(ns int64) float64 { return float64(ns-t0) / 1e9 }

	fig := &svgplot.Timeline{
		Title:          title,
		Rows:           rep.Workers,
		MeasuredLabel:  "replayed",
		SimulatedLabel: "simulated",
	}
	firstStart := -1.0
	ordered := append([]events.Interval(nil), rep.Intervals...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].StartNS != ordered[j].StartNS {
			return ordered[i].StartNS < ordered[j].StartNS
		}
		return ordered[i].Task < ordered[j].Task
	})
	simTasks := make([]cluster.SimTask, 0, len(ordered))
	for i := range ordered {
		iv := &ordered[i]
		start, end := secs(iv.StartNS), secs(iv.EndNS)
		if firstStart < 0 || start < firstStart {
			firstStart = start
		}
		fig.Measured = append(fig.Measured, svgplot.Interval{
			Row: rowOf[iv.Worker], Start: start, End: end, Label: iv.Task,
		})
		dur := end - start
		simTasks = append(simTasks, cluster.SimTask{ID: iv.Task, Weight: dur, Duration: dur})
	}
	for _, d := range rep.Depth {
		fig.Depth = append(fig.Depth, svgplot.DepthPoint{T: secs(d.TimeNS), Depth: d.Depth})
	}

	sim, err := cluster.SimulateDataflow(simTasks, cluster.DataflowOptions{
		Workers:      len(rep.Workers),
		StartupDelay: firstStart,
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: simulating replayed tasks: %w", err)
	}
	fig.Simulated = simIntervals(sim, func(w int) int { return w })
	return fig, nil
}
