package analysis

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/svgplot"
)

// This file builds the paper's Fig-2-style worker-timeline figure from
// the client-side per-task trace (exec.TaskStats) and overlays the
// recorded run on cluster.SimulateDataflow's prediction for the same task
// set: the measured-vs-simulated comparison behind the paper's
// load-balance figure.

// SimTasksFromStats converts a recorded trace, in trace order
// (exec.SortStats), into the simulator's task list: one SimTask per row,
// with the measured run time as both duration and weight. Feeding it to
// cluster.SimulateDataflow with the run's worker count predicts the
// timeline an ideal earliest-free-worker dataflow would have produced for
// the same tasks.
func SimTasksFromStats(rows []exec.TaskStats) []cluster.SimTask {
	tasks := make([]cluster.SimTask, len(rows))
	for i := range rows {
		r := &rows[i]
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
	sorted := append([]exec.TaskStats(nil), rows...)
	exec.SortStats(sorted)

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
	sim, err := cluster.SimulateDataflow(SimTasksFromStats(sorted), cluster.DataflowOptions{
		Workers:      len(realRows),
		StartupDelay: firstStart,
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: simulating recorded tasks: %w", err)
	}
	fig.Simulated = make([]svgplot.Interval, len(sim.Intervals))
	for i, iv := range sim.Intervals {
		fig.Simulated[i] = svgplot.Interval{Row: realRows[iv.Worker], Start: iv.Start, End: iv.End, Label: iv.TaskID}
	}
	return fig, nil
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

// WriteTraceFiles writes a recorded trace to the files behind the CLIs'
// -stats and -timeline flags, skipping either whose path is empty: the
// processing-times CSV at statsPath, followed by the load-balance summary
// on summary, then the measured-vs-simulated figure at timelinePath,
// titled "<label>: N tasks, measured vs simulated". The CLIs pass stderr
// as summary, so their stdout report is byte-identical with tracing on or
// off.
func WriteTraceFiles(rows []exec.TaskStats, statsPath, timelinePath, label string, summary io.Writer) error {
	if statsPath != "" {
		if err := writeFile(statsPath, func(w io.Writer) error { return exec.WriteStatsCSV(w, rows) }); err != nil {
			return fmt.Errorf("writing stats CSV: %w", err)
		}
		if err := LoadBalance(rows, 10).Render(summary); err != nil {
			return fmt.Errorf("rendering load balance: %w", err)
		}
	}
	if timelinePath != "" {
		title := fmt.Sprintf("%s: %d tasks, measured vs simulated", label, len(rows))
		if err := writeFile(timelinePath, func(w io.Writer) error { return WriteTimelineSVG(w, rows, title) }); err != nil {
			return fmt.Errorf("writing timeline: %w", err)
		}
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
