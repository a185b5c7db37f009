package analysis

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/exec"
)

// WorkerLoad summarises one worker's share of a recorded trace.
type WorkerLoad struct {
	WorkerID string
	// Tasks is the number of tasks the worker completed.
	Tasks int
	// BusySec is the summed handler time of those tasks.
	BusySec float64
	// BusyFrac is BusySec over the campaign span — the per-worker busy
	// fraction of the paper's Fig-2-style load-balance analysis. 0 when
	// the span is degenerate.
	BusyFrac float64
}

// CampaignLoad summarises one campaign's share of a multi-tenant trace.
type CampaignLoad struct {
	// Campaign is the namespace the tasks were submitted under; rows with
	// no campaign aggregate under "(none)".
	Campaign string
	Tasks    int
	Failed   int
	// BusySec is the summed handler time of the campaign's tasks.
	BusySec float64
	// SpanSec is the campaign's own span: its earliest enqueue (falling
	// back to start) to its latest finish.
	SpanSec float64
}

// DurationBin is one bucket of the task-time histogram.
type DurationBin struct {
	// Lo and Hi bound the bucket in seconds: [Lo, Hi).
	Lo, Hi float64
	Count  int
}

// LoadBalanceReport is the load-balance analysis of one recorded trace —
// the analysis the paper builds on the per-task processing-times file
// (task → worker placement, queue/run timings), here computed from a real
// run's exec.TaskStats rather than the discrete-event simulator.
type LoadBalanceReport struct {
	Tasks   int
	Failed  int
	Workers []WorkerLoad // sorted by WorkerID
	// SpanSec is the campaign span: earliest enqueue (falling back to
	// start) to latest finish.
	SpanSec float64
	// MeanRunSec / MaxRunSec / MeanQueueSec summarise the per-task
	// timings.
	MeanRunSec   float64
	MaxRunSec    float64
	MeanQueueSec float64
	// WireBytes is the summed result-payload bytes: what the workers sent
	// back (0 for in-process batches). Campaign kernels return scalars
	// only — search seconds, a prediction digest, relax seconds.
	WireBytes int
	// Hist is the task-duration histogram over [0, MaxRunSec].
	Hist []DurationBin
	// Campaigns breaks the trace down per campaign namespace (sorted by
	// name, "(none)" last). Empty — and absent from Render — when every
	// row is single-tenant, so existing reports are byte-identical.
	Campaigns []CampaignLoad
}

// LoadBalance computes the load-balance summary of a trace with the given
// number of histogram bins (<= 0 selects 10). Rows with no worker identity
// are still counted as tasks but excluded from per-worker loads.
func LoadBalance(rows []exec.TaskStats, bins int) *LoadBalanceReport {
	if bins <= 0 {
		bins = 10
	}
	r := &LoadBalanceReport{Tasks: len(rows)}
	if len(rows) == 0 {
		return r
	}

	var first, last time.Time
	byWorker := make(map[string]*WorkerLoad)
	type campaignSpan struct {
		load        CampaignLoad
		first, last time.Time
	}
	byCampaign := make(map[string]*campaignSpan)
	multiTenant := false
	var sumRun, sumQueue float64
	for i := range rows {
		row := &rows[i]
		begin := row.Enqueue
		if begin.IsZero() {
			begin = row.Start
		}
		if first.IsZero() || begin.Before(first) {
			first = begin
		}
		if row.Finish.After(last) {
			last = row.Finish
		}
		run := row.RunSeconds()
		sumRun += run
		sumQueue += row.QueueSeconds()
		if run > r.MaxRunSec {
			r.MaxRunSec = run
		}
		r.WireBytes += row.PayloadBytes
		if row.Err != "" {
			r.Failed++
		}
		if row.Campaign != "" {
			multiTenant = true
		}
		c := byCampaign[row.Campaign]
		if c == nil {
			c = &campaignSpan{load: CampaignLoad{Campaign: row.Campaign}}
			byCampaign[row.Campaign] = c
		}
		c.load.Tasks++
		c.load.BusySec += run
		if row.Err != "" {
			c.load.Failed++
		}
		if c.first.IsZero() || begin.Before(c.first) {
			c.first = begin
		}
		if row.Finish.After(c.last) {
			c.last = row.Finish
		}
		if row.WorkerID == "" {
			continue
		}
		w := byWorker[row.WorkerID]
		if w == nil {
			w = &WorkerLoad{WorkerID: row.WorkerID}
			byWorker[row.WorkerID] = w
		}
		w.Tasks++
		w.BusySec += run
	}
	r.MeanRunSec = sumRun / float64(len(rows))
	r.MeanQueueSec = sumQueue / float64(len(rows))
	if last.After(first) {
		r.SpanSec = last.Sub(first).Seconds()
	}

	r.Workers = make([]WorkerLoad, 0, len(byWorker))
	for _, w := range byWorker {
		if r.SpanSec > 0 {
			w.BusyFrac = w.BusySec / r.SpanSec
		}
		r.Workers = append(r.Workers, *w)
	}
	sort.Slice(r.Workers, func(i, j int) bool { return r.Workers[i].WorkerID < r.Workers[j].WorkerID })

	// The per-campaign breakdown only exists when the trace is actually
	// multi-tenant: a trace with no campaign identity anywhere keeps its
	// report byte-identical to pre-campaign releases.
	if multiTenant {
		r.Campaigns = make([]CampaignLoad, 0, len(byCampaign))
		for _, c := range byCampaign {
			if c.last.After(c.first) {
				c.load.SpanSec = c.last.Sub(c.first).Seconds()
			}
			if c.load.Campaign == "" {
				c.load.Campaign = "(none)"
			}
			r.Campaigns = append(r.Campaigns, c.load)
		}
		sort.Slice(r.Campaigns, func(i, j int) bool {
			ci, cj := r.Campaigns[i].Campaign, r.Campaigns[j].Campaign
			if (ci == "(none)") != (cj == "(none)") {
				return cj == "(none)"
			}
			return ci < cj
		})
	}

	// Task-time histogram over [0, MaxRunSec]; a degenerate max puts
	// everything in the first bin.
	r.Hist = make([]DurationBin, bins)
	width := r.MaxRunSec / float64(bins)
	for b := range r.Hist {
		r.Hist[b].Lo = float64(b) * width
		r.Hist[b].Hi = float64(b+1) * width
	}
	for i := range rows {
		b := 0
		if width > 0 {
			b = int(rows[i].RunSeconds() / width)
			if b >= bins {
				b = bins - 1
			}
			if b < 0 {
				b = 0
			}
		}
		r.Hist[b].Count++
	}
	return r
}

// Render writes the load-balance summary as a human-readable report.
func (r *LoadBalanceReport) Render(w io.Writer) error {
	var err error
	printf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	printf("load balance: %d tasks (%d failed), span %.3f s, %d wire bytes\n",
		r.Tasks, r.Failed, r.SpanSec, r.WireBytes)
	printf("task time: mean %.3f s, max %.3f s; queue mean %.3f s\n",
		r.MeanRunSec, r.MaxRunSec, r.MeanQueueSec)
	for _, cl := range r.Campaigns {
		printf("  campaign %-14s %6d tasks (%d failed)  busy %8.3f s  span %8.3f s\n",
			cl.Campaign, cl.Tasks, cl.Failed, cl.BusySec, cl.SpanSec)
	}
	for _, wl := range r.Workers {
		printf("  worker %-16s %6d tasks  busy %8.3f s  (%.1f%%)\n",
			wl.WorkerID, wl.Tasks, wl.BusySec, 100*wl.BusyFrac)
	}
	if len(r.Hist) > 0 && r.Tasks > 0 {
		printf("task-time histogram:\n")
		for _, b := range r.Hist {
			printf("  [%8.3f, %8.3f) %6d\n", b.Lo, b.Hi, b.Count)
		}
	}
	return err
}
