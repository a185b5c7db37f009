package exec

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// TaskStats is the per-task telemetry record of one executed work item —
// the row of the paper's processing-times file: which kernel ran, where it
// was placed, when it was enqueued, started, and finished, and how many
// payload bytes came back over the wire. Timings are wall-clock and vary
// run to run; nothing in a campaign report ever depends on them — the
// trace is an observation channel, never an input.
type TaskStats struct {
	// TaskID is the stable, human-meaningful identity of the work item
	// (a protein ID, a "target/m3" inference slot), not the wire task ID.
	TaskID string
	// Kernel names the batch ("campaign/feature@1", ...); empty for
	// untagged fan-outs (the experiment helpers).
	Kernel string
	// WorkerID identifies the placement: a pool worker ("pool-w003") or a
	// flow worker, possibly in another OS process.
	WorkerID string
	// Enqueue is when the task entered the queue (batch submission for
	// the pool, the scheduler's queue stamp for flow). Start and Finish
	// bracket the handler execution on the worker.
	Enqueue time.Time
	Start   time.Time
	Finish  time.Time
	// PayloadBytes measures the encoded result payload that crossed the
	// wire back to the client (0 for pool batches, which return nothing
	// over the wire).
	PayloadBytes int
	// Err is the task's failure message ("" on success).
	Err string
	// Campaign is the multi-tenant namespace the task was submitted under
	// (flow.Task.Campaign); empty for single-tenant runs. Per-campaign
	// analysis rows and the timeline legend group by it.
	Campaign string
}

// QueueSeconds is the time the task spent waiting for a worker.
func (s *TaskStats) QueueSeconds() float64 {
	if s.Enqueue.IsZero() || s.Start.Before(s.Enqueue) {
		return 0
	}
	return s.Start.Sub(s.Enqueue).Seconds()
}

// RunSeconds is the handler execution time.
func (s *TaskStats) RunSeconds() float64 { return s.Finish.Sub(s.Start).Seconds() }

// Trace receives one TaskStats record per executed task: an append-only
// collector with CSV export in the paper's processing-times schema. It is
// safe for concurrent use, since pool workers and the flow client record
// from their own goroutines. The zero value is ready to use.
type Trace struct {
	mu   sync.Mutex
	rows []TaskStats
}

// Record appends one task's stats.
func (t *Trace) Record(s TaskStats) {
	t.mu.Lock()
	t.rows = append(t.rows, s)
	t.mu.Unlock()
}

// Len reports the number of recorded tasks.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.rows)
}

// Rows returns a copy of the recorded stats in chronological order
// (SortStats).
func (t *Trace) Rows() []TaskStats {
	t.mu.Lock()
	rows := append([]TaskStats(nil), t.rows...)
	t.mu.Unlock()
	SortStats(rows)
	return rows
}

// SortStats puts rows in chronological order: enqueue, then start, with
// task ID as the deterministic tiebreaker — the submission order the
// dataflow simulator replays.
func SortStats(rows []TaskStats) {
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := &rows[i], &rows[j]
		if !a.Enqueue.Equal(b.Enqueue) {
			return a.Enqueue.Before(b.Enqueue)
		}
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		return a.TaskID < b.TaskID
	})
}

// WriteCSV writes the trace as the paper's processing-times CSV.
func (t *Trace) WriteCSV(w io.Writer) error { return WriteStatsCSV(w, t.Rows()) }

// StatsHeader is the fixed column order of the processing-times CSV. Tests
// gate this header verbatim; changing it is a schema change.
var StatsHeader = []string{
	"task_id", "kernel", "worker_id",
	"enqueued_unix_ns", "start_unix_ns", "finish_unix_ns",
	"queue_s", "run_s", "payload_bytes", "error", "campaign",
}

// WriteStatsCSV writes TaskStats rows as CSV in the StatsHeader schema —
// one row per task, the artifact the paper's load-balance analysis (and
// internal/analysis.LoadBalance) is built on.
func WriteStatsCSV(w io.Writer, rows []TaskStats) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(StatsHeader); err != nil {
		return fmt.Errorf("exec: writing stats header: %w", err)
	}
	// An absent stamp (a quarantine record, which the scheduler writes
	// with none) prints as 0, not as the zero time's nonsensical UnixNano.
	unixNS := func(t time.Time) string {
		if t.IsZero() {
			return "0"
		}
		return strconv.FormatInt(t.UnixNano(), 10)
	}
	for i := range rows {
		r := &rows[i]
		rec := []string{
			r.TaskID,
			r.Kernel,
			r.WorkerID,
			unixNS(r.Enqueue),
			unixNS(r.Start),
			unixNS(r.Finish),
			strconv.FormatFloat(r.QueueSeconds(), 'f', 6, 64),
			strconv.FormatFloat(r.RunSeconds(), 'f', 6, 64),
			strconv.Itoa(r.PayloadBytes),
			r.Err,
			r.Campaign,
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("exec: writing stats row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
