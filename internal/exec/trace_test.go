package exec

import (
	"encoding/csv"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStatsCSVGoldenSchema gates the processing-times CSV schema: header
// verbatim, column order, and row shape. Changing any of it is a schema
// change that must be made deliberately (downstream analyses parse this).
func TestStatsCSVGoldenSchema(t *testing.T) {
	base := time.Unix(1643068800, 0).UTC() // 2022-01-25, the paper's arXiv date
	rows := []TaskStats{
		{
			TaskID: "DVU_00001", Kernel: "campaign/feature", WorkerID: "w01",
			Enqueue: base, Start: base.Add(250 * time.Millisecond),
			Finish: base.Add(1250 * time.Millisecond), PayloadBytes: 512,
		},
		{
			TaskID: "DVU_00002/m3", Kernel: "campaign/infer", WorkerID: "w02",
			Enqueue: base.Add(time.Second), Start: base.Add(1500 * time.Millisecond),
			Finish: base.Add(2 * time.Second), PayloadBytes: 0, Err: "boom",
			Campaign: "dvu-full",
		},
		// A quarantine record: the scheduler builds it from the task ID
		// and the error alone, so it has no stamps and no placement.
		{TaskID: "DVU_00003", Kernel: "campaign/relax", Err: "flow: task DVU_00003 quarantined", Campaign: "dvu-full"},
	}
	var sb strings.Builder
	if err := WriteStatsCSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	golden := "task_id,kernel,worker_id,enqueued_unix_ns,start_unix_ns,finish_unix_ns,queue_s,run_s,payload_bytes,error,campaign\n" +
		"DVU_00001,campaign/feature,w01,1643068800000000000,1643068800250000000,1643068801250000000,0.250000,1.000000,512,,\n" +
		"DVU_00002/m3,campaign/infer,w02,1643068801000000000,1643068801500000000,1643068802000000000,0.500000,0.500000,0,boom,dvu-full\n" +
		"DVU_00003,campaign/relax,,0,0,0,0.000000,0.000000,0,flow: task DVU_00003 quarantined,dvu-full\n"
	if sb.String() != golden {
		t.Errorf("stats CSV schema changed:\n--- got ---\n%s--- want ---\n%s", sb.String(), golden)
	}
}

func TestTraceRowsChronological(t *testing.T) {
	base := time.Unix(100, 0)
	tr := &Trace{}
	tr.Record(TaskStats{TaskID: "late", Enqueue: base.Add(2 * time.Second)})
	tr.Record(TaskStats{TaskID: "b", Enqueue: base, Start: base})
	tr.Record(TaskStats{TaskID: "a", Enqueue: base, Start: base})
	rows := tr.Rows()
	if len(rows) != 3 || tr.Len() != 3 {
		t.Fatalf("rows = %d, len = %d", len(rows), tr.Len())
	}
	if rows[0].TaskID != "a" || rows[1].TaskID != "b" || rows[2].TaskID != "late" {
		t.Errorf("order = %s,%s,%s; want a,b,late (ties break by task ID)",
			rows[0].TaskID, rows[1].TaskID, rows[2].TaskID)
	}
}

func TestTaskStatsDurations(t *testing.T) {
	base := time.Unix(7, 0)
	s := TaskStats{Enqueue: base, Start: base.Add(time.Second), Finish: base.Add(3 * time.Second)}
	if q := s.QueueSeconds(); q != 1 {
		t.Errorf("QueueSeconds = %v, want 1", q)
	}
	if r := s.RunSeconds(); r != 2 {
		t.Errorf("RunSeconds = %v, want 2", r)
	}
	// A quarantine record carries no stamps at all: both durations are 0.
	s2 := TaskStats{TaskID: "q", Err: "quarantined"}
	if q, r := s2.QueueSeconds(), s2.RunSeconds(); q != 0 || r != 0 {
		t.Errorf("quarantine record: QueueSeconds = %v, RunSeconds = %v, want 0, 0", q, r)
	}
}

// TestPoolRecordsTrace: the pool back end stamps per-task timings, worker
// placement, and the batch tags — with results byte-identical to the
// untraced run.
func TestPoolRecordsTrace(t *testing.T) {
	pool := NewPool(3)
	trace := &Trace{}
	pool.SetTrace(trace)
	items := []num{10, 20, 30, 40}
	out, err := MapSpecResume(pool, "test/kernel", 1, items,
		func(i int, v num) string { return fmt.Sprintf("item-%d", v) },
		func(_ int, v num) num { return v },
		func(_ int, v num) (num, error) { return v * 2, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range items {
		if out[i] != v*2 {
			t.Fatalf("out[%d] = %d", i, out[i])
		}
	}
	rows := trace.Rows()
	if len(rows) != len(items) {
		t.Fatalf("trace rows = %d, want %d", len(rows), len(items))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.TaskID] = true
		if r.Kernel != "test/kernel" {
			t.Errorf("kernel = %q", r.Kernel)
		}
		if !strings.HasPrefix(r.WorkerID, "pool-w") {
			t.Errorf("worker = %q, want pool-w*", r.WorkerID)
		}
		if r.Enqueue.After(r.Start) || r.Start.After(r.Finish) {
			t.Errorf("task %s: timings out of order", r.TaskID)
		}
		if r.PayloadBytes != 0 {
			t.Errorf("task %s: in-process payload bytes = %d, want 0", r.TaskID, r.PayloadBytes)
		}
		if r.Err != "" {
			t.Errorf("task %s: unexpected error %q", r.TaskID, r.Err)
		}
	}
	for _, v := range items {
		if !seen[fmt.Sprintf("item-%d", v)] {
			t.Errorf("no trace row for item-%d", v)
		}
	}
}

// TestPoolGrainOneWorkerPerUnit: a traced pool run with Batch.Grain puts
// each unit of consecutive items on one WorkerID, at every width, and
// collects the results the untraced serial loop does — n is not a multiple
// of the grain, so the last unit is short.
func TestPoolGrainOneWorkerPerUnit(t *testing.T) {
	const n, grain = 23, 5
	want := make([]int, n)
	for i := range want {
		want[i] = i*i + 1
	}
	for _, workers := range []int{2, 4, 8} {
		pool := NewPool(workers)
		trace := &Trace{}
		pool.SetTrace(trace)
		got := make([]int, n)
		if err := pool.Run(Batch{N: n, Grain: grain, Fn: func(i int) error { got[i] = i*i + 1; return nil }}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results %v, want %v", workers, got, want)
		}
		rows := trace.Rows()
		if len(rows) != n {
			t.Fatalf("workers=%d: %d trace rows, want %d", workers, len(rows), n)
		}
		unitWorker := map[int]string{}
		for _, r := range rows {
			i, err := strconv.Atoi(r.TaskID)
			if err != nil {
				t.Fatal(err)
			}
			if w, ok := unitWorker[i/grain]; ok && w != r.WorkerID {
				t.Fatalf("workers=%d: unit %d ran on %s and %s", workers, i/grain, w, r.WorkerID)
			}
			unitWorker[i/grain] = r.WorkerID
		}
	}
}

// TestPoolRunsOneBatchAtATime: four goroutines share one Pool{Workers: 2}.
// Its batches queue behind each other, so no more than two items ever run
// at once, and no traced worker ID runs two items at once — the trace's
// per-worker timelines and busy fractions stay true when callers share
// the pool.
func TestPoolRunsOneBatchAtATime(t *testing.T) {
	const callers, items = 4, 8
	pool := &Pool{Workers: 2}
	trace := &Trace{}
	pool.SetTrace(trace)
	var running, peak atomic.Int64
	item := func(int) error {
		now := running.Add(1)
		for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
		}
		time.Sleep(time.Millisecond)
		running.Add(-1)
		return nil
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, callers)
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs[c] = pool.Run(Batch{N: items, Fn: item, Kernel: fmt.Sprintf("caller%d", c)})
		}()
	}
	close(start)
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", c, err)
		}
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("%d items ran at once on a pool of 2 workers", p)
	}
	rows := trace.Rows()
	if len(rows) != callers*items {
		t.Fatalf("%d trace rows, want %d", len(rows), callers*items)
	}
	byWorker := map[string][]TaskStats{}
	for _, r := range rows {
		byWorker[r.WorkerID] = append(byWorker[r.WorkerID], r)
	}
	for w, rs := range byWorker {
		for i, a := range rs {
			for _, b := range rs[i+1:] {
				if a.Start.Before(b.Finish) && b.Start.Before(a.Finish) {
					t.Fatalf("%s ran %s/%s and %s/%s at once", w, a.Kernel, a.TaskID, b.Kernel, b.TaskID)
				}
			}
		}
	}
}

func TestPoolTraceRecordsErrors(t *testing.T) {
	pool := NewPool(2)
	trace := &Trace{}
	pool.SetTrace(trace)
	err := pool.Run(Batch{N: 3, Fn: func(i int) error {
		if i == 1 {
			return fmt.Errorf("task %d exploded", i)
		}
		return nil
	}})
	if err == nil {
		t.Fatal("expected the task error")
	}
	found := false
	for _, r := range trace.Rows() {
		if r.Err != "" {
			found = true
			if r.TaskID != "1" {
				t.Errorf("error recorded for task %q, want 1 (untagged = index)", r.TaskID)
			}
		}
	}
	if !found {
		t.Error("no trace row carries the task error")
	}
}

// TestRemoteDispatchRecordsTrace: spec dispatch across the scheduler
// records the caller's task IDs, worker identity and the scheduler's
// enqueue stamp from the wire protocol, and the measured wire bytes of
// each result payload.
func TestRemoteDispatchRecordsTrace(t *testing.T) {
	f := remoteCluster(t, 2)
	trace := &Trace{}
	f.SetTrace(trace)
	items := []num{7, 8, 9}
	out, err := MapSpecResume(f, "exectest/square", 1, items,
		func(_ int, v num) string { return "sq-" + strconv.Itoa(int(v)) },
		func(_ int, v num) num { return v },
		func(_ int, v num) (num, error) { t.Fatal("closure must not run remotely"); return 0, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range items {
		if out[i] != v*v {
			t.Fatalf("out[%d] = %d", i, out[i])
		}
	}
	rows := trace.Rows()
	if len(rows) != len(items) {
		t.Fatalf("trace rows = %d, want %d", len(rows), len(items))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.TaskID] = true
		if r.Kernel != "exectest/square" {
			t.Errorf("kernel = %q", r.Kernel)
		}
		if !strings.HasPrefix(r.WorkerID, "spec-w") {
			t.Errorf("worker = %q", r.WorkerID)
		}
		if r.Enqueue.IsZero() {
			t.Errorf("task %s has no scheduler enqueue stamp", r.TaskID)
		}
		if r.Start.Before(r.Enqueue) || r.Finish.Before(r.Start) {
			t.Errorf("task %s: timings out of order", r.TaskID)
		}
		if r.PayloadBytes <= 0 {
			t.Errorf("task %s: payload bytes = %d, want > 0 (results cross the wire)", r.TaskID, r.PayloadBytes)
		}
	}
	for _, v := range items {
		if !seen["sq-"+strconv.Itoa(int(v))] {
			t.Errorf("no trace row for sq-%d", v)
		}
	}
	// The CSV export of a real trace parses and keeps the schema width.
	var sb strings.Builder
	if err := trace.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(items)+1 {
		t.Fatalf("csv rows = %d", len(recs))
	}
	for _, rec := range recs {
		if len(rec) != len(StatsHeader) {
			t.Fatalf("csv width = %d, want %d", len(rec), len(StatsHeader))
		}
	}
}
