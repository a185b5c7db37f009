package analysis

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
)

// fakeStats builds a two-worker trace: w0 runs a (0–2s) then c (3–4s),
// w1 runs b (0–3s). Everything was enqueued at t=0.
func fakeStats() []exec.TaskStats {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	return []exec.TaskStats{
		{TaskID: "a", Kernel: "k", WorkerID: "w0", Enqueue: at(0), Start: at(0.5), Finish: at(2)},
		{TaskID: "b", Kernel: "k", WorkerID: "w1", Enqueue: at(0), Start: at(0.5), Finish: at(3)},
		{TaskID: "c", Kernel: "k", WorkerID: "w0", Enqueue: at(0), Start: at(2.5), Finish: at(4)},
	}
}

func TestSimTasksFromStats(t *testing.T) {
	tasks := SimTasksFromStats(fakeStats())
	if len(tasks) != 3 {
		t.Fatalf("tasks = %d, want 3", len(tasks))
	}
	// Trace order, one task per row: a, b, c.
	if tasks[0].ID != "a" || tasks[1].ID != "b" || tasks[2].ID != "c" {
		t.Fatalf("order = %s, %s, %s", tasks[0].ID, tasks[1].ID, tasks[2].ID)
	}
	if tasks[0].Duration != 1.5 || tasks[1].Duration != 2.5 || tasks[2].Duration != 1.5 {
		t.Fatalf("durations = %v, %v, %v", tasks[0].Duration, tasks[1].Duration, tasks[2].Duration)
	}
}

func TestTimelineFromStats(t *testing.T) {
	fig, err := TimelineFromStats(fakeStats(), "test run")
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 2 || fig.Rows[0] != "w0" || fig.Rows[1] != "w1" {
		t.Fatalf("rows = %v", fig.Rows)
	}
	if len(fig.Measured) != 3 {
		t.Fatalf("measured blocks = %d", len(fig.Measured))
	}
	// Block "a": row 0, 0.5–2s after the trace origin.
	found := false
	for _, iv := range fig.Measured {
		if iv.Label == "a" {
			found = true
			if iv.Row != 0 || iv.Start != 0.5 || iv.End != 2 {
				t.Errorf("block a = %+v", iv)
			}
		}
	}
	if !found {
		t.Fatal("no measured block for task a")
	}
	// The overlay simulates the same three tasks on two workers.
	if len(fig.Simulated) != 3 {
		t.Fatalf("simulated blocks = %d", len(fig.Simulated))
	}
	// Queue depth: 3 enqueued at 0, two starts at 0.5, one at 2.5.
	wantDepth := []struct {
		t float64
		d int
	}{{0, 3}, {0.5, 1}, {2.5, 0}}
	if len(fig.Depth) != len(wantDepth) {
		t.Fatalf("depth = %+v", fig.Depth)
	}
	for i, w := range wantDepth {
		if fig.Depth[i].T != w.t || fig.Depth[i].Depth != w.d {
			t.Fatalf("depth[%d] = %+v, want %+v", i, fig.Depth[i], w)
		}
	}

	if _, err := TimelineFromStats(nil, "empty"); err == nil {
		t.Fatal("empty trace produced a figure")
	}
}

func TestWriteTimelineSVG(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTimelineSVG(&buf, fakeStats(), "DVU campaign"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "DVU campaign", "w0", "w1", "queue depth", "</svg>"} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Deterministic render.
	var again bytes.Buffer
	if err := WriteTimelineSVG(&again, fakeStats(), "DVU campaign"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two renders of the same trace differ")
	}
}

// TestTimelineUnplacedRowsNotSimulated: rows with no worker identity
// render on a synthetic "(unplaced)" row but must not grant the
// simulated overlay phantom parallelism.
func TestTimelineUnplacedRowsNotSimulated(t *testing.T) {
	t0 := time.Unix(1000, 0)
	rows := []exec.TaskStats{
		{TaskID: "a", WorkerID: "w0", Enqueue: t0, Start: t0, Finish: t0.Add(2 * time.Second)},
		{TaskID: "b", WorkerID: "", Enqueue: t0, Start: t0, Finish: t0.Add(2 * time.Second)},
		{TaskID: "c", WorkerID: "w0", Enqueue: t0, Start: t0.Add(2 * time.Second), Finish: t0.Add(4 * time.Second)},
	}
	fig, err := TimelineFromStats(rows, "unplaced")
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 2 { // "(unplaced)" + w0
		t.Fatalf("rows = %v", fig.Rows)
	}
	// One real worker: the 3 simulated tasks must run serially (total 6s
	// of work ⇒ last simulated end ≥ 6s), not in parallel on a phantom
	// second worker.
	maxEnd := 0.0
	for _, iv := range fig.Simulated {
		if iv.Row != 1 {
			t.Fatalf("simulated block on row %d, want only the real worker row: %+v", iv.Row, iv)
		}
		if iv.End > maxEnd {
			maxEnd = iv.End
		}
	}
	if maxEnd < 6 {
		t.Fatalf("simulated makespan %v implies phantom parallelism", maxEnd)
	}
}

// TestWriteTimelineFile: the CLIs' -stats/-timeline writer puts the CSV
// and the figure at their paths and the load-balance summary on the
// summary writer, skips an output whose path is empty, and fails on an
// uncreatable path or an empty trace.
func TestWriteTimelineFile(t *testing.T) {
	dir := t.TempDir()
	var summary bytes.Buffer
	if err := WriteTraceFiles(fakeStats(), dir+"/stats.csv", dir+"/timeline.svg", "file test", &summary); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/timeline.svg")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "</svg>") || !strings.Contains(string(data), "file test: 3 tasks, measured vs simulated") {
		t.Fatal("timeline file is not a complete, titled SVG")
	}
	csv, err := os.ReadFile(dir + "/stats.csv")
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(csv), "\n"); lines != 4 {
		t.Fatalf("stats CSV has %d lines, want header + 3 rows", lines)
	}
	if summary.Len() == 0 {
		t.Fatal("no load-balance summary written")
	}

	summary.Reset()
	if err := WriteTraceFiles(fakeStats(), "", dir+"/only.svg", "t", &summary); err != nil || summary.Len() != 0 {
		t.Fatalf("timeline only: err %v, summary %q", err, summary.String())
	}
	if err := WriteTraceFiles(fakeStats(), "", "", "t", &summary); err != nil {
		t.Fatalf("no outputs: %v", err)
	}
	if err := WriteTraceFiles(fakeStats(), "", dir+"/no/such/dir.svg", "t", &summary); err == nil {
		t.Fatal("uncreatable timeline path succeeded")
	}
	if err := WriteTraceFiles(fakeStats(), dir+"/no/such/dir.csv", "", "t", &summary); err == nil {
		t.Fatal("uncreatable stats path succeeded")
	}
	if err := WriteTraceFiles(nil, "", dir+"/empty.svg", "t", &summary); err == nil {
		t.Fatal("empty trace succeeded")
	}
}

// TestTimelineClockSkewClampsDepth: on a cross-host deployment the
// worker's Start stamp can precede the scheduler's Enqueue stamp; the
// depth series must clamp at zero instead of rendering negative.
func TestTimelineClockSkewClampsDepth(t *testing.T) {
	t0 := time.Unix(1000, 0)
	rows := []exec.TaskStats{
		// Worker clock 2s behind the scheduler: starts "before" enqueue.
		{TaskID: "a", WorkerID: "w0", Enqueue: t0.Add(2 * time.Second), Start: t0, Finish: t0.Add(time.Second)},
		{TaskID: "b", WorkerID: "w0", Enqueue: t0.Add(3 * time.Second), Start: t0.Add(4 * time.Second), Finish: t0.Add(5 * time.Second)},
	}
	fig, err := TimelineFromStats(rows, "skewed")
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range fig.Depth {
		if d.Depth < 0 {
			t.Fatalf("depth[%d] went negative: %+v", i, fig.Depth)
		}
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatalf("skewed figure failed to render: %v", err)
	}
}
