package main

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/flow"
)

// binPath is the proteomectl binary TestMain builds once for the
// subprocess end-to-end tests; buildErr records a failed build without
// blocking the in-process unit tests.
var (
	binPath  string
	buildErr error
)

func TestMain(m *testing.M) {
	os.Exit(testMain(m))
}

func testMain(m *testing.M) int {
	flag.Parse()
	if testing.Short() {
		// Every binPath consumer skips under -short; don't pay the build.
		return m.Run()
	}
	dir, err := os.MkdirTemp("", "proteomectl-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e: tempdir:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	binPath = filepath.Join(dir, "proteomectl")
	// Build the subprocess binary with the race detector whenever the
	// harness has it, so the scheduler/worker/submit processes — where all
	// the interesting concurrency runs — are race-checked too.
	buildArgs := []string{"build"}
	if raceEnabled {
		buildArgs = append(buildArgs, "-race")
	}
	buildArgs = append(buildArgs, "-o", binPath, ".")
	cmd := osexec.Command("go", buildArgs...)
	if out, err := cmd.CombinedOutput(); err != nil {
		buildErr = fmt.Errorf("building proteomectl: %v\n%s", err, out)
	}
	return m.Run()
}

// e2eCluster spawns a real scheduler process and n worker processes
// connected through a scheduler file, returning the file path. All
// processes are killed at test cleanup.
func e2eCluster(t *testing.T, n int) string {
	return e2eClusterArgs(t, n)
}

// e2eClusterArgs is e2eCluster with extra scheduler flags (e.g.
// -event-log for the observability tests).
func e2eClusterArgs(t *testing.T, n int, schedArgs ...string) string {
	t.Helper()
	return e2eClusterFull(t, n, nil, schedArgs...)
}

// e2eClusterFull additionally passes extra flags to every worker — e.g.
// a fast -heartbeat so a small scheduler -heartbeat-timeout doesn't
// false-reap healthy workers in the fault-injection tests.
func e2eClusterFull(t *testing.T, n int, workerArgs []string, schedArgs ...string) string {
	t.Helper()
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	dir := t.TempDir()
	schedFile := filepath.Join(dir, "sched.json")

	spawn := func(name string, args ...string) {
		t.Helper()
		cmd := osexec.Command(binPath, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", name, err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
	}

	spawn("scheduler", append([]string{"sched", "-listen", "127.0.0.1:0", "-scheduler-file", schedFile}, schedArgs...)...)

	// The scheduler file appears once the scheduler is listening.
	deadline := time.Now().Add(10 * time.Second)
	for {
		data, err := os.ReadFile(schedFile)
		if err == nil {
			if _, err := flow.ParseSchedulerFile(data); err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("scheduler file %s not written in time", schedFile)
		}
		time.Sleep(20 * time.Millisecond)
	}

	for i := 0; i < n; i++ {
		args := []string{"worker", "-scheduler-file", schedFile, "-id", fmt.Sprintf("e2e-w%d", i)}
		spawn("worker", append(args, workerArgs...)...)
	}
	return schedFile
}

// waitEvent polls a scheduler's -event-log until it holds an event match
// accepts, so a test can order its next step after something the
// scheduler has seen rather than after a guessed sleep.
func waitEvent(t *testing.T, path string, match func(events.Event) bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		data, _ := os.ReadFile(path)
		logged, _ := events.ReadLog(bytes.NewReader(data)) // a torn last record keeps the prefix
		for _, e := range logged {
			if match(e) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no awaited event in %s in time", path)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// wireFrame lays out a register or subscribe frame by hand, as the wire
// carries it: a 4-byte big-endian body length, then the envelope's
// fields in order — the type and worker ID as length-prefixed strings,
// then no tasks, no results, no event, count 0, no campaign, no gauges.
func wireFrame(typ, workerID string) []byte {
	var body []byte
	for _, s := range []string{typ, workerID} {
		body = binary.AppendUvarint(body, uint64(len(s)))
		body = append(body, s...)
	}
	body = append(body, 0, 0, 0, 0, 0, 0)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// run invokes the built proteomectl binary and returns its stdout.
func runBin(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := osexec.Command(binPath, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("proteomectl %v: %v", args, err)
	}
	return out
}

// TestCampaignMultiProcess is the deployment acceptance test: a campaign
// run across separate scheduler and worker OS processes — every stage
// shipped to the workers as named-job specs, nothing computed in the
// client but the dataflow simulation — must produce a report
// byte-identical to the in-process pool executor.
func TestCampaignMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	schedFile := e2eCluster(t, 3)

	campaign := []string{"-species", "DVU", "-preset", "genome", "-limit", "220", "-seed", "20220125"}

	remote := runBin(t, append([]string{"submit", "-scheduler-file", schedFile}, campaign...)...)
	pool := runBin(t, append([]string{"run"}, campaign...)...)

	if len(remote) == 0 {
		t.Fatal("multi-process campaign produced no report")
	}
	if string(remote) != string(pool) {
		t.Errorf("multi-process report differs from pool executor:\n--- multi-process ---\n%s--- pool ---\n%s", remote, pool)
	}
}

// TestCampaignBatchedMonitorJSONL: a campaign on a scheduler fixed at
// four tasks per handout (-batch 4), over workers started with the -wire
// flag scripts pass, must produce a report byte-identical to the
// in-process pool executor, with a `monitor -json` attached throughout
// whose output replays as an event stream.
func TestCampaignBatchedMonitorJSONL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	schedFile := e2eClusterFull(t, 3, []string{"-wire", "binary"}, "-batch", "4")

	// A JSONL monitor rides along for the whole test: a read-only peer
	// must coexist with batched dispatch traffic.
	mon := osexec.Command(binPath, "monitor", "-scheduler-file", schedFile, "-json")
	var monOut bytes.Buffer
	mon.Stdout = &monOut
	mon.Stderr = os.Stderr
	if err := mon.Start(); err != nil {
		t.Fatalf("starting monitor: %v", err)
	}
	t.Cleanup(func() {
		_ = mon.Process.Kill()
		_ = mon.Wait()
	})

	campaign := []string{"-species", "DVU", "-preset", "genome", "-limit", "180", "-seed", "20220125"}

	remote := runBin(t, append([]string{"submit", "-scheduler-file", schedFile}, campaign...)...)
	pool := runBin(t, append([]string{"run"}, campaign...)...)

	if len(remote) == 0 {
		t.Fatal("batched campaign produced no report")
	}
	if string(remote) != string(pool) {
		t.Errorf("submit over the batch-4 fleet differs from pool executor:\n--- submit ---\n%s--- pool ---\n%s", remote, pool)
	}

	// The monitor saw real traffic, decoded cleanly, and its JSONL output
	// replays as a valid event stream covering the campaign's tasks.
	// (A short drain, then the kill may tear the final line mid-write —
	// ReadLog's intact prefix is what the assertion runs against.)
	time.Sleep(300 * time.Millisecond)
	_ = mon.Process.Kill()
	// Cmd.Wait (not Process.Wait): it joins the goroutine copying the
	// monitor's stdout into monOut before we read the buffer.
	_ = mon.Wait()
	seen, err := events.ReadLog(bytes.NewReader(monOut.Bytes()))
	if err != nil && len(seen) == 0 {
		t.Fatalf("monitor JSONL does not replay as an event stream: %v", err)
	}
	doneTasks := 0
	for _, e := range seen {
		if e.Type == events.TaskDone {
			doneTasks++
		}
	}
	if doneTasks == 0 {
		t.Error("monitor observed no completed tasks on the batched fleet")
	}
}

// TestCampaignDefaultFlags is the documented deployment as an operator
// types it — no -batch and no -wire anywhere, so handouts size
// themselves — with two workers. Both must serve the campaign, and the
// report must be byte-identical to `proteomectl run`.
func TestCampaignDefaultFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	schedFile := e2eCluster(t, 2)

	// Every wave opens with one task to each free worker, so both serve
	// provided both have joined when submit starts.
	mon, err := flow.DialMonitor(flow.DialOptions{SchedulerFile: schedFile, Retry: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for joined := 0; joined < 2; {
		e, err := mon.Next()
		if err != nil {
			t.Fatalf("waiting for the workers to join: %v", err)
		}
		if e.Type == events.WorkerJoin {
			joined++
		}
	}
	mon.Close()

	campaign := []string{"-species", "DVU", "-preset", "genome", "-limit", "180", "-seed", "20220125"}
	stats := filepath.Join(t.TempDir(), "stats.csv")
	remote := runBin(t, append([]string{"submit", "-scheduler-file", schedFile, "-stats", stats}, campaign...)...)
	local := runBin(t, append([]string{"run"}, campaign...)...)
	if len(remote) == 0 {
		t.Fatal("campaign produced no report")
	}
	if string(remote) != string(local) {
		t.Errorf("default submit differs from run:\n--- submit ---\n%s--- run ---\n%s", remote, local)
	}

	header, rows := readStatsCSV(t, stats)
	col := statsColumn(t, header, "worker_id")
	served := map[string]int{}
	for _, row := range rows {
		served[row[col]]++
	}
	if len(served) != 2 || served["e2e-w0"] == 0 || served["e2e-w1"] == 0 {
		t.Errorf("tasks served per worker = %v, want both e2e-w0 and e2e-w1", served)
	}
}

// readStatsCSV parses a processing-times CSV written by -stats and
// returns the header and rows.
func readStatsCSV(t *testing.T, path string) ([]string, [][]string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("opening stats CSV: %v", err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("parsing stats CSV: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("stats CSV is empty")
	}
	return recs[0], recs[1:]
}

// statsColumn returns the index of a column in the stats header.
func statsColumn(t *testing.T, header []string, name string) int {
	t.Helper()
	for i, h := range header {
		if h == name {
			return i
		}
	}
	t.Fatalf("stats CSV has no %q column (header %v)", name, header)
	return -1
}

// TestSubmitElasticWorkerJoin is the elastic scale-up half of the
// deployment contract: a worker that joins mid-campaign picks up queued
// tasks (visible in the processing-times CSV) and the report stays
// byte-identical to the pool executor — placement can never leak into a
// reported number.
func TestSubmitElasticWorkerJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	// Start with a single worker and the whole of D. vulgaris (3,205
	// targets, several hundred ms on one worker) so the queue stays deep
	// while the late worker registers.
	dir := t.TempDir()
	eventLog := filepath.Join(dir, "events.jsonl")
	schedFile := e2eClusterArgs(t, 1, "-event-log", eventLog)
	statsFile := filepath.Join(dir, "tasks.csv")

	const targets = 3205
	campaign := []string{"-species", "DVU", "-preset", "genome", "-limit", strconv.Itoa(targets), "-seed", "20220125"}

	submit := osexec.Command(binPath,
		append([]string{"submit", "-scheduler-file", schedFile, "-stats", statsFile}, campaign...)...)
	submit.Stderr = os.Stderr
	var submitOut bytes.Buffer
	submit.Stdout = &submitOut
	if err := submit.Start(); err != nil {
		t.Fatalf("starting submit: %v", err)
	}

	// Elastic scale-up: a second worker joins once the scheduler has
	// received the campaign's first task, while the rest is still queued.
	waitEvent(t, eventLog, func(e events.Event) bool { return e.Type == events.TaskReceived })
	late := osexec.Command(binPath, "worker", "-scheduler-file", schedFile, "-id", "e2e-late")
	late.Stdout = os.Stderr
	late.Stderr = os.Stderr
	if err := late.Start(); err != nil {
		t.Fatalf("starting late worker: %v", err)
	}
	t.Cleanup(func() {
		_ = late.Process.Kill()
		_, _ = late.Process.Wait()
	})

	if err := submit.Wait(); err != nil {
		t.Fatalf("submit: %v", err)
	}
	pool := runBin(t, append([]string{"run"}, campaign...)...)
	if submitOut.String() != string(pool) {
		t.Errorf("report with elastic worker join differs from pool executor:\n--- elastic ---\n%s--- pool ---\n%s",
			submitOut.String(), pool)
	}

	header, rows := readStatsCSV(t, statsFile)
	// One row per task across all three stages: a feature task per
	// target plus 5 (target, model) inference slots, plus one relax task
	// per completed target (and any high-memory retries).
	if len(rows) < targets+targets*5 {
		t.Errorf("stats CSV has %d rows, want at least %d (one per task)", len(rows), targets+targets*5)
	}
	wcol := statsColumn(t, header, "worker_id")
	perWorker := map[string]int{}
	for _, row := range rows {
		perWorker[row[wcol]]++
	}
	if perWorker["e2e-late"] == 0 {
		t.Errorf("late-joining worker absent from the stats CSV; placements: %v", perWorker)
	}
	if perWorker["e2e-w0"] == 0 {
		t.Errorf("original worker absent from the stats CSV; placements: %v", perWorker)
	}
}

// TestCampaignMultiSpecies runs two different species through one shared
// multi-process cluster back to back — the workers rebuild each campaign
// world on demand — and requires every report to stay byte-identical to
// the pool executor.
func TestCampaignMultiSpecies(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	schedFile := e2eCluster(t, 3)

	for _, species := range []string{"PMER", "RRU"} {
		campaign := []string{"-species", species, "-preset", "reduced_dbs", "-limit", "120", "-seed", "20220125"}
		remote := runBin(t, append([]string{"submit", "-scheduler-file", schedFile}, campaign...)...)
		pool := runBin(t, append([]string{"run"}, campaign...)...)
		if string(remote) != string(pool) {
			t.Errorf("%s: multi-process report differs from pool executor:\n--- multi-process ---\n%s--- pool ---\n%s",
				species, remote, pool)
		}
	}
}

// TestMonitorMidCampaign is the observability acceptance test across
// real processes: a campaign on a scheduler with `-event-log` must be
// fully reconstructable offline (the log's task set matches the -stats
// CSV exactly, replays to busy intervals and queue depth, and renders
// the measured-vs-simulated timeline figure), a `monitor -json` client
// attaching mid-campaign must observe the same event sequence as the
// persisted log (backlog + live), and monitoring must not perturb the
// run — the report stays byte-identical to a monitor-free submit and to
// the pool executor.
func TestMonitorMidCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	dir := t.TempDir()
	eventLog := filepath.Join(dir, "events.jsonl")
	schedFile := e2eClusterArgs(t, 2, "-event-log", eventLog)
	statsFile := filepath.Join(dir, "tasks.csv")
	monitorFile := filepath.Join(dir, "monitor.jsonl")

	campaign := []string{"-species", "DVU", "-preset", "genome", "-limit", "150", "-seed", "20220125"}

	// Baseline: a monitor-free submit on the same cluster. Its events
	// land in the shared log too — and the campaigns are identical, so
	// task labels repeat. Snapshot the baseline's last sequence number
	// so every scheduler-record assertion below is made against the
	// monitored run's own events, not satisfied by baseline leftovers.
	plain := runBin(t, append([]string{"submit", "-scheduler-file", schedFile}, campaign...)...)
	baseData, err := os.ReadFile(eventLog)
	if err != nil {
		t.Fatal(err)
	}
	baseEvents, err := events.ReadLog(bytes.NewReader(baseData))
	if err != nil {
		t.Fatalf("decoding baseline event log: %v", err)
	}
	if len(baseEvents) == 0 {
		t.Fatal("baseline campaign left no events in the log")
	}
	baseSeq := baseEvents[len(baseEvents)-1].Seq

	// Monitored run: the submit starts first, the monitor attaches while
	// the campaign is in flight (the binary takes longer than this to
	// build its world, so the attach lands mid-campaign).
	submit := osexec.Command(binPath,
		append([]string{"submit", "-scheduler-file", schedFile, "-stats", statsFile}, campaign...)...)
	submit.Stderr = os.Stderr
	var submitOut bytes.Buffer
	submit.Stdout = &submitOut
	if err := submit.Start(); err != nil {
		t.Fatalf("starting submit: %v", err)
	}
	time.Sleep(100 * time.Millisecond)

	monOut, err := os.Create(monitorFile)
	if err != nil {
		t.Fatal(err)
	}
	defer monOut.Close()
	mon := osexec.Command(binPath, "monitor", "-scheduler-file", schedFile, "-json")
	mon.Stdout = monOut
	mon.Stderr = os.Stderr
	if err := mon.Start(); err != nil {
		t.Fatalf("starting monitor: %v", err)
	}
	t.Cleanup(func() {
		_ = mon.Process.Kill()
		_, _ = mon.Process.Wait()
	})

	if err := submit.Wait(); err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Attaching a monitor never perturbs the campaign: byte-identical to
	// the monitor-free submit and to the pool executor.
	if submitOut.String() != string(plain) {
		t.Errorf("monitored report differs from monitor-free submit:\n--- monitored ---\n%s--- plain ---\n%s",
			submitOut.String(), plain)
	}
	pool := runBin(t, append([]string{"run"}, campaign...)...)
	if submitOut.String() != string(pool) {
		t.Errorf("monitored report differs from pool executor:\n--- monitored ---\n%s--- pool ---\n%s",
			submitOut.String(), pool)
	}

	// The event log's completed-task set for the monitored run (events
	// past the baseline's last sequence number) must exactly match the
	// stats CSV's task set — the scheduler-side record and the
	// client-side trace agree on what ran.
	header, rows := readStatsCSV(t, statsFile)
	idCol := statsColumn(t, header, "task_id")
	csvTasks := map[string]bool{}
	for _, row := range rows {
		csvTasks[row[idCol]] = true
	}
	logData, err := os.ReadFile(eventLog)
	if err != nil {
		t.Fatal(err)
	}
	logged, err := events.ReadLog(bytes.NewReader(logData))
	if err != nil {
		t.Fatalf("decoding event log: %v", err)
	}
	logTasks := map[string]bool{}
	for _, e := range logged {
		if e.Seq > baseSeq && (e.Type == events.TaskDone || e.Type == events.TaskFailed) {
			logTasks[e.Task] = true
		}
	}
	for id := range csvTasks {
		if !logTasks[id] {
			t.Errorf("task %s in the stats CSV but never completed in the event log", id)
		}
	}
	for id := range logTasks {
		if !csvTasks[id] {
			t.Errorf("task %s completed in the event log but absent from the stats CSV", id)
		}
	}

	// Offline reconstruction: the log alone replays to per-worker busy
	// intervals and queue depth. The monitored run's delta alone must
	// account for one busy interval per CSV row — the full-log replay
	// would also be satisfied by baseline events.
	var delta []events.Event
	for _, e := range logged {
		if e.Seq > baseSeq {
			delta = append(delta, e)
		}
	}
	deltaRep, err := events.ReplayEvents(delta)
	if err != nil {
		t.Fatalf("replaying monitored-run events: %v", err)
	}
	if len(deltaRep.Intervals) < len(rows) {
		t.Errorf("monitored run replayed to %d busy intervals, want >= %d (one per CSV row)", len(deltaRep.Intervals), len(rows))
	}
	maxDepth := 0
	for _, d := range deltaRep.Depth {
		maxDepth = max(maxDepth, d.Depth)
	}
	if maxDepth == 0 {
		t.Error("monitored run observed no queue depth on a 2-worker campaign")
	}
	rep, err := events.ReplayEvents(logged)
	if err != nil {
		t.Fatalf("replaying event log: %v", err)
	}
	if len(rep.Workers()) != 2 {
		t.Errorf("replay workers = %v, want the 2 e2e workers", rep.Workers())
	}

	// The monitor observed the same event sequence as the persisted log:
	// its raw JSONL output is a prefix of the log (backlog + live), and
	// it caught every completion. Poll until the monitor's writer has
	// drained, then stop it.
	deadline := time.Now().Add(30 * time.Second)
	var monLines []string
	for {
		data, err := os.ReadFile(monitorFile)
		if err == nil {
			monLines = strings.Split(strings.TrimRight(string(data), "\n"), "\n")
			monTasks := map[string]bool{}
			if evs, err := events.ReadLog(bytes.NewReader(data)); err == nil {
				for _, e := range evs {
					// Only the monitored run's completions count: the
					// backlog replays the baseline's identical labels.
					if e.Seq > baseSeq && (e.Type == events.TaskDone || e.Type == events.TaskFailed) {
						monTasks[e.Task] = true
					}
				}
				complete := true
				for id := range csvTasks {
					if !monTasks[id] {
						complete = false
						break
					}
				}
				if complete {
					break
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("monitor did not observe every completion in time")
		}
		time.Sleep(50 * time.Millisecond)
	}
	_ = mon.Process.Kill()
	_, _ = mon.Process.Wait()

	logLines := strings.Split(strings.TrimRight(string(logData), "\n"), "\n")
	if len(monLines) > len(logLines) {
		t.Fatalf("monitor printed %d events, log has %d", len(monLines), len(logLines))
	}
	for i, line := range monLines {
		if line != logLines[i] {
			t.Fatalf("monitor event %d differs from the persisted log:\nmonitor: %s\nlog:     %s", i, line, logLines[i])
		}
	}
}

// TestResumeAfterSchedulerKill is the crash-recovery acceptance test: a
// scheduler killed mid-campaign loses nothing that matters. Its event log
// survives; a restarted scheduler (-resume-log) continues the stream; a
// resumed submit (-resume) reads back from the log the result of every
// task the interrupted run finished, dispatching none of them, and
// produces a report byte-identical to an uninterrupted run while strictly
// fewer tasks cross the wire.
func TestResumeAfterSchedulerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	campaign := []string{"-species", "DVU", "-preset", "genome", "-limit", "300", "-seed", "20220125"}

	// Phase A — references from an undisturbed world: the pool executor's
	// report, and a full uninterrupted submit's stats CSV on its own
	// cluster (the killed submit never writes one).
	pool := runBin(t, append([]string{"run"}, campaign...)...)
	refSched := e2eCluster(t, 2)
	fullCSV := filepath.Join(filepath.Dir(refSched), "full.csv")
	full := runBin(t, append([]string{"submit", "-scheduler-file", refSched, "-stats", fullCSV}, campaign...)...)
	if string(full) != string(pool) {
		t.Fatalf("uninterrupted submit differs from pool executor:\n--- submit ---\n%s--- pool ---\n%s", full, pool)
	}

	// Phase B — the doomed cluster: scheduler with an event log, two
	// workers, a submit in flight. All hand-rolled so the scheduler can be
	// killed at a moment of our choosing.
	dir := t.TempDir()
	schedFile := filepath.Join(dir, "sched.json")
	eventLog := filepath.Join(dir, "events.jsonl")
	resumeLog := filepath.Join(dir, "resume.jsonl")
	resumedCSV := filepath.Join(dir, "resumed.csv")

	spawn := func(name string, args ...string) *osexec.Cmd {
		t.Helper()
		cmd := osexec.Command(binPath, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", name, err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
		return cmd
	}
	waitSchedFile := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if data, err := os.ReadFile(schedFile); err == nil {
				if _, err := flow.ParseSchedulerFile(data); err == nil {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("scheduler file %s not written in time", schedFile)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	sched := spawn("scheduler", "sched", "-listen", "127.0.0.1:0",
		"-scheduler-file", schedFile, "-event-log", eventLog)
	waitSchedFile()
	spawn("worker", "worker", "-scheduler-file", schedFile, "-id", "e2e-b0")
	spawn("worker", "worker", "-scheduler-file", schedFile, "-id", "e2e-b1")

	submit := osexec.Command(binPath,
		append([]string{"submit", "-scheduler-file", schedFile}, campaign...)...)
	submit.Stdout = os.Stderr
	submit.Stderr = os.Stderr
	if err := submit.Start(); err != nil {
		t.Fatalf("starting submit: %v", err)
	}
	submitDone := make(chan error, 1)
	go func() { submitDone <- submit.Wait(); close(submitDone) }()
	t.Cleanup(func() { _ = submit.Process.Kill(); <-submitDone })

	// Kill the scheduler once real progress is on disk but the campaign
	// is far from finished (~20 of the 2100 tasks).
	deadline := time.Now().Add(60 * time.Second)
	for {
		data, _ := os.ReadFile(eventLog)
		if bytes.Count(data, []byte(`"type":"done"`)) >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign made no progress before the kill window")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = sched.Process.Kill()
	_, _ = sched.Process.Wait()
	// The orphaned submit exits on its own (lost connection); either exit
	// status is acceptable — the resume contract is what matters.
	select {
	case <-submitDone:
	case <-time.After(60 * time.Second):
		t.Fatal("killed-scheduler submit did not exit")
	}

	// Snapshot the log before the restarted scheduler rewrites it in
	// place: this frozen copy is what the resumed submit replays.
	logData, err := os.ReadFile(eventLog)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(resumeLog, logData, 0o644); err != nil {
		t.Fatal(err)
	}
	completed, err := events.CompletedFromLog(bytes.NewReader(logData))
	if err != nil {
		t.Fatalf("reading the crashed scheduler's log: %v", err)
	}
	if len(completed) == 0 {
		t.Fatal("crashed run completed no tasks; the kill landed too early")
	}
	prefix, _ := events.ReadLog(bytes.NewReader(logData))

	// Phase C — recovery: a fresh scheduler resumes the event stream from
	// its own log, fresh workers join, and the submit resumes from the
	// snapshot.
	if err := os.Remove(schedFile); err != nil {
		t.Fatal(err)
	}
	spawn("restarted scheduler", "sched", "-listen", "127.0.0.1:0",
		"-scheduler-file", schedFile, "-event-log", eventLog, "-resume-log")
	waitSchedFile()
	spawn("worker", "worker", "-scheduler-file", schedFile, "-id", "e2e-c0")
	spawn("worker", "worker", "-scheduler-file", schedFile, "-id", "e2e-c1")

	resumed := runBin(t, append([]string{"submit", "-scheduler-file", schedFile,
		"-resume", resumeLog, "-stats", resumedCSV}, campaign...)...)

	// The resumed report is byte-identical to the uninterrupted run.
	if string(resumed) != string(pool) {
		t.Errorf("resumed report differs from pool executor:\n--- resumed ---\n%s--- pool ---\n%s", resumed, pool)
	}

	// Strictly fewer tasks crossed the wire.
	_, fullRows := readStatsCSV(t, fullCSV)
	_, resRows := readStatsCSV(t, resumedCSV)
	if len(resRows) >= len(fullRows) {
		t.Errorf("resumed run dispatched %d tasks, want strictly fewer than the full run's %d", len(resRows), len(fullRows))
	}
	if len(resRows) == 0 {
		t.Error("resumed run dispatched nothing; the crashed run had already finished")
	}
	t.Logf("resume: %d tasks completed pre-crash, %d of %d re-dispatched",
		len(completed), len(resRows), len(fullRows))

	// The restarted scheduler's log is one continuous, replayable stream:
	// the crashed run's intact prefix plus everything the resumed
	// campaign appended, with strictly increasing sequence numbers.
	finalData, err := os.ReadFile(eventLog)
	if err != nil {
		t.Fatal(err)
	}
	finalEvents, err := events.ReadLog(bytes.NewReader(finalData))
	if err != nil {
		t.Fatalf("decoding the restarted scheduler's log: %v", err)
	}
	if len(finalEvents) <= len(prefix) {
		t.Errorf("final log has %d events; expected the crashed prefix plus the resumed campaign", len(finalEvents))
	}
	// None of the dispatched tasks was one the crashed run finished: every
	// task the resumed submit sent was received after the restored prefix,
	// carrying its spec, and no such spec has a result in the crashed log.
	for _, e := range finalEvents[min(len(prefix), len(finalEvents)):] {
		if _, ok := completed[string(e.Payload)]; ok && e.Type == events.TaskReceived {
			t.Errorf("task %s was completed before the crash but re-dispatched on resume", e.Task)
		}
	}
	if _, err := events.ReplayEvents(finalEvents); err != nil {
		t.Fatalf("replaying the stitched log across the restart: %v", err)
	}
}

// TestSubmitSurvivesWorkerChurn kills one worker mid-campaign: the
// scheduler requeues its in-flight task and the remaining workers finish
// the batch with the identical report — the fault-tolerance half of the
// deployment contract.
func TestSubmitSurvivesWorkerChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	schedFile := e2eCluster(t, 2)

	// An extra worker that dies shortly after the campaign starts.
	churn := osexec.Command(binPath, "worker", "-scheduler-file", schedFile, "-id", "e2e-churn")
	churn.Stdout = os.Stderr
	churn.Stderr = os.Stderr
	if err := churn.Start(); err != nil {
		t.Fatalf("starting churn worker: %v", err)
	}
	go func() {
		time.Sleep(150 * time.Millisecond)
		_ = churn.Process.Kill()
	}()
	t.Cleanup(func() {
		_ = churn.Process.Kill()
		_, _ = churn.Process.Wait()
	})

	campaign := []string{"-species", "DVU", "-preset", "reduced_dbs", "-limit", "150", "-seed", "7"}
	remote := runBin(t, append([]string{"submit", "-scheduler-file", schedFile}, campaign...)...)
	pool := runBin(t, append([]string{"run"}, campaign...)...)
	if string(remote) != string(pool) {
		t.Errorf("report after worker churn differs from pool executor:\n--- multi-process ---\n%s--- pool ---\n%s", remote, pool)
	}
}

// TestSlowPeerFaultInjection is the non-blocking-I/O acceptance test
// across real processes: while a campaign is in flight, a raw "worker"
// registers and then never reads its socket, and a raw monitor
// subscribes and never drains its event stream. The scheduler must
// declare the wedged worker dead (heartbeat silence and/or a blocked
// write), requeue anything handed to it, keep the event stream flowing
// past the wedged monitor, and finish the campaign with a report
// byte-identical to the in-process pool executor. Before per-connection
// outbound queues, a single such peer could park the dispatch loop on a
// blocking send and stall the whole fleet.
func TestSlowPeerFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	dir := t.TempDir()
	eventLog := filepath.Join(dir, "events.jsonl")
	// Healthy workers beat at a quarter of the reap deadline so only the
	// silent wedge trips it; -write-timeout caps how long the scheduler
	// tolerates the monitor's never-drained socket.
	schedFile := e2eClusterFull(t, 2, []string{"-heartbeat", "500ms"},
		"-event-log", eventLog, "-heartbeat-timeout", "2s", "-write-timeout", "2s")
	sfData, err := os.ReadFile(schedFile)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := flow.ParseSchedulerFile(sfData)
	if err != nil {
		t.Fatal(err)
	}

	campaign := []string{"-species", "DVU", "-preset", "reduced_dbs", "-limit", "150", "-seed", "7"}

	// Attach the wedges before the submit starts, so they are live peers
	// when dispatch starts: the wire hello and one frame each, then radio
	// silence with a shrunken receive buffer (anything the scheduler
	// writes blocks quickly instead of vanishing into kernel buffering).
	wedge := func(frame []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", sf.Address)
		if err != nil {
			t.Fatal(err)
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetReadBuffer(4 << 10)
		}
		t.Cleanup(func() { conn.Close() })
		if _, err := conn.Write(append([]byte("flow-wire binary 6\n"), frame...)); err != nil {
			t.Fatal(err)
		}
	}
	wedge(wireFrame("register", "e2e-wedged"))
	wedge(wireFrame("subscribe", ""))
	waitEvent(t, eventLog, func(e events.Event) bool {
		return e.Type == events.WorkerJoin && e.Worker == "e2e-wedged"
	})

	submit := osexec.Command(binPath,
		append([]string{"submit", "-scheduler-file", schedFile}, campaign...)...)
	var submitOut bytes.Buffer
	submit.Stdout = &submitOut
	submit.Stderr = os.Stderr
	if err := submit.Start(); err != nil {
		t.Fatalf("starting submit: %v", err)
	}
	t.Cleanup(func() {
		_ = submit.Process.Kill()
		_, _ = submit.Process.Wait()
	})

	if err := submit.Wait(); err != nil {
		t.Fatalf("submit with wedged peers attached: %v", err)
	}
	pool := runBin(t, append([]string{"run"}, campaign...)...)
	if submitOut.String() != string(pool) {
		t.Errorf("report with wedged peers differs from pool executor:\n--- wedged ---\n%s--- pool ---\n%s",
			submitOut.String(), pool)
	}

	// The scheduler recorded the wedge's death — it joined, was declared
	// lost or gone, and the healthy workers did every completion.
	logData, err := os.ReadFile(eventLog)
	if err != nil {
		t.Fatal(err)
	}
	logged, err := events.ReadLog(bytes.NewReader(logData))
	if err != nil {
		t.Fatalf("decoding event log: %v", err)
	}
	joined, reaped := false, false
	for _, e := range logged {
		if e.Worker == "e2e-wedged" {
			switch e.Type {
			case events.WorkerJoin:
				joined = true
			case events.WorkerLost, events.WorkerLeave:
				reaped = true
			case events.TaskDone:
				t.Errorf("task %s reported done by the wedged worker", e.Task)
			}
		}
	}
	if !joined {
		t.Error("wedged worker never joined; the fault was not injected")
	}
	if !reaped {
		t.Error("wedged worker was never declared dead")
	}
}

// TestTwoCampaignsFairShare is the multi-tenancy acceptance test: two
// campaigns submitted concurrently to one fair-share scheduler (`sched
// -policy fair`, `submit -campaign`) must each print a report
// byte-identical to its solo run on the same cluster, the event log must
// attribute every task transition to its campaign, and the two campaigns'
// completion windows must overlap — the second tenant starts finishing
// tasks while the first still has backlog, so neither starves.
func TestTwoCampaignsFairShare(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	dir := t.TempDir()
	eventLog := filepath.Join(dir, "events.jsonl")
	statsFile := filepath.Join(dir, "dvu.csv")

	dvu := []string{"-species", "DVU", "-preset", "genome", "-limit", "150", "-seed", "20220125", "-campaign", "dvu-full"}
	rru := []string{"-species", "RRU", "-preset", "genome", "-limit", "150", "-seed", "20220125", "-campaign", "rru-pilot"}

	// Solo references: each campaign alone on a fair-share cluster.
	// Sharing the fleet may change timings, but never a reported number.
	soloFile := e2eClusterArgs(t, 2, "-policy", "fair")
	soloDVU := runBin(t, append([]string{"submit", "-scheduler-file", soloFile}, dvu...)...)
	soloRRU := runBin(t, append([]string{"submit", "-scheduler-file", soloFile}, rru...)...)

	// The contested run: both campaigns in flight on one shared fleet at
	// once. The fleet joins only after both campaigns have tasks queued, so
	// the overlap checked below is the policy's doing, not a matter of
	// which submit finished building its world first.
	schedFile := e2eClusterArgs(t, 0, "-policy", "fair", "-event-log", eventLog)
	launch := func(args []string) (*osexec.Cmd, *bytes.Buffer) {
		t.Helper()
		cmd := osexec.Command(binPath, args...)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %v: %v", args, err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
		return cmd, &out
	}
	subDVU, outDVU := launch(append([]string{"submit", "-scheduler-file", schedFile, "-stats", statsFile}, dvu...))
	subRRU, outRRU := launch(append([]string{"submit", "-scheduler-file", schedFile}, rru...))
	mon, err := flow.DialMonitor(flow.DialOptions{SchedulerFile: schedFile, Retry: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	mon.ReadTimeout = time.Minute
	queued := map[string]bool{}
	for len(queued) < 2 {
		e, err := mon.Next()
		if err != nil {
			t.Fatalf("waiting for both campaigns to queue work: %v", err)
		}
		if e.Type == events.TaskQueued {
			queued[e.Campaign] = true
		}
	}
	mon.Close()
	for i := 0; i < 2; i++ {
		w := osexec.Command(binPath, "worker", "-scheduler-file", schedFile, "-id", fmt.Sprintf("e2e-w%d", i))
		w.Stdout = os.Stderr
		w.Stderr = os.Stderr
		if err := w.Start(); err != nil {
			t.Fatalf("starting worker: %v", err)
		}
		t.Cleanup(func() {
			_ = w.Process.Kill()
			_, _ = w.Process.Wait()
		})
	}
	if err := subDVU.Wait(); err != nil {
		t.Fatalf("DVU submit: %v", err)
	}
	if err := subRRU.Wait(); err != nil {
		t.Fatalf("RRU submit: %v", err)
	}

	// Contention is invisible in the reports: byte-identical to the solo
	// runs.
	if outDVU.String() != string(soloDVU) {
		t.Errorf("contested DVU report differs from its solo run:\n--- contested ---\n%s--- solo ---\n%s",
			outDVU.String(), soloDVU)
	}
	if outRRU.String() != string(soloRRU) {
		t.Errorf("contested RRU report differs from its solo run:\n--- contested ---\n%s--- solo ---\n%s",
			outRRU.String(), soloRRU)
	}

	// The event log attributes the contested run's transitions per
	// campaign, and the two completion windows overlap: each campaign
	// finishes its first task before the other finishes its last — the
	// no-starvation evidence a FIFO queue cannot produce when one backlog
	// monopolizes the fleet.
	logData, err := os.ReadFile(eventLog)
	if err != nil {
		t.Fatal(err)
	}
	logged, err := events.ReadLog(bytes.NewReader(logData))
	if err != nil {
		t.Fatalf("decoding event log: %v", err)
	}
	type window struct {
		firstDone, lastDone uint64
		done                int
	}
	windows := map[string]*window{}
	for _, e := range logged {
		if e.Type != events.TaskDone {
			continue
		}
		w := windows[e.Campaign]
		if w == nil {
			w = &window{firstDone: e.Seq}
			windows[e.Campaign] = w
		}
		w.lastDone = e.Seq
		w.done++
	}
	dvuWin, rruWin := windows["dvu-full"], windows["rru-pilot"]
	if dvuWin == nil || rruWin == nil {
		t.Fatalf("event log lacks campaign attribution: windows = %v", windows)
	}
	if unattributed := windows[""]; unattributed != nil {
		t.Errorf("%d contested-run completions carry no campaign", unattributed.done)
	}
	if dvuWin.done != rruWin.done {
		t.Logf("completions: dvu-full %d, rru-pilot %d", dvuWin.done, rruWin.done)
	}
	if dvuWin.firstDone > rruWin.lastDone || rruWin.firstDone > dvuWin.lastDone {
		t.Errorf("campaign completion windows do not overlap (dvu [%d,%d], rru [%d,%d]): one tenant starved",
			dvuWin.firstDone, dvuWin.lastDone, rruWin.firstDone, rruWin.lastDone)
	}

	// The client-side trace carries the campaign too: every stats CSV row
	// of the DVU submit is stamped dvu-full.
	header, rows := readStatsCSV(t, statsFile)
	campCol := statsColumn(t, header, "campaign")
	for _, row := range rows {
		if row[campCol] != "dvu-full" {
			t.Fatalf("stats row %v: campaign = %q, want dvu-full", row, row[campCol])
		}
	}
}

// parseScrape indexes a Prometheus text scrape by full series name —
// `name{labels}` → value — skipping comment lines.
func parseScrape(body string) map[string]float64 {
	series := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		series[line[:i]] = v
	}
	return series
}

// TestMetricsEndpointMatchesEventLog is the observability acceptance test:
// a real multi-worker campaign on a scheduler running with both -http and
// -event-log, scraped over HTTP mid-run and after completion. The final
// counters must exactly match the persisted event log's tallies — the
// scrape and the log are two views of the same stream — the
// heartbeat-carried worker gauges must account for every executed task,
// and `top -metrics-snapshot` must derive the same numbers from the
// monitor protocol alone.
func TestMetricsEndpointMatchesEventLog(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	dir := t.TempDir()
	eventLog := filepath.Join(dir, "events.jsonl")
	// Fast worker heartbeats so the gauge series converge within the poll
	// window below.
	schedFile := e2eClusterFull(t, 2, []string{"-heartbeat", "500ms"},
		"-event-log", eventLog, "-http", "127.0.0.1:0")

	sfData, err := os.ReadFile(schedFile)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := flow.ParseSchedulerFile(sfData)
	if err != nil {
		t.Fatal(err)
	}
	if sf.HTTP == "" {
		t.Fatal("scheduler file does not advertise the -http admin endpoint")
	}
	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get("http://" + sf.HTTP + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	campaign := []string{"-species", "DVU", "-preset", "genome", "-limit", "150", "-seed", "20220125", "-campaign", "dvu-metrics"}
	submit := osexec.Command(binPath, append([]string{"submit", "-scheduler-file", schedFile}, campaign...)...)
	submit.Stdout = os.Stderr
	submit.Stderr = os.Stderr
	if err := submit.Start(); err != nil {
		t.Fatalf("starting submit: %v", err)
	}
	time.Sleep(150 * time.Millisecond)

	// Mid-run: the endpoint serves well-formed exposition while the
	// campaign is in flight, and the scheduler reports healthy.
	code, body, ctype := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("mid-run GET /metrics = %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("mid-run /metrics Content-Type = %q", ctype)
	}
	for _, want := range []string{"# TYPE flow_tasks_total counter", "flow_queue_depth "} {
		if !strings.Contains(body, want) {
			t.Errorf("mid-run scrape missing %q:\n%s", want, body)
		}
	}
	if code, body, _ := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("mid-run GET /healthz = %d %q, want 200 ok", code, body)
	}

	if err := submit.Wait(); err != nil {
		t.Fatalf("submit: %v", err)
	}

	// After completion: poll until the scrape and the persisted log agree
	// exactly (the log sink is async and the gauge series lag by one
	// heartbeat; a partially flushed last JSONL line is retried too).
	deadline := time.Now().Add(15 * time.Second)
	var done, failed, joins int
	for {
		done, failed, joins = 0, 0, 0
		converged := false
		data, err := os.ReadFile(eventLog)
		if err != nil {
			t.Fatal(err)
		}
		logged, err := events.ReadLog(bytes.NewReader(data))
		if err == nil {
			for _, e := range logged {
				switch {
				case e.Campaign == "dvu-metrics" && e.Type == events.TaskDone:
					done++
				case e.Campaign == "dvu-metrics" && e.Type == events.TaskFailed:
					failed++
				case e.Type == events.WorkerJoin:
					joins++
				}
			}
			code, body, _ := get("/metrics")
			if code != http.StatusOK {
				t.Fatalf("final GET /metrics = %d", code)
			}
			s := parseScrape(body)
			converged = done > 0 &&
				s[`flow_tasks_total{event="done",campaign="dvu-metrics"}`] == float64(done) &&
				s[`flow_tasks_total{event="failed",campaign="dvu-metrics"}`] == float64(failed) &&
				s[`flow_worker_events_total{event="worker_join"}`] == float64(joins) &&
				s["flow_queue_depth"] == 0 &&
				s["flow_tasks_running"] == 0 &&
				// Heartbeat-carried gauges: the fleet's executed-task total
				// accounts for every completion the log recorded.
				s[`flow_worker_tasks_executed{worker="e2e-w0"}`]+
					s[`flow_worker_tasks_executed{worker="e2e-w1"}`] == float64(done+failed) &&
				s[`flow_worker_goroutines{worker="e2e-w0"}`] > 0 &&
				s[`flow_worker_heap_bytes{worker="e2e-w1"}`] > 0
			if converged {
				break
			}
		}
		if time.Now().After(deadline) {
			_, body, _ := get("/metrics")
			t.Fatalf("metrics never converged with the event log (log: done=%d failed=%d joins=%d, readErr=%v)\nscrape:\n%s",
				done, failed, joins, err, body)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The same tallies are derivable without the HTTP endpoint: `top
	// -metrics-snapshot` folds the monitor stream into one scrape.
	snap := string(runBin(t, "top", "-scheduler-file", schedFile, "-metrics-snapshot"))
	for _, want := range []string{
		fmt.Sprintf(`flow_tasks_total{event="done",campaign="dvu-metrics"} %d`, done),
		fmt.Sprintf(`flow_worker_events_total{event="worker_join"} %d`, joins),
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("top -metrics-snapshot missing %q:\n%s", want, snap)
		}
	}
}
