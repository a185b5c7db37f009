package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/flow"
	"repro/internal/relax"
	"repro/internal/rng"
)

// accountCluster fills group A from the exited cluster processes.
func accountCluster(layer values, sched, workers usage, tasks int) {
	n := float64(tasks)
	layer["flow.sched.cpu_us_per_task"] = sched.cpuS * 1e6 / n
	layer["flow.sched.maxrss_mb"] = sched.maxRSSMB
	layer["flow.worker.cpu_us_per_task"] = workers.cpuS * 1e6 / n
	layer["flow.worker.maxrss_mb"] = workers.maxRSSMB
}

// instruments is one /metrics scrape of the traced scheduler, taken while
// it is still up; finishInstruments holds it against the event log once a
// clean shutdown has flushed that.
type instruments struct {
	scrape   map[string]float64
	scrapeMS float64
	scrapeB  int
}

// scrapeMetrics GETs the traced scheduler's /metrics once, at the end of
// the timed region. It returns nil on an untraced repetition, and nil with
// the failure recorded on r when the scrape fails.
func scrapeMetrics(rc *runCtx, r *repResult, cl *deployment, parent int) *instruments {
	if cl.httpAddr == "" {
		return nil
	}
	_, end := rc.tr.begin("obs: GET /metrics", parent)
	defer end()
	t := time.Now()
	resp, err := http.Get("http://" + cl.httpAddr + "/metrics")
	if err != nil {
		r.fail("scrape: %v", err)
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		r.fail("scrape: %v", err)
		return nil
	}
	in := &instruments{scrapeMS: float64(time.Since(t).Nanoseconds()) / 1e6, scrapeB: len(body), scrape: map[string]float64{}}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				in.scrape[line[:i]] = v
			}
		}
	}
	return in
}

// tallyMismatches compares the scrape's task and worker-join counters with
// tallies of the persisted log: two views of one stream must agree. When
// the log's async sink dropped events under load (it says so with a
// truncated marker, and /metrics counts the drops) only the totals can be
// compared.
func tallyMismatches(scrape map[string]float64, evs []events.Event) []string {
	type key struct {
		typ      events.Type
		campaign string
	}
	tally := map[key]float64{}
	joins, logged, gapped := 0.0, 0.0, false
	for i := range evs {
		e := &evs[i]
		switch {
		case e.Type == events.Truncated:
			gapped = true
		case e.Type == events.WorkerJoin:
			joins++
		case e.Type.TaskScoped():
			tally[key{e.Type, e.Campaign}]++
			logged++
		}
	}
	var bad []string
	if got := scrape[`flow_worker_events_total{event="worker_join"}`]; got != joins && !gapped {
		bad = append(bad, fmt.Sprintf("/metrics counts %v worker joins, the event log %v", got, joins))
	}
	if gapped {
		scraped := 0.0
		for name, v := range scrape {
			if strings.HasPrefix(name, "flow_tasks_total{") {
				scraped += v
			}
		}
		if dropped := scrape["flow_async_sink_dropped_total"]; scraped != logged+dropped {
			bad = append(bad, fmt.Sprintf("/metrics counts %v task events, the event log %v plus %v dropped", scraped, logged, dropped))
		}
		return bad
	}
	for k, want := range tally {
		name := fmt.Sprintf(`flow_tasks_total{event=%q,campaign=%q}`, string(k.typ), k.campaign)
		if got := scrape[name]; got != want {
			bad = append(bad, fmt.Sprintf("/metrics has %s = %v, the event log tallies %v", name, got, want))
		}
	}
	return bad
}

// finishInstruments runs after the cluster has stopped: it loads the
// flushed event log, checks it against the scrape, joins it with the
// handler records, and fills group B.
func finishInstruments(rc *runCtx, r *repResult, cl *deployment, in *instruments, workers int, parent int) {
	data, err := os.ReadFile(cl.eventLog)
	if err != nil {
		r.fail("event log: %v", err)
		return
	}
	evs, err := events.ReadLog(bytes.NewReader(data))
	if err != nil {
		r.fail("event log: %v", err)
		return
	}
	r.events, r.logBytes = evs, data
	for _, m := range tallyMismatches(in.scrape, evs) {
		r.fail("%s", m)
	}
	legs := joinLegs(evs, r.recs)
	if len(legs) == 0 {
		r.fail("no task lifecycle could be read from the event log")
		return
	}
	for k, v := range legMetrics(legs, workers, r.wallS) {
		r.layer[k] = v
	}
	taskEvents := 0
	for i := range evs {
		if evs[i].Type.TaskScoped() {
			taskEvents++
		}
	}
	n := float64(len(legs))
	r.layer["flow.events_per_task"] = float64(taskEvents) / n
	r.layer["events.log_bytes_per_task"] = float64(len(data)) / n
	r.layer["obs.scrape_ms"] = in.scrapeMS
	r.layer["obs.scrape_bytes"] = float64(in.scrapeB)
	legSpans(rc.tr, parent, legs, cl.startedAt)
}

// campaignMP is the documented three-terminal deployment with default
// flags: sched, nproc workers, and `submit` of the D. vulgaris campaign.
type campaignMP struct {
	limit    []string // smoke: -limit 200
	wantOut  []byte   // `proteomectl run` stdout for the same campaign
	numTasks int
}

func (*campaignMP) name() string { return wlCampaignMP }

func (w *campaignMP) campaignArgs(rc *runCtx) []string {
	return append([]string{"-species", "DVU", "-seed", strconv.FormatUint(rc.seed, 10)}, w.limit...)
}

// prepare runs the same campaign on the in-process pool: its stdout is
// what `submit` must print byte for byte, and its processing-times CSV
// says how many tasks the campaign has.
func (w *campaignMP) prepare(rc *runCtx) error {
	if rc.smoke {
		w.limit = []string{"-limit", "200"}
	}
	stats := filepath.Join(rc.work, "reference-stats.csv")
	p, err := spawn("run", rc.bin, nil, append(append([]string{"run"}, w.campaignArgs(rc)...), "-stats", stats)...)
	if err != nil {
		return err
	}
	<-p.done
	if p.waitErr != nil {
		return fmt.Errorf("reference run: %v\n%s", p.waitErr, p.stderr.String())
	}
	w.wantOut = append([]byte(nil), p.stdout.Bytes()...)
	rows, err := readStats(stats)
	if err != nil {
		return err
	}
	w.numTasks = len(rows)
	return nil
}

// readStats loads a processing-times CSV as handler records.
func readStats(path string) ([]handlerRec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rows) == 0 || len(rows[0]) != len(exec.StatsHeader) {
		return nil, fmt.Errorf("%s: not a processing-times CSV", path)
	}
	col := map[string]int{}
	for i, name := range rows[0] {
		col[name] = i
	}
	recs := make([]handlerRec, 0, len(rows)-1)
	for _, row := range rows[1:] {
		enq, _ := strconv.ParseInt(row[col["enqueued_unix_ns"]], 10, 64)
		start, _ := strconv.ParseInt(row[col["start_unix_ns"]], 10, 64)
		finish, _ := strconv.ParseInt(row[col["finish_unix_ns"]], 10, 64)
		n, _ := strconv.Atoi(row[col["payload_bytes"]])
		recs = append(recs, handlerRec{key: row[col["task_id"]], enqueueNS: enq, handlerNS: finish - start, worker: row[col["worker_id"]], bytes: n})
	}
	return recs, nil
}

func (w *campaignMP) rep(rc *runCtx, traced bool) *repResult {
	r := &repResult{layer: values{}}
	deadline := time.Now().Add(rc.repDeadline)
	dir, err := os.MkdirTemp(rc.work, "rep-")
	if err != nil {
		return r.failAll(w.numTasks, "%v", err)
	}
	self0 := selfCPU()
	root, endRoot := rc.tr.begin("campaign_mp repetition", 0)
	defer endRoot()

	_, endUp := rc.tr.begin("setup: sched + workers joined", root)
	cl, err := deploy(rc.bin, dir, fleetOpts{workers: rc.nproc, instruments: traced}, deadline)
	endUp()
	if err != nil {
		return r.failAll(w.numTasks, "bring-up: %v", err)
	}
	r.setupS = cl.setup.Seconds()

	args := append([]string{"submit", "-scheduler-file", cl.schedFile}, w.campaignArgs(rc)...)
	stats := filepath.Join(dir, "stats.csv")
	if traced {
		args = append(args, "-stats", stats)
	}
	_, endSubmit := rc.tr.begin("exec: submit process", root)
	t0 := time.Now()
	submit, err := spawn("submit", rc.bin, nil, args...)
	if err != nil {
		cl.kill()
		return r.failAll(w.numTasks, "%v", err)
	}
	if !submit.waitSampling(deadline) {
		submit.kill()
		cl.kill()
		<-submit.done
		return r.failAll(w.numTasks, "deadline of %v passed with submit still running", rc.repDeadline)
	}
	r.wallS = time.Since(t0).Seconds()
	endSubmit()

	in := scrapeMetrics(rc, r, cl, root)
	sched, workers := cl.stop()
	su := submit.usage()
	r.cpuS = sched.cpuS + workers.cpuS + su.cpuS + selfCPU() - self0
	r.tasks, r.attempted = w.numTasks, w.numTasks
	r.waitsMS = []float64{r.wallS * 1e3}
	accountCluster(r.layer, sched, workers, w.numTasks)
	r.layer["exec.submit.cpu_us_per_task"] = su.cpuS * 1e6 / float64(w.numTasks)
	r.layer["exec.submit.maxrss_mb"] = su.maxRSSMB

	if submit.waitErr != nil {
		return r.failAll(w.numTasks, "submit: %v\n%s", submit.waitErr, submit.stderr.String())
	}
	r.report = submit.stdout.String()
	if !bytes.Equal(submit.stdout.Bytes(), w.wantOut) {
		r.fail("submit's report differs from `proteomectl run` on the same campaign")
	}
	if in != nil {
		if r.recs, err = readStats(stats); err != nil {
			r.fail("%v", err)
		} else {
			finishInstruments(rc, r, cl, in, rc.nproc, root)
		}
	}
	_ = os.RemoveAll(dir)
	return r
}

// relaxTasks makes n `campaign/relax` spec tasks from the seed — the
// ~5 µs kernel, so scheduling is the whole cost — and the payload each
// must come back with, computed here by the same function.
func relaxTasks(seed uint64, prefix string, n int) ([]flow.Task, map[string][]byte, error) {
	src := rng.New(seed).SplitNamed(prefix)
	tasks := make([]flow.Task, n)
	want := make(map[string][]byte, n)
	for i := range tasks {
		length := 50 + src.Intn(2450)
		id := prefix + strconv.Itoa(i)
		t, err := flow.NewSpecTask(id, 0, core.KernelRelax, core.RelaxSpec{Length: length, Platform: int(relax.PlatformGPU)})
		if err != nil {
			return nil, nil, err
		}
		tasks[i] = t
		want[id], err = json.Marshal(relax.ModelTime(relax.PlatformGPU, core.RelaxHeavyAtoms(length), 1))
		if err != nil {
			return nil, nil, err
		}
	}
	return tasks, want, nil
}

// verify counts the results that failed or carry the wrong payload.
func verify(results []flow.Result, want map[string][]byte) int {
	bad := 0
	for i := range results {
		r := &results[i]
		if r.Failed() || !bytes.Equal(r.Payload, want[r.TaskID]) {
			bad++
		}
	}
	return bad
}

// resultRecs turns Client.Map's Result records into handler records — on
// the bench-driven workloads they stand in for the stats CSV.
func resultRecs(recs []handlerRec, results []flow.Result) []handlerRec {
	for i := range results {
		r := &results[i]
		recs = append(recs, handlerRec{key: r.TaskID, enqueueNS: r.EnqueuedNS, handlerNS: r.Duration().Nanoseconds(), worker: r.WorkerID, bytes: len(r.Payload)})
	}
	return recs
}

// tunedFleet is the deployment both bench-driven workloads use: batched
// handout and the binary wire everywhere.
func tunedFleet(rc *runCtx, traced bool, schedArgs ...string) fleetOpts {
	return fleetOpts{
		workers:     rc.nproc,
		schedArgs:   append([]string{"-batch", "16"}, schedArgs...),
		workerArgs:  []string{"-wire", flow.WireBinary},
		instruments: traced,
	}
}

func dialBinary(cl *deployment, deadline time.Time) (*flow.Client, error) {
	c, err := flow.DialClient(flow.DialOptions{SchedulerFile: cl.schedFile, Codec: flow.WireBinary})
	if err != nil {
		return nil, err
	}
	c.ResultTimeout = time.Until(deadline)
	return c, nil
}

// pingpong is one closed-loop client sending one task at a time: the
// per-message fixed cost is the whole number.
//
// The whole workload — client, scheduler, workers — is confined to one CPU
// (each process still with GOMAXPROCS = nproc, so every goroutine and
// thread hand-off of the real deployment is still paid). A round trip is
// four wake-ups; across vCPUs each is an IPI into a possibly halted vCPU,
// which under a hypervisor costs tens of microseconds that depend on the
// host, not on this code: unpinned, wait_ms_p50 read 0.115-0.199 ms from
// one 1.2 s repetition to the next and its run-to-run spread was 23 %
// (p99 30 %); pinned it reads 0.094-0.106 ms.
type pingpong struct {
	calls, warm int
	tasks       []flow.Task
	want        map[string][]byte
}

func (*pingpong) name() string { return wlPingpong }

func (w *pingpong) prepare(rc *runCtx) (err error) {
	w.calls, w.warm = 8000, 1000
	if rc.smoke {
		w.calls, w.warm = 500, 50
	}
	// 1,024 distinct payloads, cycled; IDs recur but never concurrently.
	w.tasks, w.want, err = relaxTasks(rc.seed, "p", 1024)
	return err
}

func (w *pingpong) rep(rc *runCtx, traced bool) *repResult {
	r := &repResult{layer: values{}}
	total := w.calls + w.warm
	deadline := time.Now().Add(rc.repDeadline)
	dir, err := os.MkdirTemp(rc.work, "rep-")
	if err != nil {
		return r.failAll(w.calls, "%v", err)
	}
	unpin, err := pinToOneCPU()
	if err != nil {
		return r.failAll(w.calls, "%v", err)
	}
	defer unpin()
	self0 := selfCPU()
	root, endRoot := rc.tr.begin("pingpong repetition", 0)
	defer endRoot()

	_, endUp := rc.tr.begin("setup: sched + workers joined", root)
	fleet := tunedFleet(rc, traced)
	// A Go process sizes GOMAXPROCS from its affinity mask; keep the
	// deployment's real value.
	fleet.env = []string{"GOMAXPROCS=" + strconv.Itoa(rc.nproc)}
	cl, err := deploy(rc.bin, dir, fleet, deadline)
	endUp()
	if err != nil {
		return r.failAll(w.calls, "bring-up: %v", err)
	}
	r.setupS = cl.setup.Seconds()
	watchdog := time.AfterFunc(time.Until(deadline), cl.kill)
	defer watchdog.Stop()
	c, err := dialBinary(cl, deadline)
	if err != nil {
		cl.kill()
		return r.failAll(w.calls, "%v", err)
	}

	one := make([]flow.Task, 1)
	r.waitsMS = make([]float64, 0, w.calls)
	loop0 := selfCPU()
	var t0 time.Time
	for i := 0; i < total; i++ {
		if i == w.warm {
			t0 = time.Now()
		}
		one[0] = w.tasks[i%len(w.tasks)]
		s := time.Now()
		res, err := c.Map(one, nil)
		e := time.Now()
		if err != nil {
			c.Close()
			cl.kill()
			return r.failAll(w.calls, "call %d: %v", i, err)
		}
		if traced {
			// Warm-up calls too: the log holds their lifecycles, and the
			// join pairs a recurring ID's lifecycles and records in order.
			r.recs = resultRecs(r.recs, res)
		}
		if i < w.warm {
			continue
		}
		r.waitsMS = append(r.waitsMS, float64(e.Sub(s).Nanoseconds())/1e6)
		r.failed += verify(res, w.want)
		rc.tr.add("flow.Client.Map", root, s, e)
	}
	r.wallS = time.Since(t0).Seconds()
	clientCPU := selfCPU() - loop0
	c.Close()

	in := scrapeMetrics(rc, r, cl, root)
	sched, workers := cl.stop()
	r.cpuS = sched.cpuS + workers.cpuS + selfCPU() - self0
	r.tasks, r.attempted = w.calls-r.failed, w.calls
	accountCluster(r.layer, sched, workers, total)
	r.layer["flow.client.cpu_us_per_task"] = clientCPU * 1e6 / float64(total)
	if in != nil {
		finishInstruments(rc, r, cl, in, rc.nproc, root)
		r.layer["flow.forward_us_p50"] = forwardP50(r, w.warm)
	}
	_ = os.RemoveAll(dir)
	return r
}

// forwardP50 is the round trip minus the scheduler's received→done span,
// per call: the submit leg in plus the result-forward leg out. Calls are
// sequential, so the i-th measured call is the log's (warm+i)-th
// lifecycle.
func forwardP50(r *repResult, warm int) float64 {
	var recv, done []int64
	for i := range r.events {
		switch e := &r.events[i]; e.Type {
		case events.TaskReceived:
			recv = append(recv, e.TimeNS)
		case events.TaskDone:
			done = append(done, e.TimeNS)
		}
	}
	var fwd []float64
	for i, ms := range r.waitsMS {
		if k := warm + i; k < len(recv) && k < len(done) {
			fwd = append(fwd, ms*1e3-float64(done[k]-recv[k])/1e3)
		}
	}
	return median(fwd)
}

// tenantsFair is two tenants on fair-share lanes: bulk keeps a large
// backlog queued while pilot sends small waves and waits for each.
type tenantsFair struct {
	bulkWaves           int
	bulk, pilot         []flow.Task
	wantBulk, wantPilot map[string][]byte
}

const (
	bulkWaveTasks  = 16384
	pilotWaveTasks = 32
)

func (*tenantsFair) name() string { return wlTenantsFair }

func (w *tenantsFair) prepare(rc *runCtx) (err error) {
	w.bulkWaves = 6
	if rc.smoke {
		w.bulkWaves = 2
	}
	if w.bulk, w.wantBulk, err = relaxTasks(rc.seed, "b", bulkWaveTasks); err != nil {
		return err
	}
	w.pilot, w.wantPilot, err = relaxTasks(rc.seed, "q", pilotWaveTasks)
	return err
}

func (w *tenantsFair) rep(rc *runCtx, traced bool) *repResult {
	r := &repResult{layer: values{}}
	bulkTasks := w.bulkWaves * bulkWaveTasks
	deadline := time.Now().Add(rc.repDeadline)
	dir, err := os.MkdirTemp(rc.work, "rep-")
	if err != nil {
		return r.failAll(bulkTasks, "%v", err)
	}
	self0 := selfCPU()
	root, endRoot := rc.tr.begin("tenants_fair repetition", 0)
	defer endRoot()

	_, endUp := rc.tr.begin("setup: sched + workers joined", root)
	cl, err := deploy(rc.bin, dir, tunedFleet(rc, traced, "-policy", flow.PolicyFair, "-quota", "5000", "-outbox-depth", "8192"), deadline)
	endUp()
	if err != nil {
		return r.failAll(bulkTasks, "bring-up: %v", err)
	}
	r.setupS = cl.setup.Seconds()
	watchdog := time.AfterFunc(time.Until(deadline), cl.kill)
	defer watchdog.Stop()
	bulk, err := dialBinary(cl, deadline)
	if err != nil {
		cl.kill()
		return r.failAll(bulkTasks, "%v", err)
	}
	defer bulk.Close()
	pilot, err := dialBinary(cl, deadline)
	if err != nil {
		cl.kill()
		return r.failAll(bulkTasks, "%v", err)
	}
	defer pilot.Close()
	bulk.Campaign, pilot.Campaign = "bulk", "pilot"

	// pilot starts the moment bulk's first result shows its wave was
	// admitted, and stops after the wave in flight when bulk finishes.
	var (
		bulkStarted = make(chan struct{})
		startOnce   sync.Once
		bulkDone    atomic.Bool
		pilotWG     sync.WaitGroup
		pilotErr    error
		pilotBad    int
		pilotWaves  int
		pilotRecs   []handlerRec
	)
	pilotWG.Add(1)
	go func() {
		defer pilotWG.Done()
		<-bulkStarted
		for !bulkDone.Load() {
			s := time.Now()
			res, err := pilot.Map(w.pilot, nil)
			e := time.Now()
			if err != nil {
				pilotErr = err
				return
			}
			pilotWaves++
			r.waitsMS = append(r.waitsMS, float64(e.Sub(s).Nanoseconds())/1e6)
			pilotBad += verify(res, w.wantPilot)
			rc.tr.add("flow.Client.Map pilot", root, s, e)
			if traced {
				pilotRecs = resultRecs(pilotRecs, res)
			}
		}
	}()

	loop0 := selfCPU()
	t0 := time.Now()
	var bulkErr error
	bulkBad := 0
	for wave := 0; wave < w.bulkWaves && bulkErr == nil; wave++ {
		s := time.Now()
		var res []flow.Result
		res, bulkErr = bulk.Map(w.bulk, func(*flow.Result) { startOnce.Do(func() { close(bulkStarted) }) })
		if bulkErr == nil {
			bulkBad += verify(res, w.wantBulk)
			rc.tr.add("flow.Client.Map bulk", root, s, time.Now())
			if traced {
				r.recs = resultRecs(r.recs, res)
			}
		}
	}
	r.wallS = time.Since(t0).Seconds()
	bulkDone.Store(true)
	startOnce.Do(func() { close(bulkStarted) })
	pilotWG.Wait()
	clientCPU := selfCPU() - loop0
	r.recs = append(r.recs, pilotRecs...)

	if bulkErr != nil || pilotErr != nil {
		cl.kill()
		return r.failAll(bulkTasks, "bulk: %v; pilot: %v", bulkErr, pilotErr)
	}
	in := scrapeMetrics(rc, r, cl, root)
	sched, workers := cl.stop()
	r.cpuS = sched.cpuS + workers.cpuS + selfCPU() - self0
	pilotTasks := pilotWaves * pilotWaveTasks
	r.tasks = bulkTasks - bulkBad
	r.attempted, r.failed = bulkTasks+pilotTasks, bulkBad+pilotBad
	if pilotWaves == 0 {
		r.fail("pilot completed no wave while bulk ran")
	}
	accountCluster(r.layer, sched, workers, bulkTasks+pilotTasks)
	r.layer["flow.client.cpu_us_per_task"] = clientCPU * 1e6 / float64(bulkTasks+pilotTasks)
	if in != nil {
		finishInstruments(rc, r, cl, in, rc.nproc, root)
	}
	_ = os.RemoveAll(dir)
	return r
}
