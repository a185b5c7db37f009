// Command proteomectl drives the pipeline interactively: generate synthetic
// proteomes, run the three workflow stages against the cluster simulator,
// predict and export individual structures, print campaign reports — and
// deploy the flow dataflow engine across real processes and hosts, with a
// standalone scheduler, remote workers, and a submitting client, mirroring
// the paper's Summit deployment (Section 3.3).
//
// Usage:
//
//	proteomectl generate -species DVU -out proteome.fasta
//	proteomectl run -species DVU -preset genome -nodes 32
//	proteomectl predict -species DVU -id DVU_00001 -out model.pdb
//	proteomectl species
//
// Multi-process deployment (one command per terminal or host):
//
//	proteomectl sched -listen :8786 -scheduler-file sched.json -event-log events.jsonl
//	proteomectl worker -scheduler-file sched.json
//	proteomectl submit -scheduler-file sched.json -species DVU
//	proteomectl monitor -scheduler-file sched.json
//
// The monitor is read-only: it tails the scheduler's structured event
// stream (queue depth, per-worker in-flight, throughput) without any
// cooperation from the submitting client.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/fold"
	"repro/internal/pdb"
	"repro/internal/proteome"
	"repro/internal/relax"
	"repro/internal/seq"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "species":
		err = speciesCmd(os.Stdout)
	case "generate":
		err = generateCmd(os.Args[2:], os.Stdout)
	case "run":
		err = runCmd(os.Args[2:], os.Stdout)
	case "predict":
		err = predictCmd(os.Args[2:])
	case "sched":
		err = schedCmd(os.Args[2:], os.Stdout)
	case "worker":
		err = workerCmd(os.Args[2:], os.Stdout)
	case "submit":
		err = submitCmd(os.Args[2:], os.Stdout)
	case "monitor":
		err = monitorCmd(os.Args[2:], os.Stdout)
	case "top":
		err = topCmd(os.Args[2:], os.Stdout)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		// -h/-help already printed the flag defaults; it is not a failure.
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		// The FlagSet already reported parse errors with usage; exit 2 as
		// flag.ExitOnError would, without printing the message twice.
		if errors.Is(err, errFlagParse) {
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "proteomectl: %v\n", err)
		os.Exit(1)
	}
}

// errFlagParse wraps FlagSet.Parse failures, which the FlagSet has
// already printed together with the command's usage.
var errFlagParse = errors.New("invalid command-line flags")

// parseFlags normalizes FlagSet.Parse errors: help requests pass through
// for a clean exit 0, anything else becomes errFlagParse (exit 2, no
// duplicate message).
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errFlagParse
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: proteomectl <command> [flags]
commands:
  species                       list the paper's four species
  generate -species C -out F    write a synthetic proteome as FASTA
  run -species C [-preset P] [-nodes N] [-seed S] [-limit K]
      [-parallelism N] [-stats F] [-timeline F]
                                run the three-stage pipeline on the simulator
  predict -species C -id ID [-out F] [-seed S]
                                predict + relax one protein, write PDB
  sched -listen A [-scheduler-file F] [-event-log F]
      [-resume-log] [-max-retries N] [-heartbeat-timeout D] [-event-backlog N]
      [-batch N] [-policy fifo|fair] [-quota N] [-outbox-depth N]
      [-write-timeout D] [-http A]
                                start a standalone dataflow scheduler;
                                -event-log persists the structured task
                                transition stream as JSONL, -resume-log
                                continues an existing log across a restart,
                                -max-retries quarantines poison tasks,
                                -heartbeat-timeout declares silent workers
                                dead, -event-backlog bounds in-memory history,
                                -batch fixes the tasks per handout frame at N
                                (default 0: the scheduler sizes each handout
                                to about 1 ms of handler time, at most 64),
                                -policy fair round-robins handout across
                                campaigns sharing the fleet, -quota defers
                                admission beyond N in-flight tasks per campaign,
                                -outbox-depth bounds each peer's outbound
                                frame queue and -write-timeout its slowest
                                accepted write (an overflowing or wedged peer
                                is declared dead, never the fleet), -http
                                serves the admin endpoint — GET /metrics
                                (live Prometheus series), /healthz (503
                                once shutdown begins), /debug/pprof/
  worker (-connect A | -scheduler-file F) [-id ID] [-heartbeat D] [-dial-retry D]
                                start a worker serving the campaign kernels;
                                -dial-retry lets it start before the scheduler
  submit (-connect A | -scheduler-file F) -species C [-preset P] [-nodes N]
      [-seed S] [-limit K] [-stats F] [-timeline F]
      [-resume F] [-dial-retry D] [-campaign NAME]
                                run the campaign on the remote cluster;
                                workers return only the scalars the report
                                needs (search seconds, prediction digests,
                                relax seconds); -stats writes the per-task
                                processing-times CSV, -timeline the
                                measured-vs-simulated worker-timeline SVG,
                                -resume reads back from a scheduler event
                                log the results of tasks an interrupted run
                                finished and dispatches only the rest (the
                                report stays byte-identical; results of
                                another kernel epoch are dropped), -campaign
                                names the fair-share/quota namespace on a
                                shared scheduler
  monitor (-connect A | -scheduler-file F) [-json] [-campaign NAME]
                                tail a running campaign live (queue depth,
                                per-worker in-flight, throughput) from the
                                scheduler's event stream; read-only;
                                -campaign filters to one campaign's tasks
  top (-connect A | -scheduler-file F) [-interval D] [-metrics-snapshot]
      [-campaign NAME]
                                refreshing dashboard over the same event
                                stream: queue depth, per-campaign
                                queued/running/done/failed, per-worker
                                occupancy, dispatch rate; read-only;
                                -metrics-snapshot instead prints one
                                Prometheus scrape of the stream-derived
                                series once the backlog drains, for
                                scripting without the -http endpoint`)
}

func findSpecies(code string) (proteome.Species, error) {
	for _, sp := range proteome.PaperSpecies() {
		if sp.Code == code {
			return sp, nil
		}
	}
	return proteome.Species{}, fmt.Errorf("unknown species %q (try: PMER, RRU, DVU, SPDIV)", code)
}

func findPreset(name string) (fold.Preset, error) {
	for _, p := range fold.AllPresets() {
		if p.Name == name {
			return p, nil
		}
	}
	return fold.Preset{}, fmt.Errorf("unknown preset %q", name)
}

func speciesCmd(w io.Writer) error {
	fmt.Fprintf(w, "%-6s %-40s %-11s %9s\n", "CODE", "NAME", "KINGDOM", "PROTEINS")
	for _, sp := range proteome.PaperSpecies() {
		fmt.Fprintf(w, "%-6s %-40s %-11s %9d\n", sp.Code, sp.Name, sp.Kingdom, sp.NumProteins)
	}
	return nil
}

func generateCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	code := fs.String("species", "DVU", "species code")
	out := fs.String("out", "", "output FASTA path (default stdout)")
	seedv := fs.Uint64("seed", experiments.DefaultSeed, "campaign seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	sp, err := findSpecies(*code)
	if err != nil {
		return err
	}
	env := experiments.NewEnv(*seedv)
	p := env.Proteome(sp)
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return seq.WriteFASTA(w, p.Sequences())
}

// campaignFlags is the flag block shared by `run` and `submit`: the same
// campaign must be expressible on the simulator and on a remote cluster so
// the two reports can be compared byte for byte.
type campaignFlags struct {
	species  string
	preset   string
	nodes    int
	seed     uint64
	limit    int
	par      int
	stats    string
	timeline string
}

func (c *campaignFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&c.species, "species", "DVU", "species code")
	fs.StringVar(&c.preset, "preset", "genome", "inference preset (reduced_dbs, genome, super, casp14)")
	fs.IntVar(&c.nodes, "nodes", 32, "Summit nodes for inference")
	fs.Uint64Var(&c.seed, "seed", experiments.DefaultSeed, "campaign seed")
	fs.IntVar(&c.limit, "limit", 0, "run only the first K proteins (0 = all); smoke-test and e2e knob")
	fs.StringVar(&c.stats, "stats", "", "write the per-task processing-times CSV (task → worker placement, queue/run timings, wire bytes) to this file")
	fs.StringVar(&c.timeline, "timeline", "", "write the Fig-2-style worker-timeline SVG (the recorded run overlaid on the dataflow simulator's prediction for the same tasks, plus queue depth) to this file")
	// -parallelism is registered by `run` only: `submit` computes on the
	// remote workers, so a host pool-size knob would be inert there.
}

// wantTrace reports whether any output flag needs a recorded trace.
func (c *campaignFlags) wantTrace() bool { return c.stats != "" || c.timeline != "" }

// finishStats writes the recorded trace to the -stats and -timeline
// files, with the load-balance summary on stderr.
func (c *campaignFlags) finishStats(trace *exec.Trace) error {
	return analysis.WriteTraceFiles(trace.Rows(), c.stats, c.timeline, c.species+" campaign", os.Stderr)
}

// campaignRun is the resolved world a `run` or `submit` operates on.
type campaignRun struct {
	env      *experiments.Env
	sp       proteome.Species
	proteins []proteome.Protein
	cfg      core.Config
	// limited records that -limit truncated the protein set, so the
	// report header can say so instead of blaming the length exclusion.
	limited bool
}

// campaign resolves the flag block into the world the run operates on.
func (c *campaignFlags) campaign() (*campaignRun, error) {
	sp, err := findSpecies(c.species)
	if err != nil {
		return nil, err
	}
	preset, err := findPreset(c.preset)
	if err != nil {
		return nil, err
	}
	env := experiments.NewEnv(c.seed)
	env.Parallelism = c.par
	proteins := env.Proteome(sp).FilterMaxLen(2500)
	limited := c.limit > 0 && c.limit < len(proteins)
	if limited {
		proteins = proteins[:c.limit]
	}
	cfg := core.DefaultConfig()
	cfg.Preset = preset
	cfg.SummitNodes = c.nodes
	cfg.AndesNodes = 96
	cfg.Parallelism = c.par
	return &campaignRun{env: env, sp: sp, proteins: proteins, cfg: cfg, limited: limited}, nil
}

// printReport renders a campaign report. `run` and `submit` share it so a
// remote multi-process run is byte-comparable to a local one.
func printReport(w io.Writer, cr *campaignRun, rep *core.CampaignReport) {
	sp, cfg, preset := cr.sp, cr.cfg, cr.cfg.Preset
	if cr.limited {
		fmt.Fprintf(w, "%s: first %d proteins (of %d; -limit applied, ≥2500 AA excluded)\n", sp.Name, len(cr.proteins), sp.NumProteins)
	} else {
		fmt.Fprintf(w, "%s: %d proteins (of %d; ≥2500 AA excluded)\n", sp.Name, len(cr.proteins), sp.NumProteins)
	}
	fmt.Fprintf(w, "feature generation  %8.1f node-hours, wall %6.1f h on %d Andes workers\n",
		rep.Feature.NodeHours, rep.Feature.WalltimeSec/3600, cfg.AndesNodes)
	fmt.Fprintf(w, "inference (%s)  %8.1f node-hours, wall %6.1f h on %d Summit nodes (%d completed, %d OOM-dropped)\n",
		preset.Name, rep.Inference.NodeHours, rep.Inference.WalltimeSec/3600, cfg.SummitNodes,
		rep.Inference.Completed, rep.Inference.OOMDropped)
	fmt.Fprintf(w, "relaxation          %8.1f node-hours, wall %6.1f min on %d nodes\n",
		rep.Relax.NodeHours, rep.Relax.WalltimeSec/60, cfg.RelaxNodes)
	for _, m := range rep.Ledger.Machines() {
		fmt.Fprintf(w, "ledger[%s] = %.1f node-hours\n", m, rep.Ledger.Total(m))
	}
}

func runCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var cf campaignFlags
	cf.register(fs)
	fs.IntVar(&cf.par, "parallelism", 0, "host worker-pool size (0 = GOMAXPROCS, 1 = serial); results are identical at any value")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cr, err := cf.campaign()
	if err != nil {
		return err
	}
	// The default pool is materialized here (instead of letting the
	// stages resolve one) so a trace can be attached to it.
	pool := exec.NewPool(cf.par)
	cr.env.Executor = pool
	cr.cfg.Executor = pool
	trace := &exec.Trace{}
	if cf.wantTrace() {
		pool.SetTrace(trace)
	}

	rep, err := core.RunCampaign(cr.env.Engine, cr.env.FeatureGen(), cr.proteins, cr.env.FS, core.ReducedDatabase(), cr.cfg)
	if err != nil {
		return err
	}
	printReport(stdout, cr, rep)
	return cf.finishStats(trace)
}

// connFlags is the scheduler-connection block shared by every command
// that dials a running scheduler (worker, submit, monitor): the address
// or scheduler file and the dial retry budget — each registered exactly
// once, here — plus -wire, which names the one wire codec.
type connFlags struct {
	connect   string
	schedFile string
	dialRetry time.Duration
	wire      string
}

func (c *connFlags) register(fs *flag.FlagSet, retryDefault time.Duration) {
	fs.StringVar(&c.connect, "connect", "", "scheduler address (host:port)")
	fs.StringVar(&c.schedFile, "scheduler-file", "", "scheduler file to read the address from")
	fs.DurationVar(&c.dialRetry, "dial-retry", retryDefault, "keep retrying the scheduler (and a missing scheduler file) with backoff for this long (0 = one attempt)")
	fs.StringVar(&c.wire, "wire", flow.WireBinary, "wire codec: binary (length-prefixed frames), the only one; every peer of one build speaks it, peers of different builds do not interoperate")
}

func (c *connFlags) validate(cmd string) error {
	if (c.connect == "") == (c.schedFile == "") {
		return fmt.Errorf("%s needs exactly one of -connect or -scheduler-file", cmd)
	}
	if !flow.ValidWire(c.wire) {
		return fmt.Errorf("%s: unknown -wire %q (the only codec is %s)", cmd, c.wire, flow.WireBinary)
	}
	return nil
}

// dialOptions converts the flag block into the one options struct every
// flow dialer consumes.
func (c *connFlags) dialOptions() flow.DialOptions {
	return flow.DialOptions{
		Addr:          c.connect,
		SchedulerFile: c.schedFile,
		Retry:         c.dialRetry,
		Codec:         c.wire,
	}
}

// schedOptions is the `sched` flag block.
type schedOptions struct {
	listen           string
	schedFile        string
	eventLog         string
	resumeLog        bool
	maxRetries       int
	heartbeatTimeout time.Duration
	eventBacklog     int
	batch            int
	policy           string
	quota            int
	outboxDepth      int
	writeTimeout     time.Duration
	httpAddr         string
}

func (o *schedOptions) register(fs *flag.FlagSet) {
	fs.StringVar(&o.listen, "listen", "127.0.0.1:8786", "address to listen on (host:port; port 0 picks one)")
	fs.StringVar(&o.schedFile, "scheduler-file", "", "write a JSON scheduler file advertising the bound address")
	fs.StringVar(&o.eventLog, "event-log", "", "persist the structured task-transition stream (received/queued/assigned/running/done/failed + worker join/leave) as JSONL to this file; replayable offline with events.ReadLog. received events carry the task's payload and done events the result's, which `submit -resume` reads back")
	fs.BoolVar(&o.resumeLog, "resume-log", false, "on restart, replay an existing -event-log first: the stream continues where the crashed scheduler stopped (a torn final record is discarded), so monitors still see the full campaign backlog and `submit -resume` can read back the results of completed tasks")
	fs.IntVar(&o.maxRetries, "max-retries", 3, "requeue a task whose worker died at most this many times, then quarantine it with a terminal failed event (0 = requeue forever)")
	fs.DurationVar(&o.heartbeatTimeout, "heartbeat-timeout", 0, "declare a worker dead after this long without a heartbeat or result and requeue its task (0 disables; workers must send -heartbeat at a few multiples below this)")
	fs.IntVar(&o.eventBacklog, "event-backlog", 0, "retain at most this many events in memory for late-attaching monitors, evicting oldest-first with an explicit truncated marker (0 = unbounded: each event costs 128 B plus its strings and payload, over 130 MB for a paper-sized campaign's ~10^6 events). The -event-log file is written by a follower of this same history, so unbounded it is complete however far the writer falls behind; bounded, a writer more than N events behind loses the evicted events and the file holds a truncated marker at the gap")
	fs.IntVar(&o.batch, "batch", 0, "tasks per handout frame (acked in one frame back). 0: the scheduler sizes each handout itself — about 1 ms of handler time, estimated from the results each submitted wave has returned so far, at most 64 tasks; minute-long tasks go out one per worker, microsecond kernels ~20 at a time, and a task being retried after a worker death always travels alone. N >= 1: up to exactly N, whatever the tasks cost")
	fs.StringVar(&o.policy, "policy", flow.PolicyFIFO, "queue policy: fifo (strict arrival order) or fair (round-robin handout across campaigns sharing the fleet; tasks name their campaign via submit -campaign)")
	fs.IntVar(&o.quota, "quota", 0, "admit at most this many unfinished tasks per campaign, deferring the rest (and their submit ack) until earlier tasks settle; 0 = unlimited")
	fs.IntVar(&o.outboxDepth, "outbox-depth", flow.DefaultOutboxDepth, "bound each peer connection's outbound frame queue to this many frames; a peer whose queue overflows is declared dead and its tasks requeue. A worker's ack costs its client one frame however many results it carries, so size it to the number of worker acks a client may leave unread at once (at least the fleet size), not to the wave's task count")
	fs.DurationVar(&o.writeTimeout, "write-timeout", flow.DefaultWriteTimeout, "declare a peer dead when a single write to it blocks this long (its kernel buffers full and not draining); its in-flight tasks requeue to healthy workers (0 = block forever)")
	fs.StringVar(&o.httpAddr, "http", "", "serve the admin HTTP endpoint on this address (e.g. localhost:6060): GET /metrics (live cluster metrics, Prometheus text format), /healthz (200 while serving, 503 once shutdown begins), and /debug/pprof/; off unless set; the bound address is advertised in the scheduler file's http field, where probes, curl and the benchmark harness (bench/proc.go) read it")
}

// scheduler builds the configured scheduler (not yet started).
func (o *schedOptions) scheduler() *flow.Scheduler {
	s := flow.NewScheduler()
	s.MaxRetries = o.maxRetries
	s.HeartbeatTimeout = o.heartbeatTimeout
	s.Batch = o.batch
	s.Policy = o.policy
	s.Quota = o.quota
	s.OutboxDepth = o.outboxDepth
	s.WriteTimeout = o.writeTimeout
	if o.eventBacklog > 0 {
		s.Events().SetLimit(o.eventBacklog)
	}
	return s
}

// schedCmd runs a standalone dataflow scheduler until interrupted —
// terminal 1 of the three-terminal deployment. The scheduler file it
// writes is how workers and clients find it, as in the paper's Summit
// deployment (Dask's scheduler-file mechanism).
func schedCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sched", flag.ContinueOnError)
	var o schedOptions
	o.register(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	s := o.scheduler()
	if o.httpAddr != "" {
		// Metrics ride the admin endpoint: the registry exists before
		// Start so the event sink is attached, and the listener binds
		// after Start so /healthz never reports 200 for a scheduler that
		// failed to come up.
		s.Metrics = flow.NewSchedulerMetrics(nil)
	}
	if o.eventLog != "" {
		var restored []events.Event
		if o.resumeLog {
			if data, err := os.ReadFile(o.eventLog); err == nil {
				// A tail torn by the crash is expected: restore the intact
				// prefix and rewrite the file as one valid stream.
				evs, rerr := events.ReadLog(bytes.NewReader(data))
				if rerr != nil {
					fmt.Fprintf(os.Stderr, "proteomectl: event log: discarding torn tail after %d events: %v\n", len(evs), rerr)
				}
				restored = evs
			} else if !os.IsNotExist(err) {
				return err
			}
		}
		// A log the hub refuses (a gap, a truncated marker) is left as it
		// is: the refusal comes before the file is rewritten.
		if len(restored) > 0 {
			if err := s.RestoreEvents(restored); err != nil {
				return err
			}
		}
		f, err := os.Create(o.eventLog)
		if err != nil {
			return err
		}
		defer f.Close()
		if len(restored) > 0 {
			// Re-encode the intact prefix so the final file decodes as a
			// single contiguous stream across the restart.
			sink := events.LogSink(f)
			for _, e := range restored {
				sink(e)
			}
			fmt.Fprintf(stdout, "resumed event log: %d events restored\n", len(restored))
		}
		s.EventLog = f
	}
	addr, err := s.Start(o.listen)
	if err != nil {
		return err
	}
	defer s.Close()
	if o.httpAddr != "" {
		bound, err := startAdmin(o.httpAddr, s.Metrics.Registry(), s.Healthy)
		if err != nil {
			return err
		}
		// Advertise the admin endpoint in the scheduler file (written
		// below) so tooling discovers it alongside the dispatch address.
		s.AdminHTTP = bound
		fmt.Fprintf(stdout, "admin endpoint on http://%s/ (/metrics, /healthz, /debug/pprof/)\n", bound)
	}
	if o.schedFile != "" {
		if err := s.WriteSchedulerFile(o.schedFile); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "flow scheduler listening on %s\n", addr)
	waitForSignal()
	return nil
}

// workerOptions is the `worker` flag block: the shared connection flags
// plus worker identity and heartbeat cadence.
type workerOptions struct {
	conn      connFlags
	id        string
	heartbeat time.Duration
}

func (o *workerOptions) register(fs *flag.FlagSet) {
	o.conn.register(fs, 30*time.Second)
	fs.StringVar(&o.id, "id", fmt.Sprintf("worker-%d", os.Getpid()), "worker identity")
	fs.DurationVar(&o.heartbeat, "heartbeat", 15*time.Second, "send a liveness heartbeat to the scheduler on this interval (0 disables); pair with sched -heartbeat-timeout to detect wedged workers")
}

// workerCmd runs one dataflow worker serving the registered campaign
// kernels — terminal 2 (started once per GPU in the paper, up to 6,000
// times). It exits when interrupted or when the scheduler goes away.
func workerCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	var o workerOptions
	o.register(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := o.conn.validate("worker"); err != nil {
		return err
	}
	experiments.RegisterCampaignKernels()
	w := flow.NewWorker(o.id, flow.SpecHandler())
	w.HeartbeatInterval = o.heartbeat
	if err := w.Dial(o.conn.dialOptions()); err != nil {
		return err
	}
	defer w.Close()
	fmt.Fprintf(stdout, "worker %s serving kernels %v\n", o.id, flow.DefaultRegistry().Names())

	// Exit on a signal or when the scheduler connection drops.
	done := make(chan struct{})
	go func() {
		w.Wait()
		close(done)
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-done:
	case <-sig:
	}
	return nil
}

// submitOptions is the `submit` flag block: the shared connection flags,
// the campaign definition, and the submit-only result handling knobs.
type submitOptions struct {
	conn          connFlags
	cf            campaignFlags
	resultTimeout time.Duration
	resume        string
	campaign      string
}

func (o *submitOptions) register(fs *flag.FlagSet) {
	o.cf.register(fs)
	o.conn.register(fs, 10*time.Second)
	fs.DurationVar(&o.resultTimeout, "result-timeout", flow.DefaultResultTimeout,
		"fail when no result arrives for this long (0 disables); raise it when individual tasks run long")
	fs.StringVar(&o.resume, "resume", "", "resume an interrupted campaign from a scheduler event log (sched -event-log): a task the log records done is not dispatched again, its result is read back from the log; the report is byte-identical to an uninterrupted run. A result is reused only for the same spec bytes, which lead with the kernel's name and epoch (campaign/infer@2), so what a build of another kernel epoch logged is dropped, and stderr counts it")
	fs.StringVar(&o.campaign, "campaign", "", "campaign name stamped on every submitted task: the fair-share lane and admission-quota namespace on a shared scheduler (sched -policy fair / -quota), and the monitor -campaign filter key; empty keeps single-tenant behavior")
}

// submitCmd runs the campaign against a remote cluster — terminal 3, the
// driving script. Every stage ships named-job specs to the workers; the
// printed report is byte-identical to `run` with the same flags.
func submitCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	var o submitOptions
	o.register(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := o.conn.validate("submit"); err != nil {
		return err
	}
	cf := &o.cf
	cr, err := cf.campaign()
	if err != nil {
		return err
	}
	if o.resume != "" {
		f, err := os.Open(o.resume)
		if err != nil {
			return err
		}
		done, note, err := resumeResults(f)
		f.Close()
		if err != nil {
			return err
		}
		// Stderr, so the stdout report stays byte-identical to an
		// uninterrupted run.
		fmt.Fprintln(os.Stderr, note)
		cr.cfg.Resume = done
	}
	fl, err := exec.Connect(o.conn.dialOptions())
	if err != nil {
		return err
	}
	defer fl.Close()
	fl.SetResultTimeout(o.resultTimeout)
	if o.campaign != "" {
		fl.SetCampaign(o.campaign)
	}
	trace := &exec.Trace{}
	if cf.wantTrace() {
		fl.SetTrace(trace)
	}
	cr.cfg.Executor = fl
	cr.cfg.Remote = &core.RemoteCampaign{Seed: cf.seed, Species: cr.sp.Code}

	rep, err := core.RunCampaign(cr.env.Engine, cr.env.FeatureGen(), cr.proteins, cr.env.FS, core.ReducedDatabase(), cr.cfg)
	if err != nil {
		return err
	}
	printReport(stdout, cr, rep)
	return cf.finishStats(trace)
}

// resumeResults reads the finished tasks (spec → result) of a scheduler
// event log and keeps those of the kernels this build runs. A kernel name
// carries its epoch, so a logged spec of any other name, another epoch of
// one of ours included, could never match a spec this build submits; note
// is the stderr line saying how many results were read, and how many were
// dropped for which kernels.
func resumeResults(r io.Reader) (done map[string][]byte, note string, err error) {
	if done, err = events.CompletedFromLog(r); err != nil {
		return nil, "", err
	}
	read := len(done)
	stale := map[string]bool{}
	for key := range done {
		kernel := "(no spec envelope)"
		if spec, err := flow.DecodeSpec([]byte(key)); err == nil {
			kernel = spec.Kernel
		}
		switch kernel {
		case core.KernelFeature, core.KernelInfer, core.KernelRelax:
			continue
		}
		stale[kernel] = true
		delete(done, key)
	}
	note = fmt.Sprintf("resume: %d task results read from the log", read)
	if len(stale) > 0 {
		note += fmt.Sprintf(", %d for kernels this build does not run: %s",
			read-len(done), strings.Join(slices.Sorted(maps.Keys(stale)), ", "))
	}
	return done, note + "; dispatching only the remainder", nil
}

// monitorCmd attaches a read-only monitor to a running scheduler — the
// fourth terminal of the deployment. It needs no cooperation from the
// submitting client: the scheduler replays its full event backlog, then
// streams live transitions, and the monitor renders queue depth,
// per-worker in-flight counts, and throughput as they change. Attaching
// or detaching never perturbs the campaign (the report is byte-identical
// with or without a monitor connected).
func monitorCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("monitor", flag.ContinueOnError)
	var conn connFlags
	conn.register(fs, 0)
	jsonOut := fs.Bool("json", false, "print raw event records as JSONL (the sched -event-log format) instead of live summary lines")
	campaign := fs.String("campaign", "", "only show task events for this campaign (submit -campaign); fleet-wide events (worker join/leave, truncation) always pass")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := conn.validate("monitor"); err != nil {
		return err
	}
	m, err := flow.DialMonitor(conn.dialOptions())
	if err != nil {
		return err
	}
	m.Campaign = *campaign
	defer m.Close()
	// Detach on a signal: closing the monitor fails the blocking Next, so
	// the loop ends cleanly and prints its summary.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		<-sig
		m.Close()
	}()
	return runMonitor(m, stdout, *jsonOut)
}

// eventSource is the stream runMonitor drains — flow.Monitor in
// production, a scripted source in tests.
type eventSource interface {
	Next() (events.Event, error)
}

// runMonitor drains the monitor's event stream until the scheduler goes
// away or the monitor is closed. In raw mode every event is echoed as
// JSONL — byte-identical to the scheduler's -event-log file, which the
// e2e suite exploits. Otherwise each event becomes one live summary line
// followed by a closing throughput summary. A clean stream end
// (scheduler shutdown, Ctrl-C detach — flow.ErrStreamEnd) is the normal
// exit; any other error (invalid frame, abrupt reset) is surfaced, so a
// truncated -json capture never masquerades as a complete log.
func runMonitor(m eventSource, w io.Writer, raw bool) error {
	if raw {
		enc := json.NewEncoder(w)
		for {
			e, err := m.Next()
			if err != nil {
				if errors.Is(err, flow.ErrStreamEnd) {
					return nil
				}
				return err
			}
			if err := enc.Encode(e); err != nil {
				return err
			}
		}
	}
	f := events.NewFold()
	for {
		e, err := m.Next()
		if err != nil {
			if !errors.Is(err, flow.ErrStreamEnd) {
				return err
			}
			break
		}
		f.Observe(&e)
		subject := e.Task
		if subject == "" {
			subject = e.Worker
		}
		detail := ""
		switch {
		case e.Err != "":
			detail = " err=" + e.Err
		case e.Type.TaskScoped() && e.Worker != "":
			detail = " worker=" + e.Worker
		}
		t := f.Total
		fmt.Fprintf(w, "%12.3fs %-11s %-24s queue=%-5d busy=%-4d done=%-6d failed=%-3d workers=%d%s\n",
			e.Seconds(), e.Type, subject,
			t.Queued, t.Running, t.Done, t.Failed, f.Connected, detail)
	}
	t := f.Total
	span := float64(f.NowNS-f.FirstNS) / 1e9
	throughput := 0.0
	if span > 0 {
		throughput = float64(t.Done) / span
	}
	fmt.Fprintf(w, "monitor: %d received, %d done, %d failed, %d dropped over %.3f s (%.2f tasks/s)\n",
		t.Received, t.Done, t.Failed, t.Dropped, span, throughput)
	return nil
}

func waitForSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
}

func predictCmd(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ContinueOnError)
	code := fs.String("species", "DVU", "species code")
	id := fs.String("id", "", "protein ID (e.g. DVU_00001)")
	out := fs.String("out", "", "output PDB path (default stdout)")
	seedv := fs.Uint64("seed", experiments.DefaultSeed, "campaign seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("missing -id")
	}
	sp, err := findSpecies(*code)
	if err != nil {
		return err
	}
	env := experiments.NewEnv(*seedv)
	p := env.Proteome(sp)
	var target *proteome.Protein
	for i := range p.Proteins {
		if p.Proteins[i].Seq.ID == *id {
			target = &p.Proteins[i]
			break
		}
	}
	if target == nil {
		return fmt.Errorf("no protein %q in %s", *id, sp.Code)
	}

	feats, err := env.FeatureGen().Features(*target)
	if err != nil {
		return err
	}
	// Five models, keep the best by pTMS, then materialize and relax it.
	best, bestModel := -1.0, 0
	for m := 0; m < fold.NumModels; m++ {
		pred, err := env.Engine.Infer(fold.Task{
			ID: target.Seq.ID, Length: target.Seq.Len(), Features: feats,
			Model: m, Preset: fold.Genome, NodeMemGB: 64,
		})
		if err != nil {
			return err
		}
		if pred.PTMS > best {
			best, bestModel = pred.PTMS, m
		}
	}
	pred, err := env.Engine.Infer(fold.Task{
		ID: target.Seq.ID, Length: target.Seq.Len(), Features: feats,
		Model: bestModel, Preset: fold.Genome, NodeMemGB: 64, WantCoords: true,
	})
	if err != nil {
		return err
	}
	before := relax.CountViolations(pred.CA)
	rr, err := relax.Relax(pred.CA, pred.SC, relax.DefaultOptions(relax.PlatformGPU))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: model %d, pLDDT %.1f, pTMS %.3f, %d recycles; violations %d->%d bumps\n",
		*id, bestModel+1, pred.MeanPLDDT, pred.PTMS, pred.Recycles, before.Bumps, rr.After.Bumps)

	model, err := pdb.FromTrace(target.Seq.ID, target.Seq.Residues, rr.CA, rr.SC, pred.PLDDT)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return pdb.Write(w, model)
}
