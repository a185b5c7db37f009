// Package repro is a from-scratch Go reproduction of "Proteome-scale
// Deployment of Protein Structure Prediction Workflows on the Summit
// Supercomputer" (Gao et al., IPPS 2022, arXiv:2201.10024).
//
// The repository builds every system the paper depends on — a Dask-like
// distributed dataflow engine, a Summit/Andes cluster simulator with an
// LSF-like batch queue, sequence libraries with k-mer search and profile
// HMMs, an AlphaFold2 inference surrogate with the paper's four presets and
// dynamic recycling, a molecular-mechanics relaxation stage, and the
// structural-comparison metrics (Kabsch, TM-score, SPECS) — and reproduces
// every table and figure of the evaluation section.
//
// Every compute stage — feature generation, the (target x model)
// inference fan-out, the high-memory retry wave, the relaxation
// protocols, the all-vs-all complex screen, and the independent
// multi-wave dataflow simulations — fans out through the Executor
// abstraction in internal/exec, which unifies the repository's two
// execution back ends behind one deterministic contract: results are
// collected by submission index, never by completion order, and the
// lowest-index error surfaces exactly as the serial loop would.
//
// Three executors implement the contract. The pool executor wraps the
// bounded in-process worker pool of internal/parallel. The flow executor
// serializes every batch through the dataflow engine of internal/flow —
// the same scheduler/worker/client protocol the paper deploys Dask in —
// over loopback TCP, one flow task per work item, pulled by workers in
// dataflow fashion. The remote flow executor (exec.Connect) is a
// client dialed into a standalone scheduler whose workers run in other OS
// processes, possibly on other hosts: closures cannot cross process
// boundaries, so the three workflow stages ship serializable named-job
// specs (flow.JobSpec — a registered kernel name plus JSON arguments) and
// each worker rebuilds the deterministic campaign world from the spec's
// (seed, species) identity (internal/experiments.RegisterCampaignKernels).
// Because nothing observable depends on completion order or on where a
// kernel ran, the back ends are interchangeable: every table and figure
// is byte-identical across executors and worker counts (enforced by
// TestTable1CrossExecutor, TestCampaignCrossExecutor, and — across real
// scheduler/worker OS processes — TestCampaignMultiProcess, extending
// TestTable1ParallelMatchesSerial). Select the back end with
// afbench/proteomectl -executor=pool|flow (and the worker budget with
// -parallelism, 0 = GOMAXPROCS), or programmatically via Env.Executor and
// core.Config.Executor.
//
// The multi-process deployment itself is four proteomectl subcommands,
// one per terminal or host — the paper's Summit recipe (Section 3.3),
// plus a read-only monitor:
//
//	proteomectl sched -listen :8786 -scheduler-file sched.json -event-log events.jsonl
//	proteomectl worker -scheduler-file sched.json   # repeat per GPU
//	proteomectl submit -scheduler-file sched.json -species DVU
//	proteomectl monitor -scheduler-file sched.json  # optional, any time
//
// See examples/dask_cluster/README.md for the full recipe. Workers are
// disposable: the scheduler requeues in-flight tasks when one disconnects
// and the campaign completes with the identical report — and elastic: a
// worker that joins mid-campaign starts pulling queued tasks immediately
// (TestSubmitElasticWorkerJoin).
//
// Every executor also records first-class per-task telemetry: an
// exec.TaskStats row per work item ({task, kernel, worker placement,
// enqueue/start/finish, wire bytes}) delivered to a pluggable
// exec.TraceSink. The flow protocol carries the scheduler's enqueue stamp
// and the worker's timing bracket back in every Result, pool workers
// stamp the same fields in-process, and `proteomectl submit -stats
// tasks.csv` writes the paper's per-task processing-times CSV from a real
// multi-process campaign (exec.StatsHeader is the schema;
// internal/analysis.LoadBalance computes the per-worker busy fractions
// and task-time histogram from it). Tracing is observation only: reports
// are byte-identical with stats on or off. The opt-in `-summary` flag
// additionally keeps full per-protein feature and prediction payloads
// off the wire — feature kernels return a core.FeatureDigest and
// inference kernels a core.PredictionDigest instead — producing the
// byte-identical printed report with strictly fewer wire bytes
// (TestSubmitSummaryMode measures the reduction in the recorded trace).
//
// The scheduler side is observable through internal/events, the
// structured counterpart of Dask's per-task transition log: every task
// walks the typed state machine received → queued → assigned → running →
// done/failed (workers join and leave the same stream), stamped
// scheduler-side with monotonic times, persisted as JSONL (`sched
// -event-log`), and streamed over the wire to read-only monitor clients
// — flow.ConnectMonitor / `proteomectl monitor` replays the full backlog
// and then follows live, so a monitor attaching mid-campaign observes
// the same sequence as the persisted log. One reducer, events.Fold,
// interprets that state machine — global and per-campaign tallies, open
// executions, each worker's busy and connected time — and everything an
// operator reads is a projection of it: the lines `monitor` prints, the
// `top` table, the /metrics series, and the offline replay.
// events.ReplayEvents reconstructs per-worker busy intervals and
// queue-depth-over-time from a log alone, and internal/svgplot renders
// the Fig-2-style worker-timeline + queue-depth figure as
// dependency-free, byte-deterministic SVG — with an overlay mode drawing
// a recorded campaign against cluster.SimulateDataflow's prediction for
// the same task set (`afbench -timeline`, `proteomectl run/submit
// -timeline`, analysis.ReplayTimeline for event logs). Monitoring and
// figure rendering are observation only: TestMonitorMidCampaign proves a
// campaign report byte-identical with and without a monitor attached,
// and that the event log's task set exactly matches the stats CSV.
//
// The same event stream makes campaigns crash-safe. Workers heartbeat
// from a dedicated goroutine (`worker -heartbeat`); a worker silent past
// `sched -heartbeat-timeout` is declared dead with a worker_lost event
// and its in-flight task requeued — catching frozen processes whose TCP
// connections never drop. Requeues are budgeted: the scheduler counts
// per-task delivery attempts, and a task whose worker died on every
// attempt (`sched -max-retries`) is quarantined — terminal failed +
// quarantined events with the attempt history, a failed result to the
// client — instead of cycling forever; a JobSpec's escalation payload is
// swapped in on the first redelivery (the high-memory retry wave,
// scheduler-side). Initial dials retry with backoff under a budget
// (flow.DialOptions.Retry, `-dial-retry`) so process start order is free, and
// the in-memory event backlog can be bounded (`sched -event-backlog`)
// with an explicit truncated marker for late subscribers. A killed
// scheduler resumes from its own log (`sched -resume-log` restores the
// stream, continues sequence numbers, and appends to the same file), and
// a killed campaign resumes event-sourced: `submit -resume events.jsonl`
// (and/or -resume-stats tasks.csv) replays what completed into an
// events.CompletedSet, and exec.MapSpecResume recomputes those tasks
// locally — every stage value is a pure function of (seed, species,
// task) — while dispatching only the remainder, so the report stays
// byte-identical to an uninterrupted run and the resumed stats CSV
// records strictly fewer dispatched tasks (TestResumeAfterSchedulerKill).
//
// One scheduler can also serve several campaigns at once — the paper's
// fleet is a shared resource, not one submitter's. Each client may name
// its campaign (`submit -campaign`, flow.Client.Campaign); the name rides
// every task, event, stats row, and report section, so `monitor
// -campaign` and the analysis layer attribute work per tenant. The
// handout queue is a pluggable policy (`sched -policy`): the default
// fifo keeps the wire and every report byte-identical to a
// single-tenant scheduler, while fair round-robins handout across
// campaigns (unnamed submitters get one lane per connection) so a small
// campaign is not starved behind a proteome-scale backlog, and `sched
// -quota N` caps each campaign's unfinished tasks, deferring admission
// — and the submit ack, for backpressure — until earlier tasks settle.
// Fairness is scheduling only: TestTwoCampaignsFairShare runs two
// contending campaigns on one fleet and requires each report
// byte-identical to its solo run, with overlapping completion windows.
//
// The wire format itself is pluggable (flow.Codec): the default JSON
// codec keeps the legacy newline-delimited wire byte-identical, and a
// length-prefixed binary codec with pooled buffers cuts per-task
// overhead for dispatch-bound campaigns. Codecs are negotiated per
// connection by a one-line hello — JSON peers send nothing, so old and
// new processes interoperate and mixed fleets (some workers `-wire
// binary`, some `-wire json`) produce byte-identical reports
// (TestCampaignCrossCodec). The scheduler can also hand out up to
// `sched -batch` tasks per frame, with workers acking in kind, so
// frame count stops scaling 1:1 with task count; the batch size is
// negotiated per worker at registration, and a legacy peer that
// advertises no batching capability keeps receiving the single-task
// form.
//
// Scheduler I/O is non-blocking end to end: every worker, client, and
// monitor connection gets a bounded outbound frame queue (an outbox)
// drained by a dedicated writer goroutine that coalesces queued frames
// into one flush and applies a per-write deadline, so the
// single-goroutine dispatch loop never parks on a peer's socket. A peer
// that stops draining — kernel buffers full past `sched
// -write-timeout`, or its queue overflowing `sched -outbox-depth` —
// is declared dead and disconnected; its in-flight tasks requeue
// through the ordinary retry budget and the campaign completes on the
// healthy fleet with the identical report (TestSlowPeerFaultInjection,
// across real processes). Size -outbox-depth at least as large as the
// biggest wave of results one client awaits; raise -write-timeout for
// genuinely slow links rather than unbounding the queue. Event
// persistence is off the dispatch path too: `sched -event-log` writes
// through events.AsyncSink, a bounded buffer with
// its own writer goroutine that preserves stream order, drains fully on
// clean shutdown (the persisted log is complete — what `-resume-log`
// and `submit -resume` rely on), and under sustained overload drops
// rather than stalls, recording the loss as an explicit truncated
// marker; a log with such a marker has non-contiguous sequence numbers
// and will not restore, which is the honest outcome after an overloaded
// crash. BenchmarkDispatchThroughput drives 256/1024/4096-worker
// in-process fleets through both codecs and reports tasks/sec and
// allocs/op; BenchmarkDispatchSlowPeer adds a wedged worker and a
// never-draining monitor to the 256-worker fleet and must stay at the
// all-healthy level — a slow peer costs its own connection, never fleet
// throughput.
//
// Live observability is a first-class subsystem (the terminal answer to
// the Dask dashboard the paper leans on). `sched -http localhost:6060`
// serves GET /metrics — every task transition, worker join/leave/lost,
// retry, quarantine, and async-sink drop folded into Prometheus text
// series (internal/obs, dependency-free) labeled by campaign and worker
// — plus /healthz (200 while serving, 503 from the moment shutdown
// begins) and the standard /debug/pprof/ endpoints; the bound address is
// advertised in the scheduler file. Workers piggyback runtime gauges
// (goroutines, live heap bytes, tasks executed, cumulative busy time) on
// their existing heartbeats — appended to the wire message under the
// append-last convention, so mixed fleets interoperate and a legacy
// worker's series are simply absent, never zero garbage. The metrics
// sink runs synchronously under the hub lock and is allocation-free at
// steady state; the gated dispatch benchmarks measure the path with
// metrics enabled. `proteomectl top` renders the same picture without
// HTTP — a refreshing terminal table (queue depth, per-campaign
// queued/running/done/failed, per-worker occupancy, dispatch rate) over
// the read-only monitor protocol, and `top -metrics-snapshot` prints one
// Prometheus scrape derived from the event stream for scripts and tests.
// The e2e contract: the /metrics counters after a real multi-worker
// campaign must exactly match the persisted event log's tallies
// (TestMetricsEndpointMatchesEventLog).
//
// CI enforces the perf + determinism contract: a bench-regression job
// gates the kernel microbenchmarks and the dispatch-throughput rows
// against BENCH_BASELINE.json through cmd/benchguard (allocs/op exactly
// where deterministic, within an explicit band for the
// scheduling-dependent dispatch rows, ns/op with generous tolerance),
// the execution-layer packages (internal/flow, internal/parallel,
// internal/exec, internal/obs) carry an 80% coverage floor that includes
// the remote-dispatch path, the multi-process e2e suite runs under -race, and
// the wire-protocol and FASTA decoders — including the binary framing —
// are continuously fuzzed (short budget per push; seed corpora under
// testdata/fuzz).
//
// Run experiments with cmd/afbench. The benchmarks in bench_test.go
// regenerate each experiment via `go test -bench`; BENCH_BASELINE.json
// records the kernel-level baselines the allocation diet (pooled alignment
// matrices, reusable relaxation scratch) and the relaxation kernel's
// Verlet pair list (internal/relax: atoms are binned a handful of times
// per minimization instead of once per energy evaluation, with results
// bitwise unchanged) are measured against; bench/ measures the system end
// to end.
package repro
