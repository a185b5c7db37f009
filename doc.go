// Package repro is a from-scratch Go reproduction of "Proteome-scale
// Deployment of Protein Structure Prediction Workflows on the Summit
// Supercomputer" (Gao et al., IPPS 2022, arXiv:2201.10024).
//
// It builds every system the paper depends on — a Dask-like dataflow
// engine, a Summit/Andes cluster simulator, sequence libraries with a
// k-mer prefilter and Smith-Waterman search, an AlphaFold2 inference
// surrogate with the paper's four presets and dynamic recycling, a
// molecular-mechanics relaxation stage, and the structural-comparison
// metrics — and
// reproduces every table and figure of the evaluation section. This file
// is the map: what the layers are, what each one promises, and which test
// holds it to that. How the tree got here is in CHANGES.md.
//
// # Layers
//
//	cmd/afbench        cmd/proteomectl (run | sched | worker | submit | monitor | top)
//	      │                   │
//	      ▼                   ▼
//	internal/experiments ─► internal/core        feature → inference → relax campaign
//	      │                   │
//	      │                   ▼
//	      │            internal/exec             Executor: pool | remote flow
//	      │              │          │
//	      │              ▼          ▼
//	      │   internal/parallel   internal/flow ─► internal/events ─► internal/obs
//	      │   (in-process pool)   (scheduler,      (event stream,     (/metrics)
//	      │                        worker, client,  Fold, log, replay)
//	      │                        monitor, wire)
//	      ▼
//	science and models, no scheduling: seq seqdb msa fold relax geom casp pdb
//	proteome cluster fsim rng · reporting: analysis metrics svgplot
//
// bench/ is a separate module that measures the whole stack from outside,
// over real processes and sockets; BENCHMARK.json is its contract.
//
// # Execution: one contract, two back ends
//
// Every compute stage — feature generation, the (target × model)
// inference fan-out, the high-memory retry wave, the relaxation
// protocols, the all-vs-all complex screen — fans out through
// exec.Executor. Results are collected by submission index, never by
// completion order, and the lowest-index error surfaces exactly as a
// serial loop would, so the back ends are interchangeable: the pool
// (internal/parallel) and a remote flow cluster dialed with exec.Connect
// whose workers live in other OS processes. Closures cannot cross a
// process boundary, so campaign stages
// ship named-job specs (flow.JobSpec: a registered kernel name plus the
// kernel's arguments in a positional binary layout, internal/core's
// payload.go) and each worker rebuilds the deterministic campaign world
// from the spec's (seed, species) identity; a kernel answers with a few
// bytes the stage decodes through the same layouts. To the engine a
// payload is opaque bytes. Every table and figure is
// byte-identical across executors, worker counts, codecs and injected
// faults: TestTable1ParallelMatchesSerial and
// TestCampaignParallelMatchesSerial in internal/experiments,
// TestCampaignRemoteSpecDispatch (remote workers in one process), and
// across real processes TestCampaignMultiProcess in cmd/proteomectl.
//
// # The flow engine
//
// internal/flow is the paper's Dask deployment (Section 3.3) in
// miniature: a Scheduler started first that advertises itself in a
// scheduler file, Workers that register and pull tasks in dataflow
// fashion, a Client that submits a batch with one Map call and streams
// back per-task completion records, and read-only Monitors:
//
//	proteomectl sched -listen :8786 -scheduler-file sched.json -event-log events.jsonl
//	proteomectl worker -scheduler-file sched.json   # repeat per GPU
//	proteomectl submit -scheduler-file sched.json -species DVU
//	proteomectl monitor -scheduler-file sched.json  # optional, any time
//
// examples/dask_cluster/README.md is the operator's guide to every flag.
//
// One wire version, one codec. The paper starts scheduler, workers and
// client from one software environment inside one batch job, and every
// peer here is built from this tree, so the protocol has exactly one
// version (wireVersion in internal/flow/codec.go), one codec — a
// length-prefixed positional binary layout — and every frame exactly one
// shape. Each connection opens with a hello line, "flow-wire binary
// <version>", in the same write as its first frame
// (TestHandshakeIsOneWrite). The scheduler refuses a connection whose
// hello is missing, malformed, names another codec or names another
// version before it decodes a single frame, and nothing downstream
// tolerates an absent field. Tested by TestAcceptCodecNegotiation and
// TestSchedulerRefusesPeerWithoutHello (the refusal), TestWireGolden
// (the bytes of every frame type are pinned per version: change them
// without bumping wireVersion and it fails),
// TestBinaryDecodeRejectsCorruptFrames plus the fuzz targets
// FuzzAcceptHello, FuzzDecodeBinaryFrame, FuzzDecodeSpec and
// FuzzKernelPayload (untrusted bytes). The wire version covers frame
// bytes only. What a campaign kernel answers is pinned per kernel epoch,
// not per version: each registered name ends in its epoch
// ("campaign/infer@2", internal/core/remote.go), bumped when the kernel's
// answer to the same spec bytes changes, and TestKernelPayloadGolden
// fails until it is. The name leads every spec envelope, so a worker of
// another epoch fails the task as an unknown kernel, and a `submit
// -resume` log of another epoch matches no spec
// (TestCampaignRemoteStaleWorkerRefuses,
// TestCampaignRemoteResumeOtherEpoch).
//
// One dispatcher. All scheduler state lives in one value
// (internal/flow/dispatcher.go) with a method per input — register,
// heartbeat, result, submit, a worker or a client gone, the heartbeat
// sweep — that reads no clock, touches no socket and starts no goroutine;
// one event-loop goroutine stamps each input with the time and calls the
// method. Every task belongs to one tenant, its campaign or, when it
// names none, its submitter's connection: the tenant record is resolved
// once, when the task is received, and holds the lane the tenant's tasks
// wait in, the admitted count `sched -quota` bounds and the tasks deferred
// beyond it. A lane is a FIFO ring; the queue round-robins handout over
// the lanes that hold tasks, `-policy fair` giving each tenant its own
// lane and `-policy fifo` all of them one. Workers and tenants are kept in
// first-seen order, so the same inputs give the same event stream.
// Besides the queue there is a free-worker list and, per worker, the
// unacked tasks of its current handout — the only record of in-flight
// work. A handout carries one or more tasks in one
// frame, is acked in one frame, and the ack is forwarded as one frame
// per run of results owed to the same client. By default the scheduler
// sizes each handout itself — about 1 ms of handler time, estimated from
// what the results of the same submit frame have reported, at most 64
// tasks, a redelivered or not yet measured task always alone — so
// minute-long targets go out one per worker and microsecond kernels some
// twenty at a time; `sched -batch N` fixes the size instead
// (internal/flow/handout.go). Frames leave through the peers' outboxes:
// each is bounded and drained by its own writer goroutine
// (`-outbox-depth`, `-write-timeout`), and a peer that stops
// draining is dropped, never waited for. A worker leaves through one
// teardown whatever noticed it gone — read or write failure, a handout
// that could not be enqueued, heartbeat silence past
// `-heartbeat-timeout` — and its handout returns to the head of the
// queue in handout order, each task charged one attempt; a task whose
// worker died on every attempt (`-max-retries`) is quarantined instead
// of cycling. A redelivery is the task as submitted: the paper's
// high-memory rerun is the campaign's own second inference wave
// (core.InferenceStage). `sched -quota` caps a tenant's admitted tasks
// and withholds the submit ack as backpressure. Because the
// dispatcher needs no socket, the same scripts run through a live
// scheduler and straight through its methods (TestTranscripts, against
// files recorded before the loop became a dispatcher), and seeded and
// fuzzed interleavings of every input check after each step that no task
// settles twice, no quota is exceeded and no dropped peer is handed
// anything (TestDispatcherInterleavings, FuzzDispatcher). Tested in
// internal/flow also by TestFillHandoutSizing,
// TestSelfSizedHandoutIsolatesWorkerKiller,
// TestForwardsCoalescePerClient, TestBatchRequeueOnWorkerDeath,
// TestHandoutFailureRequeuesWholeBatch, TestDuplicateAckFromLiveWorker,
// TestLateResultFromDroppedWorkerIgnored,
// TestRetryBudgetQuarantinesPoisonTask, TestQuotaDefersAdmissionAndAck,
// TestFairShareInterleavesTwoCampaigns, TestTenantsAreReleased,
// TestSameInputsSameStream, TestWedgedWorkerDoesNotWedgeScheduler and
// TestSchedulerLeaksNoGoroutines, and across processes by
// TestSubmitSurvivesWorkerChurn, TestSlowPeerFaultInjection and
// TestTwoCampaignsFairShare.
//
// # Observation
//
// Every transition the loop makes is an events.Event — received → queued
// → assigned → running → done | failed, plus worker join, leave and lost
// — stamped scheduler-side, kept in a hub, persisted as JSONL (`sched
// -event-log`) and streamed to monitors, backlog first. The log is
// written off the dispatch path by a follower of the hub's history, so
// it holds every event the hub does; it gaps, at a truncated marker, only
// when `-event-backlog` bounds the hub. One reducer, events.Fold,
// interprets that state machine, and everything an operator reads is a
// projection of it: `monitor`, `top`, the Prometheus series behind
// `sched -http` (internal/obs), and events.ReplayEvents offline.
// Submitting executors record the other half, an exec.TaskStats row per
// task (`submit -stats`: the paper's processing-times CSV), and the
// Fig-2-style timeline (`-timeline`, internal/svgplot) is drawn from those
// rows. Observation never changes a report. Tested by
// TestFoldInvariantsOverCorpus, TestMonitorMidCampaign (a monitor
// attached mid-campaign sees the persisted log's sequence, and the log's
// task set equals the stats CSV's), TestMetricsEndpointMatchesEventLog
// and TestStatsCSVGoldenSchema.
//
// The same log makes a campaign crash-safe: a killed scheduler restores
// its stream from its own log (`sched -resume-log`), and `submit -resume
// events.jsonl` reads back the results the log records as done (a
// received event carries the task's spec, a done event its result) and
// dispatches only the remainder, computing nothing locally, for a
// byte-identical report (TestResumeAfterSchedulerKill,
// TestCampaignRemoteResumeComputesNothing).
//
// # Performance contract
//
// BENCH_BASELINE.json holds the micro rows (compute kernels, dispatch
// throughput at 256–4096 in-process workers on both codecs, dispatch with
// a wedged peer) and cmd/benchguard gates them in CI: allocs/op exactly
// where deterministic, within a band where scheduling-dependent. bench/
// measures five end-to-end workloads with per-layer counters; see
// bench/README.md. Run the paper's experiments with cmd/afbench; the
// benchmarks in bench_test.go regenerate each one under `go test -bench`.
package repro
