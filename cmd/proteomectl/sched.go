package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/events"
	"repro/internal/flow"
)

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
	ctx, stop := signalContext()
	defer stop()
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
	<-ctx.Done()
	return nil
}
