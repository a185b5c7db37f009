package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/events"
	"repro/internal/flow"
)

// watch is the attach step `monitor` and `top` share: it validates the
// flags, dials a read-only monitor filtered to campaign, and closes it on
// SIGINT/SIGTERM, which fails the blocking Next so the caller's loop ends
// cleanly and prints once more. The returned func closes the monitor.
func (c *connFlags) watch(cmd, campaign string) (*flow.Monitor, func(), error) {
	if err := c.validate(cmd); err != nil {
		return nil, nil, err
	}
	m, err := flow.DialMonitor(c.dialOptions())
	if err != nil {
		return nil, nil, err
	}
	m.Campaign = campaign
	ctx, stop := signalContext()
	go func() {
		<-ctx.Done()
		m.Close()
	}()
	return m, func() { stop(); m.Close() }, nil
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
	m, closeMonitor, err := conn.watch("monitor", *campaign)
	if err != nil {
		return err
	}
	defer closeMonitor()
	return runMonitor(m, stdout, *jsonOut)
}

// eventSource is the stream runMonitor and runTop drain — flow.Monitor in
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

// topCmd is the cluster dashboard — the terminal answer to the Dask
// dashboard the paper leans on for live campaign visibility. It attaches
// over the same read-only monitor protocol as `monitor`, but instead of
// one line per event it folds the stream into a refreshing table: global
// queue depth and dispatch rate, per-campaign queued/running/done/failed,
// and per-worker occupancy. With -metrics-snapshot it prints a single
// Prometheus text scrape derived from the stream (the same series `sched
// -http` serves on /metrics) and exits — for scripts and tests that have
// no HTTP endpoint to curl.
func topCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	var conn connFlags
	conn.register(fs, 0)
	interval := fs.Duration("interval", 2*time.Second, "refresh interval for the live table")
	campaign := fs.String("campaign", "", "only count task events for this campaign (submit -campaign); fleet-wide events (worker join/leave, truncation) always pass")
	snapshot := fs.Bool("metrics-snapshot", false, "print one Prometheus text scrape derived from the event stream once the backlog drains, then exit")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	m, closeMonitor, err := conn.watch("top", *campaign)
	if err != nil {
		return err
	}
	defer closeMonitor()
	return runTop(m, stdout, topOptions{interval: *interval, snapshot: *snapshot, clear: true})
}

type topOptions struct {
	// interval is the live-table refresh period; renders also happen once
	// at stream end regardless.
	interval time.Duration
	// snapshot switches to one-shot Prometheus output: the stream is
	// folded into a flow.SchedulerMetrics and dumped after the backlog
	// drains (snapshotQuiet with no events) or the stream ends.
	snapshot bool
	// clear prefixes each render with an ANSI clear-screen, giving the
	// refreshing-dashboard effect on a terminal. Off in tests.
	clear bool
}

// snapshotQuiet is how long the stream must stay silent before a
// -metrics-snapshot is considered caught up with the scheduler's backlog
// replay and printed.
const snapshotQuiet = 500 * time.Millisecond

// runTop drains the monitor stream through a reader goroutine so the
// select below can interleave events with the refresh ticker (a blocking
// Next would freeze the table between events). A clean stream end
// (scheduler shutdown, Ctrl-C detach — flow.ErrStreamEnd) triggers a
// final render and exits 0; any other error is surfaced.
func runTop(src eventSource, w io.Writer, opts topOptions) error {
	type item struct {
		e   events.Event
		err error
	}
	ch := make(chan item, 256)
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			e, err := src.Next()
			select {
			case ch <- item{e: e, err: err}:
			case <-done:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	if opts.snapshot {
		m := flow.NewSchedulerMetrics(nil)
		timer := time.NewTimer(snapshotQuiet)
		defer timer.Stop()
		for {
			select {
			case it := <-ch:
				if it.err != nil {
					if !errors.Is(it.err, flow.ErrStreamEnd) {
						return it.err
					}
					return m.WritePrometheus(w)
				}
				m.Observe(it.e)
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(snapshotQuiet)
			case <-timer.C:
				return m.WritePrometheus(w)
			}
		}
	}

	f := events.NewFold()
	var tick <-chan time.Time
	if opts.interval > 0 {
		ticker := time.NewTicker(opts.interval)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case it := <-ch:
			if it.err != nil {
				if !errors.Is(it.err, flow.ErrStreamEnd) {
					return it.err
				}
				render(w, f, opts.clear)
				return nil
			}
			f.Observe(&it.e)
		case <-tick:
			render(w, f, opts.clear)
		}
	}
}

// render prints one table from the fold: the global counters and dispatch
// rate, a row per campaign, and a row per worker whose OCC% is the share of
// its connected time it held at least one task (events.Worker.BusyNS over
// ConnectedNS).
func render(w io.Writer, f *events.Fold, clear bool) {
	if clear {
		fmt.Fprint(w, "\x1b[2J\x1b[H")
	}
	t := f.Total
	rate := 0.0
	if span := f.NowNS - f.FirstNS; span > 0 {
		rate = float64(t.Done) / (float64(span) / 1e9)
	}
	fmt.Fprintf(w, "top: queue=%d busy=%d workers=%d done=%d failed=%d dropped=%d %.2f tasks/s\n",
		t.Queued, t.Running, f.Connected, t.Done, t.Failed, t.Dropped, rate)

	if names := f.Campaigns(); len(names) > 0 {
		fmt.Fprintf(w, "\n%-24s %7s %7s %7s %7s\n", "CAMPAIGN", "QUEUED", "RUNNING", "DONE", "FAILED")
		for _, name := range names {
			c := f.Campaign(name)
			label := name
			if label == "" {
				label = "(unnamed)"
			}
			fmt.Fprintf(w, "%-24s %7d %7d %7d %7d\n", label, c.Queued, c.Running, c.Done, c.Failed)
		}
	}

	if names := f.Workers(); len(names) > 0 {
		fmt.Fprintf(w, "\n%-16s %6s %9s %6s\n", "WORKER", "TASKS", "BUSY", "OCC%")
		for _, name := range names {
			ws := f.Worker(name)
			busy := ws.BusyNS(f.NowNS)
			occ := 0.0
			if span := ws.ConnectedNS(f.NowNS); span > 0 {
				occ = float64(busy) / float64(span) * 100
			}
			gone := ""
			if !ws.Connected {
				gone = " gone"
			}
			fmt.Fprintf(w, "%-16s %6d %8.1fs %6.1f%s\n", name, ws.Tasks, float64(busy)/1e9, occ, gone)
		}
	}
}
