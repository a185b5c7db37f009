package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/events"
	"repro/internal/flow"
)

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
	if err := conn.validate("top"); err != nil {
		return err
	}
	m, err := flow.DialMonitor(conn.dialOptions())
	if err != nil {
		return err
	}
	m.Campaign = *campaign
	defer m.Close()
	// Detach on a signal, exactly like monitor: closing the monitor fails
	// the blocking Next, the loop renders once more and exits cleanly.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		<-sig
		m.Close()
	}()
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
