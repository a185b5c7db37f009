package flow

import (
	"fmt"
	"net"
	"os"
	"time"
)

// Retry backoff of dial: first retry after dialBackoffMin, doubling up to
// dialBackoffMax until the budget is exhausted.
const (
	dialBackoffMin = 50 * time.Millisecond
	dialBackoffMax = 2 * time.Second
)

// DialOptions is the one way to reach a scheduler: a single options
// struct consumed by DialClient, DialMonitor, Worker.Dial, and
// exec.Connect.
type DialOptions struct {
	// Addr is the scheduler address (host:port). Exactly one of Addr and
	// SchedulerFile must be set.
	Addr string

	// SchedulerFile resolves the address from a scheduler file written by
	// Scheduler.WriteSchedulerFile. With a Retry budget, a missing or
	// mid-write file is retried inside the same budget as the dial, so
	// the peer may start before the scheduler exists at all.
	SchedulerFile string

	// Retry keeps retrying the dial (and the scheduler file appearing)
	// with exponential backoff for this long. Zero or negative means
	// exactly one attempt.
	Retry time.Duration

	// Codec names the wire codec: "" or WireBinary, the only one. Any
	// other name is refused before dialing.
	Codec string
}

// dial resolves the scheduler address (waiting on the scheduler file when
// asked) and dials it, each attempt bounded by dialTimeout, retrying both
// within one shared budget.
func dial(opts DialOptions) (net.Conn, error) {
	if !ValidWire(opts.Codec) {
		return nil, fmt.Errorf("flow: unknown wire codec %q; this build speaks only %q", opts.Codec, WireBinary)
	}
	if (opts.Addr == "") == (opts.SchedulerFile == "") {
		return nil, fmt.Errorf("flow: dial needs exactly one of Addr or SchedulerFile")
	}
	addr := opts.Addr
	budget := opts.Retry
	if path := opts.SchedulerFile; path != "" {
		deadline := time.Now().Add(budget)
		// A missing or unparseable (mid-write) file is retried like a
		// refused dial.
		var sf SchedulerFile
		err := backoff("flow: scheduler file "+path, budget, func(time.Duration) (err error) {
			sf, err = readSchedulerFile(path)
			return err
		})
		if err != nil {
			return nil, err
		}
		addr = sf.Address
		if budget > 0 {
			budget = time.Until(deadline)
		}
	}
	var conn net.Conn
	err := backoff("flow: dial "+addr, budget, func(left time.Duration) (err error) {
		timeout := dialTimeout
		if left > 0 {
			timeout = min(timeout, left)
		}
		conn, err = net.DialTimeout("tcp", addr, timeout)
		return err
	})
	if err != nil && budget <= 0 {
		return nil, fmt.Errorf("flow: dial %s: %w", addr, err)
	}
	return conn, err
}

// backoff calls try until it succeeds or the budget is spent, sleeping
// dialBackoffMin, doubling up to dialBackoffMax, between attempts; try is
// told how much of the budget is left. The first attempt is always made,
// and a zero or negative budget means exactly that one, whose error comes
// back as it is. Running out of a positive budget names it after what.
func backoff(what string, budget time.Duration, try func(left time.Duration) error) error {
	deadline := time.Now().Add(budget)
	wait := dialBackoffMin
	for {
		err := try(time.Until(deadline))
		if err == nil || budget <= 0 {
			return err
		}
		if time.Now().Add(wait).After(deadline) {
			return fmt.Errorf("%s: retry budget %s exhausted: %w", what, budget, err)
		}
		time.Sleep(wait)
		wait = min(2*wait, dialBackoffMax)
	}
}

// dialPeer is how every peer opens its connection: dial, then the
// handshake with the peer's first frame (nil for a client, whose first
// frame is its submit). who names the peer in errors.
func dialPeer(opts DialOptions, who string, first *message) (net.Conn, *binaryCodec, error) {
	conn, err := dial(opts)
	if err != nil {
		return nil, nil, fmt.Errorf("flow: %s dial: %w", who, err)
	}
	c, err := handshake(conn, first)
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("flow: %s handshake: %w", who, err)
	}
	return conn, c, nil
}

func readSchedulerFile(path string) (SchedulerFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SchedulerFile{}, fmt.Errorf("flow: reading scheduler file: %w", err)
	}
	return ParseSchedulerFile(data)
}
