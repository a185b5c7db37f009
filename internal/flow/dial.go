package flow

import (
	"fmt"
	"net"
	"os"
	"time"
)

// Dial retry backoff: first retry after dialBackoffMin, doubling up to
// dialBackoffMax until the budget is exhausted.
const (
	dialBackoffMin = 50 * time.Millisecond
	dialBackoffMax = 2 * time.Second
)

// DialOptions is the one way to reach a scheduler: a single options
// struct consumed by Dial, DialClient, DialMonitor, Worker.Dial, and
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

	// Codec names the wire codec this connection will speak: "" or
	// WireBinary (the default), or WireJSON for a stream a person can
	// read. The scheduler learns it from the hello, so peers choose
	// independently. Dial itself only validates it; the connection-owning
	// dialers (DialClient, Worker.Dial, DialMonitor) send the hello and
	// frame accordingly.
	Codec string

	// Timeout bounds each individual dial attempt. Zero selects the
	// package default (10s).
	Timeout time.Duration
}

// attemptTimeout resolves the per-attempt dial timeout.
func (o DialOptions) attemptTimeout() time.Duration {
	if o.Timeout > 0 {
		return o.Timeout
	}
	return dialTimeout
}

// Dial resolves the scheduler address (waiting on the scheduler file when
// asked) and dials it, retrying both within one shared budget. It is the
// single transport entry point every higher-level dialer goes through.
func Dial(opts DialOptions) (net.Conn, error) {
	if !ValidWire(opts.Codec) {
		return nil, fmt.Errorf("flow: unknown wire codec %q", opts.Codec)
	}
	if (opts.Addr == "") == (opts.SchedulerFile == "") {
		return nil, fmt.Errorf("flow: dial needs exactly one of Addr or SchedulerFile")
	}
	addr := opts.Addr
	budget := opts.Retry
	if opts.SchedulerFile != "" {
		deadline := time.Now().Add(budget)
		sf, err := waitSchedulerFile(opts.SchedulerFile, budget)
		if err != nil {
			return nil, err
		}
		addr = sf.Address
		if budget > 0 {
			budget = time.Until(deadline)
		}
	}
	return dialRetry(addr, budget, opts.attemptTimeout())
}

// dialRetry dials addr, retrying with exponential backoff (50ms doubling,
// capped at 2s) until the connection succeeds or the budget elapses. The
// first attempt is always made; a zero or negative budget means exactly
// one attempt (plain dial).
func dialRetry(addr string, budget, attempt time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	backoff := dialBackoffMin
	for {
		timeout := attempt
		if budget > 0 {
			if rem := time.Until(deadline); rem > 0 && rem < timeout {
				timeout = rem
			}
		}
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return conn, nil
		}
		if budget <= 0 {
			return nil, fmt.Errorf("flow: dial %s: %w", addr, err)
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("flow: dial %s: retry budget %s exhausted: %w", addr, budget, err)
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > dialBackoffMax {
			backoff = dialBackoffMax
		}
	}
}

// waitSchedulerFile reads and parses a scheduler file, retrying a missing
// or unparseable (mid-write) file with the same backoff as dialRetry
// until the deadline. A zero or negative budget means one attempt.
func waitSchedulerFile(path string, budget time.Duration) (SchedulerFile, error) {
	deadline := time.Now().Add(budget)
	backoff := dialBackoffMin
	for {
		sf, err := readSchedulerFile(path)
		if err == nil {
			return sf, nil
		}
		if budget <= 0 {
			return SchedulerFile{}, err
		}
		if time.Now().Add(backoff).After(deadline) {
			return SchedulerFile{}, fmt.Errorf("flow: scheduler file %s: retry budget %s exhausted: %w", path, budget, err)
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > dialBackoffMax {
			backoff = dialBackoffMax
		}
	}
}

func readSchedulerFile(path string) (SchedulerFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SchedulerFile{}, fmt.Errorf("flow: reading scheduler file: %w", err)
	}
	return ParseSchedulerFile(data)
}
