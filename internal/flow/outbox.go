package flow

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Tuning defaults for the per-connection outbox (`sched -outbox-depth`,
// `sched -write-timeout`).
const (
	// DefaultOutboxDepth is the outbound frame queue bound per peer
	// connection when Scheduler.OutboxDepth is zero. A worker is owed one
	// handout at a time and a client one frame per worker ack, whatever
	// the ack carries, so this absorbs a thousand acks a client has not
	// read before the client is declared dead by overflow.
	DefaultOutboxDepth = 1024
	// DefaultWriteTimeout is the per-write deadline applied by each
	// outbox writer when Scheduler.WriteTimeout is zero — the same bound
	// the monitor pump has always used for a wedged subscriber.
	DefaultWriteTimeout = 30 * time.Second
)

// errOutboxStopped reports an enqueue on an outbox whose writer has
// already been stopped (peer gone, scheduler closing).
var errOutboxStopped = errors.New("flow: outbox stopped")

// outbox is one connection's bounded outbound frame queue, drained by a
// dedicated writer goroutine. The event loop enqueues frames without
// blocking and without touching the socket; the writer coalesces every
// frame queued at wake-up into a single Flush (many frames per syscall),
// brackets each batch with a write deadline, and on any write failure —
// or on queue overflow, the non-draining-peer signal — reports the peer
// dead so the event loop can requeue its work through the normal retry
// path. This is what keeps one wedged peer from stalling dispatch to the
// rest of the fleet: the event loop never performs peer I/O itself.
//
// Concurrency: the codec is shared with the connection's read pump, which
// is safe per the Codec contract (one reader + one writer goroutine). The
// writer is the only goroutine that encodes, and a frame belongs to it
// from the moment it is enqueued: the enqueuer keeps no reference.
type outbox struct {
	conn    net.Conn
	codec   Codec
	timeout time.Duration
	// onDead, when set, is called (from the writer goroutine, exactly
	// once) after a write failure so the owner can report the peer gone to
	// the event loop. Overflow detected at enqueue time does not call it:
	// the enqueueing event loop sees the error synchronously and must not
	// block sending itself an event.
	onDead func(error)

	ch       chan *message
	stop     chan struct{}
	stopOnce sync.Once

	// onOverflow, when set, is called once per overflow detected at
	// enqueue time (on the enqueueing goroutine — an atomic counter
	// increment, nothing that can block the event loop). Overflows never
	// reach the event stream, so the metrics view counts them here.
	onOverflow func()

	mu     sync.Mutex
	failed error
}

// newOutbox creates the queue and starts its writer goroutine, tracked by
// the scheduler's WaitGroup and stopped by scheduler shutdown (parent).
func (s *Scheduler) newOutbox(conn net.Conn, codec Codec, onDead func(error)) *outbox {
	depth := s.OutboxDepth
	if depth <= 0 {
		depth = DefaultOutboxDepth
	}
	timeout := s.WriteTimeout
	if timeout <= 0 {
		timeout = DefaultWriteTimeout
	}
	o := &outbox{
		conn:    conn,
		codec:   codec,
		timeout: timeout,
		onDead:  onDead,
		ch:      make(chan *message, depth),
		stop:    make(chan struct{}),
	}
	if s.Metrics != nil {
		o.onOverflow = s.Metrics.outboxOverflows.Inc
	}
	s.wg.Add(1)
	go o.run(s.done, &s.wg)
	return o
}

func (o *outbox) run(parent <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-o.stop:
			return
		case <-parent:
			o.shutdown()
			return
		case m := <-o.ch:
			if err := o.writeBatch(m); err != nil {
				o.fail(err)
				if o.onDead != nil {
					o.onDead(err)
				}
				return
			}
		}
	}
}

// writeBatch encodes first plus every frame currently queued behind it,
// then flushes once — the coalescing that amortizes the write syscall
// across a burst. The deadline is set before encoding because bufio may
// hit the socket mid-Encode on large frames, not only at Flush.
func (o *outbox) writeBatch(first *message) error {
	if o.timeout > 0 {
		_ = o.conn.SetWriteDeadline(time.Now().Add(o.timeout))
	}
	m := first
	for {
		if err := o.codec.Encode(m); err != nil {
			return err
		}
		select {
		case m = <-o.ch:
		default:
			if err := o.codec.Flush(); err != nil {
				return err
			}
			_ = o.conn.SetWriteDeadline(time.Time{})
			return nil
		}
	}
}

// enqueue hands one frame to the writer without ever blocking the event
// loop. A full queue means the peer has not drained an entire queue's
// worth of frames: the peer is declared dead on the spot (conn closed,
// writer stopped) and the error returned so the caller can clean up
// synchronously — onDead is deliberately not called from here.
func (o *outbox) enqueue(m *message) error {
	o.mu.Lock()
	failed := o.failed
	o.mu.Unlock()
	if failed != nil {
		return failed
	}
	select {
	case <-o.stop:
		return errOutboxStopped
	default:
	}
	select {
	case o.ch <- m:
		return nil
	default:
		if o.onOverflow != nil {
			o.onOverflow()
		}
		err := fmt.Errorf("flow: outbox overflow: peer not draining (%d frames queued)", cap(o.ch))
		o.fail(err)
		return err
	}
}

// enqueueWait hands one frame to the writer, blocking until there is
// room — the monitor pump's backpressure mode, where the pump goroutine
// (not the event loop) is the one that parks.
func (o *outbox) enqueueWait(m *message, parent <-chan struct{}) error {
	select {
	case o.ch <- m:
		return nil
	case <-o.stop:
		return errOutboxStopped
	case <-parent:
		return errOutboxStopped
	}
}

// fail records the first failure, stops the writer, and severs the
// connection so the peer's read pump unblocks too.
func (o *outbox) fail(err error) {
	o.mu.Lock()
	if o.failed == nil {
		o.failed = err
	}
	o.mu.Unlock()
	o.shutdown()
}

// shutdown stops the writer without recording a failure — the peer is
// known gone (read pump failed, heartbeat sweep) and any frames still
// queued are discarded. Idempotent.
func (o *outbox) shutdown() {
	o.stopOnce.Do(func() { close(o.stop) })
	o.conn.Close()
}
