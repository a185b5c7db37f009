package flow

import (
	"errors"
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

// errOutboxStopped reports an enqueueWait on an outbox whose writer has
// already been stopped (peer gone, scheduler closing).
var errOutboxStopped = errors.New("flow: outbox stopped")

// outbox is one connection's bounded outbound frame queue, drained by a
// dedicated writer goroutine. The event loop enqueues frames without
// blocking and without touching the socket; the writer coalesces every
// frame queued at wake-up into a single Flush (many frames per syscall),
// brackets each batch with a write deadline, and on any write failure —
// or on queue overflow, the non-draining-peer signal — shuts down: the
// conn closes, the connection's read pump fails, and the event loop
// learns the peer is gone from it and requeues its work through the
// normal retry path. Frames enqueued after that are dropped. This is what
// keeps one wedged peer from stalling dispatch to the rest of the fleet:
// the event loop never performs peer I/O itself.
//
// Concurrency: the codec is shared with the connection's read pump, which
// is safe because its encode and decode halves share nothing. The
// writer is the only goroutine that encodes, and a frame belongs to it
// from the moment it is enqueued: the enqueuer keeps no reference.
type outbox struct {
	conn    net.Conn
	codec   *binaryCodec
	timeout time.Duration

	ch       chan *message
	stop     chan struct{}
	stopOnce sync.Once

	// onOverflow, when set, is called once per overflow detected at
	// enqueue time (on the enqueueing goroutine — an atomic counter
	// increment, nothing that can block the event loop). Overflows never
	// reach the event stream, so the metrics view counts them here.
	onOverflow func()
}

// newOutbox creates the queue and starts its writer goroutine, tracked by
// the scheduler's WaitGroup and stopped by scheduler shutdown (parent).
func (s *Scheduler) newOutbox(conn net.Conn, codec *binaryCodec) *outbox {
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
				o.shutdown()
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
// loop, or drops it once the outbox has shut down. A full queue means the
// peer has not drained an entire queue's worth of frames: the outbox
// shuts down on the spot, and the read pump reports the peer gone.
func (o *outbox) enqueue(m *message) {
	select {
	case <-o.stop:
		return
	default:
	}
	select {
	case o.ch <- m:
	default:
		if o.onOverflow != nil {
			o.onOverflow()
		}
		o.shutdown()
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

// shutdown stops the writer, discarding any frames still queued, and
// closes the conn, so the peer's read pump fails too — whoever calls it:
// the writer after a failed write, enqueue on overflow, the dispatcher
// dropping the peer, or scheduler shutdown. Idempotent.
func (o *outbox) shutdown() {
	o.stopOnce.Do(func() { close(o.stop) })
	o.conn.Close()
}
