package flow

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/events"
)

// ErrStreamEnd marks the normal end of a monitor stream: the scheduler
// shut down cleanly or the monitor itself was closed. Any other error
// from Next — a malformed or invalid frame, an abrupt connection reset —
// is a real failure and should be surfaced, not swallowed.
var ErrStreamEnd = errors.New("flow: monitor stream ended")

// Monitor is a read-only subscriber to a scheduler's structured event
// stream — the `proteomectl monitor` client. It attaches without any
// cooperation from the submitting client: the scheduler first replays
// its full backlog (so a monitor attaching mid-campaign observes the
// same sequence as the persisted event log), then streams live events.
// Monitoring is observation only; attaching or detaching never perturbs
// scheduling or a campaign report.
type Monitor struct {
	conn  net.Conn
	codec *binaryCodec

	// ReadTimeout, when set before the first Next, bounds how long Next
	// waits for the next event. An idle campaign legitimately stays
	// silent, so the default (zero) disables it; set it in tests or
	// supervised deployments.
	ReadTimeout time.Duration

	// Campaign, when set before the first Next, filters the stream to one
	// campaign namespace (`monitor -campaign`): task-scoped events of
	// other campaigns are skipped client-side. Fleet-wide events (worker
	// membership, truncation markers) always pass, since they concern
	// every campaign sharing the scheduler.
	Campaign string

	mu     sync.Mutex
	closed bool
}

// DialMonitor connects a monitor through the unified dial options —
// address or scheduler file and retry budget — and
// subscribes to the scheduler's event stream; the wire hello and the
// subscribe leave in one write. The returned monitor must be closed.
func DialMonitor(opts DialOptions) (*Monitor, error) {
	conn, codec, err := dialPeer(opts, "monitor", &message{Type: msgSubscribe})
	if err != nil {
		return nil, err
	}
	return &Monitor{conn: conn, codec: codec}, nil
}

// Next blocks until the next event arrives and returns it. A clean end
// of the stream — the scheduler closed the connection, or Close was
// called on this monitor — returns an error wrapping ErrStreamEnd;
// anything else (a malformed or invalid frame, an abrupt reset) is a
// genuine failure, because a monitor trusts scheduler-controlled bytes
// no further than the decoder does.
func (m *Monitor) Next() (events.Event, error) {
	for {
		if m.ReadTimeout > 0 {
			_ = m.conn.SetReadDeadline(time.Now().Add(m.ReadTimeout))
		}
		var msg message
		if err := m.codec.Decode(&msg); err != nil {
			m.mu.Lock()
			closed := m.closed
			m.mu.Unlock()
			if closed || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return events.Event{}, fmt.Errorf("%w: %v", ErrStreamEnd, err)
			}
			return events.Event{}, fmt.Errorf("flow: monitor stream: %w", err)
		}
		if msg.Type != msgEvent || msg.Event == nil {
			continue
		}
		if err := msg.Event.Validate(); err != nil {
			return events.Event{}, fmt.Errorf("flow: monitor stream: %w", err)
		}
		if m.Campaign != "" && msg.Event.Type.TaskScoped() && msg.Event.Campaign != m.Campaign {
			continue
		}
		return *msg.Event, nil
	}
}

// Close detaches the monitor. Pending and future Next calls fail.
func (m *Monitor) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	m.conn.Close()
}
