package flow

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/bin"
	"repro/internal/events"
)

// maxBinaryFrame bounds the length prefix of a binary frame. A submit
// frame carries an entire campaign batch (every task payload in one
// frame), so the bound is generous — but it must exist, because the
// 4-byte prefix arrives from the network and a hostile or corrupt value
// must not drive a multi-gigabyte allocation.
const maxBinaryFrame = 64 << 20

// binaryCodec frames the wire envelope over one connection, the one
// codec every peer speaks: each frame is a 4-byte big-endian body length
// followed by a positional encoding of the message envelope (varints for
// integers, length-prefixed strings and payloads, 8 little-endian
// IEEE-754 bytes for floats, Unix seconds + nanoseconds for times).
// Encode buffers frames (Flush hits the wire — write coalescing is the
// point: one flush per ready-queue drain, not one syscall per message);
// Decode blocks for the next frame and overwrites *m entirely. Both
// directions reuse per-connection scratch buffers, so steady-state
// encode and decode allocate only what must outlive the call (strings
// and payload copies handed to the engine).
//
// One half is not safe for concurrent use, but the encode and decode
// halves share no state at all — the header scratch included, split into
// encHdr/decHdr — so one reader and one writer goroutine may share a
// codec (worker heartbeats race the task loop's Decode).
type binaryCodec struct {
	r *bufio.Reader
	w *bufio.Writer

	// encBuf accumulates one frame body per Encode; decBuf holds one
	// frame body per Decode. Reused across calls — decoded strings and
	// byte payloads are copied out, never aliased into decBuf. The
	// headers live on the codec rather than the stack so the
	// interface-taking I/O calls below do not force a per-frame heap
	// allocation.
	encBuf []byte
	decBuf []byte
	encHdr [4]byte
	decHdr [4]byte
}

func newBinaryCodec(r *bufio.Reader, w *bufio.Writer) *binaryCodec {
	return &binaryCodec{r: r, w: w}
}

func (c *binaryCodec) Encode(m *message) error {
	b := appendMessage(c.encBuf[:0], m)
	c.encBuf = b
	if len(b) > maxBinaryFrame {
		return fmt.Errorf("flow: binary frame of %d bytes exceeds the %d-byte limit", len(b), maxBinaryFrame)
	}
	binary.BigEndian.PutUint32(c.encHdr[:], uint32(len(b)))
	if _, err := c.w.Write(c.encHdr[:]); err != nil {
		return err
	}
	_, err := c.w.Write(b)
	return err
}

func (c *binaryCodec) Decode(m *message) error {
	if _, err := io.ReadFull(c.r, c.decHdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(c.decHdr[:])
	if n > maxBinaryFrame {
		return fmt.Errorf("flow: binary frame length %d exceeds the %d-byte limit", n, maxBinaryFrame)
	}
	if cap(c.decBuf) < int(n) {
		c.decBuf = make([]byte, n)
	}
	body := c.decBuf[:n]
	if _, err := io.ReadFull(c.r, body); err != nil {
		return err
	}
	*m = message{}
	r := bin.NewReader(body, frameWhat)
	readMessage(&r, m)
	return r.End()
}

func (c *binaryCodec) Flush() error { return c.w.Flush() }

// --- frame body encoding ---
//
// The layout is positional: every field of the envelope is written in a
// fixed order, present or not (the version lives in the hello, not here).
// Optional pointers are a presence byte; slices are a count. That keeps
// the decoder branch-free enough to stay cheap and makes "same message ⇒
// same bytes" hold, which the fuzz round-trip exploits. The field helpers
// are internal/bin's, shared with the campaign kernels' payloads.

func appendMessage(b []byte, m *message) []byte {
	b = bin.AppendString(b, m.Type)
	b = bin.AppendString(b, m.WorkerID)
	b = binary.AppendUvarint(b, uint64(len(m.Tasks)))
	for i := range m.Tasks {
		b = appendTask(b, &m.Tasks[i])
	}
	b = binary.AppendUvarint(b, uint64(len(m.Results)))
	for i := range m.Results {
		b = appendResult(b, &m.Results[i])
	}
	b = bin.AppendBool(b, m.Event != nil)
	if m.Event != nil {
		b = appendEvent(b, m.Event)
	}
	b = binary.AppendVarint(b, int64(m.Count))
	b = bin.AppendString(b, m.Campaign)
	b = bin.AppendBool(b, m.Gauges != nil)
	if m.Gauges != nil {
		b = binary.AppendVarint(b, int64(m.Gauges.Goroutines))
		b = binary.AppendUvarint(b, m.Gauges.HeapBytes)
		b = binary.AppendUvarint(b, m.Gauges.TasksExecuted)
		b = binary.AppendVarint(b, m.Gauges.BusyNS)
	}
	return b
}

func appendTask(b []byte, t *Task) []byte {
	b = bin.AppendString(b, t.ID)
	b = bin.AppendString(b, t.Label)
	b = bin.AppendFloat64(b, t.Weight)
	b = bin.AppendBytes(b, t.Payload)
	b = binary.AppendVarint(b, t.EnqueuedNS)
	b = bin.AppendString(b, t.Campaign)
	return b
}

func appendResult(b []byte, r *Result) []byte {
	b = bin.AppendString(b, r.TaskID)
	b = bin.AppendString(b, r.WorkerID)
	b = binary.AppendVarint(b, r.EnqueuedNS)
	b = appendTime(b, r.Start)
	b = appendTime(b, r.End)
	b = bin.AppendBytes(b, r.Payload)
	b = bin.AppendString(b, r.Err)
	return b
}

func appendEvent(b []byte, e *events.Event) []byte {
	b = binary.AppendUvarint(b, e.Seq)
	b = binary.AppendVarint(b, e.TimeNS)
	b = bin.AppendString(b, string(e.Type))
	b = bin.AppendString(b, e.Task)
	b = bin.AppendString(b, e.Worker)
	b = bin.AppendString(b, e.Err)
	b = binary.AppendVarint(b, int64(e.Attempt))
	b = bin.AppendString(b, e.Campaign)
	b = bin.AppendBytes(b, e.Payload)
	return b
}

// appendTime writes Unix seconds (varint) plus nanoseconds (uvarint).
// This form is lossless for every time the engine stamps — including the
// zero time, whose Unix seconds round-trip exactly where UnixNano would
// overflow — and drops only the monotonic reading.
func appendTime(b []byte, t time.Time) []byte {
	b = binary.AppendVarint(b, t.Unix())
	return binary.AppendUvarint(b, uint64(t.Nanosecond()))
}

// --- frame body decoding ---

// frameWhat names a frame body in decode errors.
const frameWhat = "flow: binary frame"

// Smallest possible wire footprint of one slice element: every field
// costs at least its one-byte length prefix or varint, a time two bytes
// and a float eight. A claimed count whose elements cannot fit in the
// remaining body is corrupt and must be rejected before it sizes an
// allocation.
const (
	minTaskWire   = 13 // id, label, weight (8), payload, enqueued_ns, campaign
	minResultWire = 9  // task_id, worker_id, enqueued_ns, 2×time (2 bytes each), payload, error
)

// maxSlicePrealloc caps the capacity a decoded slice reserves up front.
// The element count alone must never drive a large allocation — in-memory
// elements are ~15× their minimum wire size, so even a count that passes
// the minElem bound could demand hundreds of bytes per body byte. Larger
// (legitimate) batches grow by append as each element proves itself
// against the remaining bytes.
const maxSlicePrealloc = 4096

func readMessage(r *bin.Reader, m *message) {
	m.Type = r.String("type")
	m.WorkerID = r.String("worker_id")
	if n := r.Count("tasks", minTaskWire); n > 0 {
		m.Tasks = make([]Task, 0, min(n, maxSlicePrealloc))
		for i := 0; i < n && r.Err() == nil; i++ {
			var t Task
			readTask(r, &t)
			m.Tasks = append(m.Tasks, t)
		}
	}
	if n := r.Count("results", minResultWire); n > 0 {
		m.Results = make([]Result, 0, min(n, maxSlicePrealloc))
		for i := 0; i < n && r.Err() == nil; i++ {
			var res Result
			readResult(r, &res)
			m.Results = append(m.Results, res)
		}
	}
	if r.Bool("event") {
		m.Event = new(events.Event)
		readEvent(r, m.Event)
	}
	m.Count = r.Int("count")
	m.Campaign = r.String("campaign")
	if r.Bool("gauges") {
		m.Gauges = &WorkerGauges{
			Goroutines:    r.Int("gauges goroutines"),
			HeapBytes:     r.Uvarint("gauges heap_bytes"),
			TasksExecuted: r.Uvarint("gauges tasks_executed"),
			BusyNS:        r.Varint("gauges busy_ns"),
		}
	}
}

func readTask(r *bin.Reader, t *Task) {
	t.ID = r.String("task id")
	t.Label = r.String("task label")
	t.Weight = r.Float64("task weight")
	t.Payload = r.Bytes("task payload")
	t.EnqueuedNS = r.Varint("task enqueued_ns")
	t.Campaign = r.String("task campaign")
}

func readResult(r *bin.Reader, res *Result) {
	res.TaskID = r.String("result task_id")
	res.WorkerID = r.String("result worker_id")
	res.EnqueuedNS = r.Varint("result enqueued_ns")
	res.Start = readTime(r, "result start")
	res.End = readTime(r, "result end")
	res.Payload = r.Bytes("result payload")
	res.Err = r.String("result error")
}

func readEvent(r *bin.Reader, e *events.Event) {
	e.Seq = r.Uvarint("event seq")
	e.TimeNS = r.Varint("event t_ns")
	e.Type = events.Type(r.String("event type"))
	e.Task = r.String("event task")
	e.Worker = r.String("event worker")
	e.Err = r.String("event error")
	e.Attempt = r.Int("event attempt")
	e.Campaign = r.String("event campaign")
	e.Payload = r.Bytes("event payload")
}

func readTime(r *bin.Reader, what string) time.Time {
	sec := r.Varint(what)
	nsec := r.Uvarint(what)
	if r.Err() != nil {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec))
}
