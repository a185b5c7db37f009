package flow

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/events"
)

// maxBinaryFrame bounds the length prefix of a binary frame. A submit
// frame carries an entire campaign batch (every task payload in one
// frame), so the bound is generous — but it must exist, because the
// 4-byte prefix arrives from the network and a hostile or corrupt value
// must not drive a multi-gigabyte allocation.
const maxBinaryFrame = 64 << 20

// binaryCodec is the length-prefixed binary wire: each frame is a 4-byte
// big-endian body length followed by a positional encoding of the message
// envelope (varints for integers, length-prefixed strings and payloads,
// raw IEEE-754 for floats, Unix seconds + nanoseconds for times). Both
// directions reuse per-connection scratch buffers, so steady-state encode
// and decode allocate only what must outlive the call (strings and
// payload copies handed to the engine).
type binaryCodec struct {
	r *bufio.Reader
	w *bufio.Writer

	// encBuf accumulates one frame body per Encode; decBuf holds one
	// frame body per Decode. Reused across calls — decoded strings and
	// byte payloads are copied out, never aliased into decBuf. The two
	// halves share no state at all — including the header scratch, which
	// is split into encHdr/decHdr — because the Codec contract lets one
	// reader and one writer goroutine use Encode and Decode concurrently
	// (worker heartbeats race the task loop's Decode). The headers live
	// on the codec rather than the stack so the interface-taking I/O
	// calls below do not force a per-frame heap allocation.
	encBuf []byte
	decBuf []byte
	encHdr [4]byte
	decHdr [4]byte
}

func newBinaryCodec(r *bufio.Reader, w *bufio.Writer) *binaryCodec {
	return &binaryCodec{r: r, w: w}
}

func (c *binaryCodec) Name() string { return WireBinary }

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
	r := binReader{b: body}
	readMessage(&r, m)
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("flow: binary frame has %d trailing bytes", len(r.b))
	}
	return nil
}

func (c *binaryCodec) Flush() error { return c.w.Flush() }

// --- frame body encoding ---
//
// The layout is positional: every field of the envelope is written in a
// fixed order, present or not (the version lives in the hello, not here). Optional pointers are a
// presence byte; slices are a count. That keeps the decoder branch-free
// enough to stay cheap and makes "same message ⇒ same bytes" hold, which
// the fuzz round-trip exploits.

func appendMessage(b []byte, m *message) []byte {
	b = appendString(b, m.Type)
	b = appendString(b, m.WorkerID)
	b = binary.AppendUvarint(b, uint64(len(m.Tasks)))
	for i := range m.Tasks {
		b = appendTask(b, &m.Tasks[i])
	}
	b = binary.AppendUvarint(b, uint64(len(m.Results)))
	for i := range m.Results {
		b = appendResult(b, &m.Results[i])
	}
	if m.Event != nil {
		b = append(b, 1)
		b = appendEvent(b, m.Event)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendVarint(b, int64(m.Count))
	b = appendString(b, m.Campaign)
	if m.Gauges != nil {
		b = append(b, 1)
		b = binary.AppendVarint(b, int64(m.Gauges.Goroutines))
		b = binary.AppendUvarint(b, m.Gauges.HeapBytes)
		b = binary.AppendUvarint(b, m.Gauges.TasksExecuted)
		b = binary.AppendVarint(b, m.Gauges.BusyNS)
	} else {
		b = append(b, 0)
	}
	return b
}

func appendTask(b []byte, t *Task) []byte {
	b = appendString(b, t.ID)
	b = appendString(b, t.Label)
	b = binary.AppendUvarint(b, math.Float64bits(t.Weight))
	b = appendBytes(b, t.Payload)
	b = binary.AppendVarint(b, t.EnqueuedNS)
	b = binary.AppendVarint(b, int64(t.Attempt))
	b = appendBytes(b, t.EscalatePayload)
	b = appendString(b, t.Campaign)
	return b
}

func appendResult(b []byte, r *Result) []byte {
	b = appendString(b, r.TaskID)
	b = appendString(b, r.WorkerID)
	b = binary.AppendVarint(b, r.EnqueuedNS)
	b = appendTime(b, r.Start)
	b = appendTime(b, r.End)
	b = appendBytes(b, r.Payload)
	b = appendString(b, r.Err)
	return b
}

func appendEvent(b []byte, e *events.Event) []byte {
	b = binary.AppendUvarint(b, e.Seq)
	b = binary.AppendVarint(b, e.TimeNS)
	b = appendString(b, string(e.Type))
	b = appendString(b, e.Task)
	b = appendString(b, e.Worker)
	b = appendString(b, e.Err)
	b = binary.AppendVarint(b, int64(e.Attempt))
	b = appendString(b, e.Campaign)
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// appendTime writes Unix seconds (varint) plus nanoseconds (uvarint).
// This form is lossless for every time the engine stamps — including the
// zero time, whose Unix seconds round-trip exactly where UnixNano would
// overflow — and drops only the monotonic reading, as JSON does.
func appendTime(b []byte, t time.Time) []byte {
	b = binary.AppendVarint(b, t.Unix())
	return binary.AppendUvarint(b, uint64(t.Nanosecond()))
}

// --- frame body decoding ---

// binReader consumes a frame body, latching the first error: after a
// failure every read returns zero values and the caller checks err once.
type binReader struct {
	b   []byte
	err error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("flow: binary frame: truncated or invalid %s", what)
	}
}

func (r *binReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *binReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *binReader) str(what string) string {
	n := r.uvarint(what)
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail(what)
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// bytes returns a copy of a length-prefixed payload (nil when empty), so
// the engine may hold it past the next Decode reusing the scratch buffer.
func (r *binReader) bytes(what string) []byte {
	n := r.uvarint(what)
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail(what)
		return nil
	}
	if n == 0 {
		return nil
	}
	p := make([]byte, n)
	copy(p, r.b[:n])
	r.b = r.b[n:]
	return p
}

func (r *binReader) presence(what string) bool {
	if r.err != nil {
		return false
	}
	if len(r.b) == 0 {
		r.fail(what)
		return false
	}
	v := r.b[0]
	r.b = r.b[1:]
	if v > 1 {
		r.fail(what)
		return false
	}
	return v == 1
}

// Smallest possible wire footprint of one slice element: every field
// costs at least its one-byte length prefix or varint, times cost two
// bytes. A claimed count whose elements cannot fit in the remaining
// body is corrupt and must be rejected before it sizes an allocation.
const (
	minTaskWire   = 8 // id, label, weight, payload, enqueued_ns, attempt, escalate_payload, campaign
	minResultWire = 9 // task_id, worker_id, enqueued_ns, 2×time (2 bytes each), payload, error
)

// maxSlicePrealloc caps the capacity a decoded slice reserves up front.
// The element count alone must never drive a large allocation — in-memory
// elements are ~15× their minimum wire size, so even a count that passes
// the minElem bound could demand hundreds of bytes per body byte. Larger
// (legitimate) batches grow by append as each element proves itself
// against the remaining bytes.
const maxSlicePrealloc = 4096

// count reads a slice length, bounded by the bytes remaining divided by
// the smallest encoding of one element.
func (r *binReader) count(what string, minElem int) int {
	n := r.uvarint(what)
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b))/uint64(minElem) {
		r.fail(what)
		return 0
	}
	return int(n)
}

func (r *binReader) time(what string) time.Time {
	sec := r.varint(what)
	nsec := r.uvarint(what)
	if r.err != nil {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec))
}

func readMessage(r *binReader, m *message) {
	m.Type = r.str("type")
	m.WorkerID = r.str("worker_id")
	if n := r.count("tasks", minTaskWire); n > 0 {
		m.Tasks = make([]Task, 0, min(n, maxSlicePrealloc))
		for i := 0; i < n && r.err == nil; i++ {
			var t Task
			readTask(r, &t)
			m.Tasks = append(m.Tasks, t)
		}
	}
	if n := r.count("results", minResultWire); n > 0 {
		m.Results = make([]Result, 0, min(n, maxSlicePrealloc))
		for i := 0; i < n && r.err == nil; i++ {
			var res Result
			readResult(r, &res)
			m.Results = append(m.Results, res)
		}
	}
	if r.presence("event") {
		m.Event = new(events.Event)
		readEvent(r, m.Event)
	}
	m.Count = int(r.varint("count"))
	m.Campaign = r.str("campaign")
	if r.presence("gauges") {
		m.Gauges = &WorkerGauges{
			Goroutines:    int(r.varint("gauges goroutines")),
			HeapBytes:     r.uvarint("gauges heap_bytes"),
			TasksExecuted: r.uvarint("gauges tasks_executed"),
			BusyNS:        r.varint("gauges busy_ns"),
		}
	}
}

func readTask(r *binReader, t *Task) {
	t.ID = r.str("task id")
	t.Label = r.str("task label")
	t.Weight = math.Float64frombits(r.uvarint("task weight"))
	t.Payload = r.bytes("task payload")
	t.EnqueuedNS = r.varint("task enqueued_ns")
	t.Attempt = int(r.varint("task attempt"))
	t.EscalatePayload = r.bytes("task escalate_payload")
	t.Campaign = r.str("task campaign")
}

func readResult(r *binReader, res *Result) {
	res.TaskID = r.str("result task_id")
	res.WorkerID = r.str("result worker_id")
	res.EnqueuedNS = r.varint("result enqueued_ns")
	res.Start = r.time("result start")
	res.End = r.time("result end")
	res.Payload = r.bytes("result payload")
	res.Err = r.str("result error")
}

func readEvent(r *binReader, e *events.Event) {
	e.Seq = r.uvarint("event seq")
	e.TimeNS = r.varint("event t_ns")
	e.Type = events.Type(r.str("event type"))
	e.Task = r.str("event task")
	e.Worker = r.str("event worker")
	e.Err = r.str("event error")
	e.Attempt = int(r.varint("event attempt"))
	e.Campaign = r.str("event campaign")
}
