package flow

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bin"
	"repro/internal/events"
)

// fullMessage builds an envelope with every field populated, so a
// round-trip exercises every branch of the binary layout. Times are
// constructed with time.Unix so the encoded and decoded representations
// compare equal with reflect.DeepEqual.
func fullMessage() *message {
	start := time.Unix(1700000000, 123456789)
	return &message{
		Type:     msgResult,
		WorkerID: "w1",
		Tasks: []Task{
			{
				ID: "t1", Label: "fold", Weight: 2.5,
				Payload: []byte("\x0akernel/one\x01\x02"), EnqueuedNS: 42,
				Campaign: "dvu-full",
			},
			{ID: "t2", Weight: -0.25, Campaign: "rru-pilot"},
			{ID: "t3", Label: "relax", Payload: []byte{0}},
		},
		Results: []Result{
			{
				TaskID: "t1", WorkerID: "w1", EnqueuedNS: 42,
				Start: start, End: start.Add(time.Second),
				Payload: []byte("11.847"), Err: "boom",
			},
			{TaskID: "t2", WorkerID: "w1", Start: start, End: start},
		},
		Event: &events.Event{
			Seq: 7, TimeNS: 99, Type: events.TaskDone,
			Task: "t1", Worker: "w1", Err: "e", Attempt: 2,
			Campaign: "dvu-full", Payload: []byte("11.847"),
		},
		Count:    -5,
		Campaign: "dvu-full",
		Gauges: &WorkerGauges{
			Goroutines: 11, HeapBytes: 1 << 30,
			TasksExecuted: 512, BusyNS: 123456789012,
		},
	}
}

func TestBinaryMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	c := newBinaryCodec(bufio.NewReader(&buf), w)

	want := fullMessage()
	if err := c.Encode(want); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var got message
	if err := c.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", &got, want)
	}

	// Decoded payloads must be copies, not views into the codec's scratch
	// buffer: a second Decode must not corrupt the first frame's payloads.
	if err := c.Encode(&message{Type: msgTask, Tasks: []Task{{ID: "t9", Payload: []byte("overwrite!")}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var second message
	if err := c.Decode(&second); err != nil {
		t.Fatal(err)
	}
	if string(got.Tasks[0].Payload) != "\x0akernel/one\x01\x02" {
		t.Errorf("first frame's payload corrupted by second Decode: %s", got.Tasks[0].Payload)
	}
}

func TestBinaryZeroTimeRoundTrip(t *testing.T) {
	// A quarantine record carries zero times; IsZero must survive the wire
	// (UnixNano would overflow here).
	var buf bytes.Buffer
	c := newBinaryCodec(bufio.NewReader(&buf), bufio.NewWriter(&buf))
	if err := c.Encode(&message{Type: msgResult, Results: []Result{{TaskID: "t"}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var got message
	if err := c.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !got.Results[0].Start.IsZero() || !got.Results[0].End.IsZero() {
		t.Errorf("zero times did not round trip: start=%v end=%v", got.Results[0].Start, got.Results[0].End)
	}
}

func TestBinaryEncodeDeterministic(t *testing.T) {
	// Same message ⇒ same bytes — the invariant the decoder fuzz target
	// leans on to prove decode(encode(x)) loses nothing.
	m := fullMessage()
	a := appendMessage(nil, m)
	b := appendMessage(nil, m)
	if !bytes.Equal(a, b) {
		t.Error("two encodings of the same message differ")
	}
}

func TestBinaryDecodeRejectsCorruptFrames(t *testing.T) {
	valid := appendMessage(nil, fullMessage())
	frame := func(body []byte) []byte {
		var hdr [4]byte
		hdr[0] = byte(len(body) >> 24)
		hdr[1] = byte(len(body) >> 16)
		hdr[2] = byte(len(body) >> 8)
		hdr[3] = byte(len(body))
		return append(hdr[:], body...)
	}
	// A frame whose task count claims ~2^30 elements in a near-empty body:
	// the count bound must reject it before it sizes an allocation.
	bloated := bin.AppendString(nil, msgSubmit)    // type
	bloated = bin.AppendString(bloated, "")        // worker_id
	bloated = binary.AppendUvarint(bloated, 1<<30) // tasks count
	// Every field is mandatory, the trailing gauges presence byte included:
	// a frame that stops before it is a peer of another build, and the
	// hello should have turned that peer away.
	beat := appendMessage(nil, &message{Type: msgHeartbeat, WorkerID: "w1"})
	gauged := appendMessage(nil, &message{Type: msgHeartbeat, WorkerID: "w1",
		Gauges: &WorkerGauges{Goroutines: 7, HeapBytes: 1 << 22, TasksExecuted: 9, BusyNS: 12345}})
	cases := map[string][]byte{
		"no gauges presence":  frame(beat[:len(beat)-1]),
		"torn gauges":         frame(gauged[:len(gauged)-2]),
		"truncated body":      frame(valid)[:4+len(valid)/2],
		"trailing bytes":      frame(append(append([]byte{}, valid...), 0xFF)),
		"oversized length":    {0xFF, 0xFF, 0xFF, 0xFF},
		"empty body":          frame(nil),
		"count amplification": frame(bloated),
	}
	for name, data := range cases {
		c := newBinaryCodec(bufio.NewReader(bytes.NewReader(data)), bufio.NewWriter(io.Discard))
		var m message
		if err := c.Decode(&m); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

// TestBinaryCodecConcurrentHalves pins the codec's contract under -race:
// one writer and one reader goroutine may share a codec (a worker's
// heartbeat sends race its task loop's Decode; a monitor's event Encode
// races its disconnect-detect Decode), so the encode and decode halves
// must share no state.
func TestBinaryCodecConcurrentHalves(t *testing.T) {
	left, right := net.Pipe()
	defer left.Close()
	defer right.Close()
	cl := newBinaryCodec(bufio.NewReader(left), bufio.NewWriter(left))
	cr := newBinaryCodec(bufio.NewReader(right), bufio.NewWriter(right))

	const frames = 200
	var wg sync.WaitGroup
	send := func(c *binaryCodec, id string) {
		defer wg.Done()
		for i := 0; i < frames; i++ {
			if err := c.Encode(&message{Type: msgHeartbeat, WorkerID: id}); err != nil {
				t.Errorf("%s encode: %v", id, err)
				return
			}
			if err := c.Flush(); err != nil {
				t.Errorf("%s flush: %v", id, err)
				return
			}
		}
	}
	recv := func(c *binaryCodec, want string) {
		defer wg.Done()
		for i := 0; i < frames; i++ {
			var m message
			if err := c.Decode(&m); err != nil {
				t.Errorf("decoding frame %d from %s: %v", i, want, err)
				return
			}
			if m.Type != msgHeartbeat || m.WorkerID != want {
				t.Errorf("frame %d from %s decoded as %+v", i, want, m)
				return
			}
		}
	}
	wg.Add(4)
	go send(cl, "left")
	go recv(cl, "right")
	go send(cr, "right")
	go recv(cr, "left")
	wg.Wait()
}

// TestBinaryLargeBatchRoundTrip drives the decoder past its preallocation
// cap: a batch larger than maxSlicePrealloc must round-trip intact
// through the append-grow path.
func TestBinaryLargeBatchRoundTrip(t *testing.T) {
	tasks := make([]Task, maxSlicePrealloc+37)
	for i := range tasks {
		tasks[i] = Task{ID: fmt.Sprintf("t%05d", i)}
	}
	var buf bytes.Buffer
	c := newBinaryCodec(bufio.NewReader(&buf), bufio.NewWriter(&buf))
	if err := c.Encode(&message{Type: msgSubmit, Tasks: tasks}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var got message
	if err := c.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Tasks, tasks) {
		t.Fatalf("large batch did not round trip: %d tasks decoded, want %d", len(got.Tasks), len(tasks))
	}
}

func TestAcceptCodecNegotiation(t *testing.T) {
	discard := bufio.NewWriter(io.Discard)

	// The hello announces the codec and the wire version, then frames
	// follow; the first frame must survive the hello being read off the
	// same buffer.
	var buf bytes.Buffer
	buf.WriteString(helloLine())
	enc := newBinaryCodec(nil, bufio.NewWriter(&buf))
	if err := enc.Encode(&message{Type: msgRegister, WorkerID: "w1"}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	c, err := acceptCodec(bufio.NewReader(&buf), discard)
	if err != nil {
		t.Fatal(err)
	}
	var m message
	if err := c.Decode(&m); err != nil || m.Type != msgRegister || m.WorkerID != "w1" {
		t.Fatalf("first frame lost behind the hello: %+v, %v", m, err)
	}

	// A peer offering another codec at this build's version — the JSON
	// hello of a build that still had one — is refused before its frame
	// is read, and the error names the one codec this build speaks.
	jsonPeer := fmt.Sprintf("%sjson %d\n", helloPrefix, wireVersion) + `{"type":"register","worker_id":"w"}` + "\n"
	r := bufio.NewReader(strings.NewReader(jsonPeer))
	if _, err := acceptCodec(r, discard); err == nil || !strings.Contains(err.Error(), `"json"`) ||
		!strings.Contains(err.Error(), fmt.Sprintf("speaks only %q", WireBinary)) {
		t.Errorf("json hello: err = %v, want a refusal naming json and %s", err, WireBinary)
	}
	if rest, _ := io.ReadAll(r); !strings.HasPrefix(string(rest), `{"type":"register"`) {
		t.Errorf("json hello: refusal consumed frame bytes, %q left", rest)
	}

	// Everything else is refused before any frame is decoded, and the
	// error says which version this build speaks.
	speaks := fmt.Sprintf("speaks version %d", wireVersion)
	for name, bad := range map[string]string{
		"no hello (bare JSON frame)": `{"type":"register","worker_id":"w"}` + "\n",
		"hello without a version":    helloPrefix + WireBinary + "\n",
		"malformed hello":            "GET / HTTP/1.1\n",
	} {
		_, err := acceptCodec(bufio.NewReader(strings.NewReader(bad)), discard)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(wireVersion)) {
			t.Errorf("%s: err = %v, want a refusal naming version %d", name, err, wireVersion)
		}
	}
	// A peer of the previous or the next build is refused before its
	// frame is read, with both versions named.
	frame := string(binFrame(appendMessage(nil, &message{Type: msgRegister, WorkerID: "w"})))
	for _, v := range []int{wireVersion - 1, wireVersion + 1} {
		other := fmt.Sprintf("%s%s %d\n", helloPrefix, WireBinary, v) + frame
		r := bufio.NewReader(strings.NewReader(other))
		_, err := acceptCodec(r, discard)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("offers wire version %q", fmt.Sprint(v))) ||
			!strings.Contains(err.Error(), speaks) {
			t.Errorf("version %d: err = %v, want offered and expected version named", v, err)
		}
		if rest, _ := io.ReadAll(r); string(rest) != frame {
			t.Errorf("version %d: refusal consumed frame bytes, %q left", v, rest)
		}
	}
	if _, err := acceptCodec(bufio.NewReader(strings.NewReader(fmt.Sprintf("%smsgpack %d\n", helloPrefix, wireVersion))), discard); err == nil {
		t.Error("unknown codec accepted")
	}
	if _, err := acceptCodec(bufio.NewReader(strings.NewReader(strings.TrimSuffix(helloLine(), "\n"))), discard); err == nil {
		t.Error("hello without a newline accepted")
	}
}

func TestDialCodecStagesHello(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	if _, err := dial(DialOptions{Addr: "127.0.0.1:1", Codec: "json"}); err == nil || !strings.Contains(err.Error(), "json") {
		t.Errorf("dial with codec json: err = %v, want the codec refused", err)
	}

	// With no first frame (a client's), the hello is staged, not flushed:
	// it must travel with the submit, so it costs no extra packet.
	c, err := handshake(client, nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = c.Encode(&message{Type: msgSubmit, Tasks: []Task{{ID: "t"}}})
		_ = c.Flush()
	}()
	r := bufio.NewReader(server)
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if line != helloLine() {
		t.Fatalf("hello on the wire = %q, want %q", line, helloLine())
	}
	var m message
	if err := newBinaryCodec(r, nil).Decode(&m); err != nil || m.Type != msgSubmit {
		t.Fatalf("first frame after the hello: %+v, %v", m, err)
	}
}

// writeCounter is a conn that records each Write it is handed.
type writeCounter struct {
	net.Conn
	writes [][]byte
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes = append(c.writes, bytes.Clone(p))
	return len(p), nil
}

func (c *writeCounter) SetWriteDeadline(time.Time) error { return nil }

// TestHandshakeIsOneWrite pins what Worker.Dial and DialMonitor promise:
// the hello and the whole first frame (register, subscribe) reach the
// connection in one write, the hello first.
func TestHandshakeIsOneWrite(t *testing.T) {
	for _, first := range []*message{
		{Type: msgRegister, WorkerID: "w1"},
		{Type: msgSubscribe},
	} {
		conn := &writeCounter{}
		if _, err := handshake(conn, first); err != nil {
			t.Fatal(err)
		}
		if len(conn.writes) != 1 {
			t.Fatalf("%s handshake took %d writes, want 1", first.Type, len(conn.writes))
		}
		if want := helloLine() + string(binFrame(appendMessage(nil, first))); string(conn.writes[0]) != want {
			t.Errorf("%s handshake wrote %q, want hello and frame %q", first.Type, conn.writes[0], want)
		}
	}
}

// batchWorker is a hand-rolled worker that records the size of every
// handout frame, proving batched dispatch actually batches.
type batchWorker struct {
	rw *rawPeer
}

func (bw *batchWorker) serve(t *testing.T, n int) (frameSizes []int) {
	t.Helper()
	_ = bw.rw.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	served := 0
	for served < n {
		var m message
		if err := bw.rw.recv(&m); err != nil {
			t.Fatalf("batch worker decode: %v", err)
		}
		if m.Type != msgTask {
			continue
		}
		tasks := m.Tasks
		if len(tasks) == 0 {
			t.Fatal("task frame with no tasks")
		}
		frameSizes = append(frameSizes, len(tasks))
		results := make([]Result, len(tasks))
		for i, task := range tasks {
			results[i] = Result{TaskID: task.ID, WorkerID: "batcher", Start: time.Now(), End: time.Now()}
		}
		if err := bw.rw.send(&message{Type: msgResult, Results: results}); err != nil {
			t.Fatalf("batch worker ack: %v", err)
		}
		served += len(tasks)
	}
	return frameSizes
}

func TestBatchedHandout(t *testing.T) {
	s := NewScheduler()
	s.Batch = 8
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	c, err := connectClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	done := make(chan error, 1)
	var results []Result
	go func() {
		var err error
		results, err = c.Map(makeTasks(20), nil)
		done <- err
	}()
	// Dial the worker after submission so the full queue is waiting and
	// the first handout can fill a whole batch.
	time.Sleep(20 * time.Millisecond)
	bw := &batchWorker{rw: dialRawWorker(t, addr, "batcher")}
	sizes := bw.serve(t, 20)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(results) != 20 {
		t.Fatalf("got %d results, want 20", len(results))
	}
	total, maxSize := 0, 0
	for _, n := range sizes {
		total += n
		if n > maxSize {
			maxSize = n
		}
	}
	if total != 20 {
		t.Errorf("frames carried %d tasks, want 20", total)
	}
	if maxSize < 2 {
		t.Errorf("no frame carried more than one task (sizes %v); batching inert", sizes)
	}
	if maxSize > 8 {
		t.Errorf("a frame carried %d tasks, above the batch limit 8", maxSize)
	}
	// Only the head of each handout frame is running on delivery — the
	// rest of a batch waits inside the worker, and this worker acks whole
	// frames, so the stream must carry exactly one running event per frame.
	running := 0
	for _, e := range s.Events().Snapshot() {
		if e.Type == events.TaskRunning {
			running++
		}
	}
	if running != len(sizes) {
		t.Errorf("running events = %d, want one per handout frame (%d)", running, len(sizes))
	}
}

func TestBatchRequeueOnWorkerDeath(t *testing.T) {
	// A worker dies holding a batch with two of four tasks acked: the two
	// unacked tasks — and only those — must be requeued onto a survivor.
	s := NewScheduler()
	s.Batch = 4
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	c, err := connectClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	done := make(chan error, 1)
	var results []Result
	go func() {
		var err error
		results, err = c.Map(makeTasks(4), nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)

	rw := dialRawWorker(t, addr, "doomed")
	_ = rw.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var m message
	for {
		if err := rw.recv(&m); err != nil {
			t.Fatalf("doomed worker decode: %v", err)
		}
		if m.Type == msgTask {
			break
		}
	}
	got := m.Tasks
	if len(got) != 4 {
		t.Fatalf("batch of %d tasks, want all 4", len(got))
	}
	// Ack the first two, then crash without releasing the rest.
	acked := []Result{
		{TaskID: got[0].ID, WorkerID: "doomed", Start: time.Now(), End: time.Now()},
		{TaskID: got[1].ID, WorkerID: "doomed", Start: time.Now(), End: time.Now()},
	}
	if err := rw.send(&message{Type: msgResult, Results: acked}); err != nil {
		t.Fatal(err)
	}
	// Give the scheduler a moment to settle the partial ack before the
	// crash, so the test exercises requeue of a half-finished batch.
	time.Sleep(20 * time.Millisecond)
	rw.conn.Close()

	survivor := NewWorker("survivor", echoHandler)
	if err := survivor.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(survivor.Close)

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("map did not complete after batch-holding worker died")
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	byWorker := map[string]string{}
	for _, r := range results {
		byWorker[r.TaskID] = r.WorkerID
	}
	for _, id := range []string{got[0].ID, got[1].ID} {
		if byWorker[id] != "doomed" {
			t.Errorf("acked task %s recorded from %q, want doomed", id, byWorker[id])
		}
	}
	for _, id := range []string{got[2].ID, got[3].ID} {
		if byWorker[id] != "survivor" {
			t.Errorf("unacked task %s recorded from %q, want requeue to survivor", id, byWorker[id])
		}
	}
	// The partial ack revealed the doomed worker had moved on to the third
	// task, so it was marked running there before the crash — and again on
	// the survivor after requeue.
	var runningOn []string
	for _, e := range s.Events().Snapshot() {
		if e.Type == events.TaskRunning && e.Task == got[2].ID {
			runningOn = append(runningOn, e.Worker)
		}
	}
	if !reflect.DeepEqual(runningOn, []string{"doomed", "survivor"}) {
		t.Errorf("task %s marked running on %v, want [doomed survivor]", got[2].ID, runningOn)
	}
}
