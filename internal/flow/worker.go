package flow

import (
	"encoding/json"
	"net"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"time"
)

// Handler executes one task payload and returns a result payload. Handlers
// run on the worker's goroutine; the engine runs one task at a time per
// worker (one worker per GPU, as in the paper).
type Handler func(task Task) (json.RawMessage, error)

// Worker is one dataflow worker. The paper starts one per GPU on every
// Summit node used (6 per node, up to 6,000 total).
type Worker struct {
	ID      string
	handler Handler

	// HeartbeatInterval, when set before Dial, sends a heartbeat frame
	// to the scheduler on this interval from a dedicated goroutine, so a
	// worker stays alive through a long-running handler but a wedged
	// process or dead network path is detected by the scheduler's
	// heartbeat deadline. Zero disables heartbeats.
	HeartbeatInterval time.Duration

	conn  net.Conn
	codec *binaryCodec
	wg    sync.WaitGroup

	// writeMu serializes frames on the connection: the task loop's result
	// sends and the heartbeat goroutine share one codec, whose encode half
	// is not safe for concurrent use.
	writeMu sync.Mutex

	stop     chan struct{}
	stopOnce sync.Once

	mu     sync.Mutex
	closed bool

	// Processed counts completed tasks (for tests and stats).
	processed int
	// busyNS accumulates wall time spent inside the handler; heartbeats
	// carry the running total so the scheduler can derive occupancy.
	busyNS time.Duration
}

// NewWorker creates a worker with the given identity and task handler.
func NewWorker(id string, h Handler) *Worker {
	return &Worker{ID: id, handler: h}
}

// Dial registers with the scheduler through the unified dial options —
// address or scheduler file and retry budget — and starts
// the task loop in the background. The wire hello and the registration
// leave in one write.
func (w *Worker) Dial(opts DialOptions) error {
	conn, codec, err := dialPeer(opts, "worker", &message{Type: msgRegister, WorkerID: w.ID})
	if err != nil {
		return err
	}
	w.conn = conn
	w.codec = codec
	w.stop = make(chan struct{})
	if w.HeartbeatInterval > 0 {
		w.wg.Add(1)
		go w.heartbeatLoop()
	}
	w.wg.Add(1)
	go w.loop()
	return nil
}

// Connect is Dial with one attempt at addr on the default (binary) wire.
func (w *Worker) Connect(addr string) error {
	return w.Dial(DialOptions{Addr: addr})
}

// send writes one frame under the connection write lock, so heartbeats
// and results never interleave bytes.
func (w *Worker) send(m *message) error {
	w.writeMu.Lock()
	defer w.writeMu.Unlock()
	return writeFrame(w.conn, w.codec, resultWriteTimeout, m)
}

// heartbeatLoop sends liveness beacons on the configured interval. It
// runs on its own goroutine deliberately: a handler busy on a long task
// keeps beating (long tasks are healthy), while a frozen process or dead
// network path stops the beacons and trips the scheduler's deadline.
func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	tick := time.NewTicker(w.HeartbeatInterval)
	defer tick.Stop()
	// One runtime/metrics sample slot, reused every beat. Reading it is a
	// cheap atomic snapshot — unlike runtime.ReadMemStats there is no
	// stop-the-world, so beating every second from hundreds of in-process
	// bench workers costs nothing measurable.
	heap := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
			if err := w.send(&message{Type: msgHeartbeat, WorkerID: w.ID, Gauges: w.collectGauges(heap)}); err != nil {
				return
			}
		}
	}
}

// collectGauges samples the runtime snapshot a heartbeat carries.
func (w *Worker) collectGauges(heap []rtmetrics.Sample) *WorkerGauges {
	rtmetrics.Read(heap)
	g := &WorkerGauges{Goroutines: runtime.NumGoroutine()}
	if heap[0].Value.Kind() == rtmetrics.KindUint64 {
		g.HeapBytes = heap[0].Value.Uint64()
	}
	w.mu.Lock()
	g.TasksExecuted = uint64(w.processed)
	g.BusyNS = int64(w.busyNS)
	w.mu.Unlock()
	return g
}

// stopHeartbeat signals the heartbeat goroutine to exit. Idempotent.
func (w *Worker) stopHeartbeat() {
	if w.stop != nil {
		w.stopOnce.Do(func() { close(w.stop) })
	}
}

func (w *Worker) loop() {
	defer w.wg.Done()
	// The loop can exit on a healthy connection (a result write's deadline
	// fired); close it so the scheduler observes workerGone and requeues
	// any in-flight task instead of assigning into a dead worker.
	defer w.conn.Close()
	defer w.stopHeartbeat()
	for {
		var m message
		if err := w.codec.Decode(&m); err != nil {
			return
		}
		if m.Type != msgTask || len(m.Tasks) == 0 {
			continue
		}
		// One handout frame, one ack frame: a batched handout costs one
		// write syscall per frame in both directions.
		results := make([]Result, 0, len(m.Tasks))
		var busy time.Duration
		for _, t := range m.Tasks {
			start := time.Now()
			payload, err := w.handler(t)
			res := Result{
				TaskID:     t.ID,
				WorkerID:   w.ID,
				EnqueuedNS: t.EnqueuedNS,
				Start:      start,
				End:        time.Now(),
				Payload:    payload,
			}
			if err != nil {
				res.Err = err.Error()
			}
			busy += res.End.Sub(res.Start)
			results = append(results, res)
		}
		w.mu.Lock()
		w.processed += len(results)
		w.busyNS += busy
		w.mu.Unlock()
		if err := w.send(&message{Type: msgResult, Results: results}); err != nil {
			return
		}
	}
}

// Wait blocks until the worker's task loop exits — that is, until the
// scheduler connection closes (scheduler shutdown, network failure, or
// Close). Standalone worker processes use it to terminate when their
// scheduler goes away.
func (w *Worker) Wait() { w.wg.Wait() }

// Processed returns the number of tasks this worker has completed.
func (w *Worker) Processed() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.processed
}

// Close disconnects the worker. An in-flight task finishes but its result
// may be lost; the scheduler requeues it.
func (w *Worker) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	w.stopHeartbeat()
	if w.conn != nil {
		w.conn.Close()
	}
	w.wg.Wait()
}
