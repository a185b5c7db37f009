package flow

import (
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/events"
)

// BenchmarkDispatchThroughput drives a fleet of in-process workers
// through the scheduler dispatch hot path — submit, batched handout,
// execute (no-op handler), batched ack, result forwarding — per fleet
// size. The handler does no work, so the numbers isolate the framing and
// scheduling cost the paper's 6,000-worker deployments pay per task. The
// rows sit under a "binary" level, the codec's name, so their names stay
// those the baseline has always gated. The w256 and w1024 rows are gated
// in CI by cmd/benchguard against BENCH_BASELINE.json; w4096 approaches
// the paper's per-batch scale and is for manual runs (CI skips it).
func BenchmarkDispatchThroughput(b *testing.B) {
	b.Run(WireBinary, func(b *testing.B) {
		for _, workers := range []int{256, 1024, 4096} {
			b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
				benchDispatch(b, workers, 16, false)
			})
		}
	})
}

// BenchmarkDispatchSlowPeer is the wedged-peer run: the same 256-worker
// fleet and task load as BenchmarkDispatchThroughput/binary/w256, plus one
// registered worker that never reads its connection (reaped by the
// heartbeat sweep during warmup) and one monitor subscriber that never
// drains its event stream (wedged for the whole timed region). Gated
// against baselines set within a few percent of the all-healthy w256
// rows: proof that a non-draining peer costs its own connection, not the
// fleet's throughput. Healthy workers heartbeat so the sweep only reaps
// the wedge.
func BenchmarkDispatchSlowPeer(b *testing.B) {
	b.Run(WireBinary, func(b *testing.B) { benchDispatch(b, 256, 16, true) })
}

// BenchmarkDispatchSelfSized is BenchmarkDispatchThroughput/binary/w256
// with the scheduler left at its default, Batch = 0: a no-op handler's
// mean is far under the budget, so after each wave's first one-task
// handouts every handout carries the 64-task cap. Gated like the other
// dispatch rows.
func BenchmarkDispatchSelfSized(b *testing.B) {
	benchDispatch(b, 256, 0, false)
}

// BenchmarkDispatcherCore is the dispatch path with everything but the
// dispatcher taken away — no sockets, no codec, no outbox writers, no
// second goroutine — which is the layer row the rows above cannot
// produce: what the state machine itself costs per task, events and live
// metrics included as deployed. 256 recording peers stand in for the
// fleet; one op is a 2,048-task wave submitted, handed out and acked,
// each worker answering its whole handout in one ack as a real one does.
// The handler time the acks report is 2 µs, so the self-sized handouts
// reach the 64-task cap as they do in BenchmarkDispatchSelfSized.
func BenchmarkDispatcherCore(b *testing.B) {
	b.Run("batch16", func(b *testing.B) { benchDispatcherCore(b, 16) })
	b.Run("selfsized", func(b *testing.B) { benchDispatcherCore(b, 0) })
}

// benchPeer keeps the frames it is handed, uncopied.
type benchPeer struct{ got []*message }

func (p *benchPeer) enqueue(m *message) { p.got = append(p.got, m) }
func (p *benchPeer) shutdown()          {}

func benchDispatcherCore(b *testing.B, batch int) {
	_, wave := dispatcherCore(b, batch)
	wave() // warms the ring, the maps and the hub

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wave()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perTask := float64(b.N) * coreWave
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perTask, "ns/task")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perTask, "allocs/task")
}

// coreWave is the tasks of one dispatcherCore wave.
const coreWave = 2048

// dispatcherCore builds the rig of BenchmarkDispatcherCore — a dispatcher
// with live metrics and a hub bounded to 1,024 events, 256 recording
// workers and one client — and returns its scheduler and one wave: 2,048
// tasks submitted, handed out and acked.
func dispatcherCore(tb testing.TB, batch int) (*Scheduler, func()) {
	const numWorkers = 256
	s := NewScheduler()
	s.Batch = batch
	s.Metrics = NewSchedulerMetrics(nil)
	s.Events().AddSink(s.Metrics.Observe)
	s.Events().SetLimit(1024)
	now := time.Unix(1_600_000_000, 0)
	d, err := s.newDispatcher(now)
	if err != nil {
		tb.Fatal(err)
	}
	workers := make([]*workerConn, numWorkers)
	for i := range workers {
		workers[i] = &workerConn{id: fmt.Sprintf("w%03d", i), ob: &benchPeer{}}
		d.register(workers[i], now)
	}
	client := &benchPeer{}
	cc := &clientConn{ob: client}
	payload := []byte(`{"job":"fold","species":"DVU","protein":"DVU_0001","preset":"reduced","seed":42}`)
	tasks := make([]Task, coreWave)
	for i := range tasks {
		tasks[i] = Task{ID: fmt.Sprintf("t%04d", i), Weight: float64(i % 97), Payload: payload}
	}
	wave := func() {
		now = now.Add(time.Millisecond)
		d.submit(cc, tasks, "", now)
		for again := true; again; {
			again = false
			for _, w := range workers {
				p := w.ob.(*benchPeer)
				if len(p.got) == 0 {
					continue
				}
				// A worker holds one handout at a time; its ack is a fresh
				// slice, as the read pump's is.
				m := p.got[0]
				p.got = p.got[:0]
				ress := make([]Result, len(m.Tasks))
				for i := range m.Tasks {
					ress[i] = Result{TaskID: m.Tasks[i].ID, WorkerID: w.id, Start: now, End: now.Add(2 * time.Microsecond)}
				}
				d.result(w, ress, now)
				again = true
			}
		}
		answered := 0
		for _, m := range client.got {
			answered += len(m.Results)
		}
		if answered != coreWave {
			tb.Fatalf("client was answered %d of %d tasks", answered, coreWave)
		}
		client.got = client.got[:0]
	}
	return s, wave
}

func benchDispatch(b *testing.B, numWorkers, batch int, slowPeer bool) {
	tasksPerOp := 8 * numWorkers
	s := NewScheduler()
	s.Batch = batch
	// Live metrics on: the baselines pin the dispatch path as deployed
	// (`sched -http` registers a SchedulerMetrics sink), so the per-event
	// fold into the Prometheus series is part of what every row measures.
	s.Metrics = NewSchedulerMetrics(nil)
	// The client awaits a whole wave, and every worker's ack costs its
	// outbox one frame; with a no-op handler all of a wave's acks can be
	// queued there before the writer goroutine runs. At most one ack per
	// task, so a wave's worth of slots (twice over) can never overflow.
	s.OutboxDepth = 2 * tasksPerOp
	if slowPeer {
		// The only reap signal for a wedged-but-connected worker is its
		// heartbeat going quiet; healthy workers beat at a tenth of the
		// deadline, wide enough that a dispatch burst starving their
		// heartbeat goroutines (single-core CI runners) cannot cause a
		// false reap. The steady heartbeat traffic is part of what the
		// slow-peer rows measure.
		s.HeartbeatTimeout = 10 * time.Second
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	noop := func(task Task) (json.RawMessage, error) { return nil, nil }
	for i := 0; i < numWorkers; i++ {
		w := NewWorker(fmt.Sprintf("w%03d", i), noop)
		w.HeartbeatInterval = 0
		if slowPeer {
			w.HeartbeatInterval = time.Second
		}
		if err := w.Dial(DialOptions{Addr: addr}); err != nil {
			b.Fatal(err)
		}
		defer w.Close()
	}
	if slowPeer {
		wedgeBenchPeer(b, addr, msgRegister)
		wedgeBenchPeer(b, addr, msgSubscribe)
	}
	c, err := DialClient(DialOptions{Addr: addr})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	// A payload in the size range of a summary-mode campaign task, built
	// once: the benchmark measures framing, not payload construction.
	payload := []byte(`{"job":"fold","species":"DVU","protein":"DVU_0001","preset":"reduced","seed":42}`)
	tasks := make([]Task, tasksPerOp)
	for i := range tasks {
		tasks[i] = Task{ID: fmt.Sprintf("t%04d", i), Weight: float64(i % 97), Payload: payload}
	}

	// One untimed wave warms every connection's buffers and the
	// scheduler's maps, so b.N=1 runs measure steady state.
	if _, err := c.Map(tasks, nil); err != nil {
		b.Fatal(err)
	}
	if slowPeer {
		// Keep running untimed waves until the free-list rotation hands
		// the wedged worker a batch, that wave stalls on its silent
		// conn, and the heartbeat sweep reaps it (requeueing the batch
		// to healthy workers). The timed region then starts with the
		// wedge's one-time damage fully paid — steady state with a dead
		// wedged worker and a still-attached, never-draining monitor.
		deadline := time.Now().Add(90 * time.Second)
		for countEvents(s, events.WorkerLost) == 0 {
			if time.Now().After(deadline) {
				b.Fatal("wedged worker never reaped during warmup")
			}
			if _, err := c.Map(tasks, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Bound the event hub's in-memory history for the timed region: the
	// benchmark measures the dispatch path, not unbounded backlog growth
	// across iterations. (Unbounded during warmup, so the WorkerLost
	// marker above cannot be evicted before it is observed.)
	s.Events().SetLimit(1024)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Map(tasks, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(tasksPerOp)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
}

// wedgeBenchPeer connects a peer that sends one hello frame (register or
// subscribe) and then never reads — the non-draining connection the
// slow-peer benchmark is about.
func wedgeBenchPeer(b *testing.B, addr, kind string) {
	b.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4 << 10)
	}
	b.Cleanup(func() { conn.Close() })
	m := message{Type: kind}
	if kind == msgRegister {
		m.WorkerID = "wedged"
	}
	if _, err := handshake(conn, &m); err != nil {
		b.Fatal(err)
	}
}
