package flow

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/rng"
)

// The transcripts under testdata/transcripts pin what the scheduler's
// event loop does with a given sequence of inputs: every event it emits,
// as (type, task, worker, attempt, campaign), and every frame each peer
// receives, step by step, with the stamps left out. They were recorded
// from the loop as it stood before it was reshaped into a dispatcher, and
// every script must reproduce its file byte for byte twice: through a
// running Scheduler over pipes, and straight through the dispatcher's
// methods with recording peers, where every step is also held to the
// invariants of the seeded interleavings, its events' stamps included.
var updateTranscripts = flag.Bool("update-transcripts", false, "rewrite testdata/transcripts from this build's scheduler")

// txConfig is the scheduler a script runs against.
type txConfig struct {
	policy      string
	quota       int
	batch       int
	maxRetries  int
	beatTimeout time.Duration
}

// txWorker and txClient are the far ends of the fabricated connections:
// what a peer has been sent and, for a worker, what it still holds.
type txWorker struct {
	id      string
	wc      *workerConn
	seen    int    // tasks received
	held    []Task // handed out and not yet acked, as the worker sees it
	lastAck []Result
	gone    bool
}

type txClient struct {
	name     string
	campaign string
	cc       *clientConn
	gone     bool
}

// txRig is what a scene drives: something that takes the dispatcher's
// inputs and can say what came of them.
type txRig interface {
	newWorker(id string) *workerConn
	newClient() *clientConn
	send(e schedEvent)
	// settle returns the frames each peer (by worker id or client name)
	// has received since the last call, once all of them have arrived,
	// and the events emitted since.
	settle(workers []*txWorker, clients []*txClient) (map[string][]message, []events.Event)
}

// pipeRig runs a real Scheduler and fabricates its connections the way
// fakeWorkerConn does: the scheduler side of a net.Pipe behind an outbox,
// no read pump, so the script alone decides which inputs exist and in
// what order — a peer's death included, which a script sends as the pump
// would.
type pipeRig struct {
	t      *testing.T
	s      *Scheduler
	fence  *txClient
	frames map[peer]<-chan message
	evSeen int
}

func newPipeRig(t *testing.T, cfg txConfig) *pipeRig {
	s := cfg.scheduler()
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	r := &pipeRig{t: t, s: s, frames: map[peer]<-chan message{}}
	r.fence = &txClient{name: "fence", cc: r.newClient()}
	return r
}

func (cfg txConfig) scheduler() *Scheduler {
	s := NewScheduler()
	s.Policy, s.Quota, s.Batch, s.MaxRetries = cfg.policy, cfg.quota, cfg.batch, cfg.maxRetries
	s.HeartbeatTimeout = cfg.beatTimeout
	return s
}

func (r *pipeRig) send(e schedEvent) { r.s.sendEvent(e) }

// outbox returns an outbox on the scheduler side of a fresh pipe, whose
// far end decodes what it is sent.
func (r *pipeRig) outbox() *outbox {
	sched, far := net.Pipe()
	r.t.Cleanup(func() { sched.Close(); far.Close() })
	// Sized so that the reader never blocks on a script's worth of frames.
	ch := make(chan message, 4096)
	go func() {
		dec := newBinaryCodec(bufio.NewReader(far), nil)
		for {
			var m message
			if err := dec.Decode(&m); err != nil {
				return
			}
			ch <- m
		}
	}()
	ob := r.s.newOutbox(sched, newBinaryCodec(bufio.NewReader(sched), bufio.NewWriter(sched)))
	r.frames[ob] = ch
	return ob
}

func (r *pipeRig) newWorker(id string) *workerConn { return &workerConn{id: id, ob: r.outbox()} }

func (r *pipeRig) newClient() *clientConn { return &clientConn{ob: r.outbox()} }

func (r *pipeRig) next(ob peer, who string) message {
	select {
	case m := <-r.frames[ob]:
		return m
	case <-time.After(10 * time.Second):
		r.t.Fatalf("no frame reached %s", who)
		panic("unreachable")
	}
}

// sync sends an empty submit through c and returns the frames that reach
// c ahead of its answer: the event channel and the outbox are both FIFO,
// so by then the loop has handled every earlier input and c has read
// everything owed to it.
func (r *pipeRig) sync(c *txClient) []message {
	r.send(schedEvent{kind: inSubmit, cc: c.cc})
	var got []message
	for {
		m := r.next(c.cc.ob, c.name)
		if m.Type == msgAccepted && m.Count == 0 {
			return got
		}
		got = append(got, m)
	}
}

// settle waits until every frame the loop has enqueued so far has reached
// its peer. A worker is owed exactly the tasks the event stream says were
// assigned to it.
func (r *pipeRig) settle(workers []*txWorker, clients []*txClient) (map[string][]message, []events.Event) {
	r.sync(r.fence)
	got := map[string][]message{}
	for _, c := range clients {
		if !c.gone {
			got[c.name] = r.sync(c)
		}
	}
	evs := r.s.Events().Snapshot()
	assigned := map[string]int{}
	for _, e := range evs {
		if e.Type == events.TaskAssigned {
			assigned[e.Worker]++
		}
	}
	for _, w := range workers {
		for !w.gone && w.seen < assigned[w.id] {
			m := r.next(w.wc.ob, w.id)
			w.seen += len(m.Tasks)
			got[w.id] = append(got[w.id], m)
		}
	}
	evs = evs[r.evSeen:]
	r.evSeen += len(evs)
	return got, evs
}

// fakePeer stands in for an outbox where no socket exists: it keeps what
// it is handed, and counts what it is handed after it was shut down.
type fakePeer struct {
	frames  []message
	stopped bool
	late    int
}

func (p *fakePeer) enqueue(m *message) {
	if p.stopped {
		p.late++
		return
	}
	p.frames = append(p.frames, *m)
}

func (p *fakePeer) shutdown() { p.stopped = true }

func (p *fakePeer) take() []message {
	got := p.frames
	p.frames = nil
	return got
}

// directRig calls the dispatcher's methods itself, on a clock of its own
// that starts at txEpoch, the stream's epoch, and advances a millisecond
// per input — so every event's stamp is known exactly.
type directRig struct {
	d   *dispatcher
	now time.Time
	evs []events.Event
}

func newDirectRig(t testing.TB, cfg txConfig) *directRig {
	s := cfg.scheduler()
	d, err := s.newDispatcher(txEpoch)
	if err != nil {
		t.Fatal(err)
	}
	r := &directRig{d: d, now: txEpoch}
	s.Events().SetLimit(1024) // the sink below keeps what the rig needs
	s.Events().AddSink(func(e events.Event) { r.evs = append(r.evs, e) })
	return r
}

func (r *directRig) newWorker(id string) *workerConn { return &workerConn{id: id, ob: &fakePeer{}} }

func (r *directRig) newClient() *clientConn { return &clientConn{ob: &fakePeer{}} }

func (r *directRig) send(e schedEvent) {
	r.now = r.now.Add(time.Millisecond)
	r.d.handle(e, r.now)
}

func (r *directRig) settle(workers []*txWorker, clients []*txClient) (map[string][]message, []events.Event) {
	got := map[string][]message{}
	for _, w := range workers {
		got[w.id] = w.wc.ob.(*fakePeer).take()
		for _, m := range got[w.id] {
			w.seen += len(m.Tasks)
		}
	}
	for _, c := range clients {
		got[c.name] = c.cc.ob.(*fakePeer).take()
	}
	evs := r.evs
	r.evs = nil
	return got, evs
}

// scene is one script in progress: the peers it has created, and the
// transcript so far.
type scene struct {
	rig     txRig
	workers []*txWorker
	clients []*txClient
	nextID  int
	owner   map[string]*txClient // who submitted each task
	out     strings.Builder
	// sweeps lets walk draw heartbeat sweeps too; only a directRig, whose
	// clock the scene can move, takes them.
	sweeps bool
	// check, when set, is called after every step with what the step
	// produced.
	check func(frames map[string][]message, evs []events.Event)
}

func dash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// step sends one input and records what came of it.
func (sc *scene) step(e schedEvent, format string, args ...any) {
	sc.rig.send(e)
	sc.record(fmt.Sprintf(format, args...))
}

func (sc *scene) record(what string) {
	frames, evs := sc.rig.settle(sc.workers, sc.clients)
	sc.out.WriteString("> " + what + "\n")
	for _, e := range evs {
		fmt.Fprintf(&sc.out, "  %s %s %s %d %s\n", e.Type, dash(e.Task), dash(e.Worker), e.Attempt, dash(e.Campaign))
	}
	for _, w := range sc.workers {
		for _, m := range frames[w.id] {
			fmt.Fprintf(&sc.out, "  %s <- %s", w.id, m.Type)
			for _, t := range m.Tasks {
				fmt.Fprintf(&sc.out, " %s@%s%s", t.ID, dash(t.Campaign), t.Payload)
			}
			sc.out.WriteByte('\n')
			w.held = append(w.held, m.Tasks...)
		}
	}
	for _, c := range sc.clients {
		for _, m := range frames[c.name] {
			fmt.Fprintf(&sc.out, "  %s <- %s", c.name, m.Type)
			if m.Type == msgAccepted {
				fmt.Fprintf(&sc.out, " %d", m.Count)
			}
			for _, res := range m.Results {
				fmt.Fprintf(&sc.out, " %s", res.TaskID)
				if res.Err != "" {
					fmt.Fprintf(&sc.out, "!%q", res.Err)
				}
			}
			sc.out.WriteByte('\n')
		}
	}
	if sc.check != nil {
		sc.check(frames, evs)
	}
}

func (sc *scene) join() *txWorker {
	w := &txWorker{id: fmt.Sprintf("w%d", len(sc.workers))}
	w.wc = sc.rig.newWorker(w.id)
	sc.workers = append(sc.workers, w)
	sc.step(schedEvent{kind: inRegister, wc: w.wc}, "join %s", w.id)
	return w
}

// connect adds a client that submits under campaign ("" for an unnamed
// submitter). It is no input to the scheduler until it submits.
func (sc *scene) connect(campaign string) *txClient {
	c := &txClient{name: fmt.Sprintf("c%d", len(sc.clients)), campaign: campaign, cc: sc.rig.newClient()}
	sc.clients = append(sc.clients, c)
	return c
}

// submit sends n fresh tasks from c in one frame; campaigns, when given,
// names task i's own campaign (cycling), over the frame's.
func (sc *scene) submit(c *txClient, n int, payload string, campaigns ...string) {
	if sc.owner == nil {
		sc.owner = map[string]*txClient{}
	}
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{ID: fmt.Sprintf("t%03d", sc.nextID), Payload: []byte(payload)}
		if len(campaigns) > 0 {
			tasks[i].Campaign = campaigns[i%len(campaigns)]
		}
		sc.owner[tasks[i].ID] = c
		sc.nextID++
	}
	sc.step(schedEvent{kind: inSubmit, cc: c.cc, tsk: tasks, campaign: c.campaign},
		"submit %s campaign=%s %s..%s", c.name, dash(c.campaign), tasks[0].ID, tasks[n-1].ID)
}

var txEpoch = time.Unix(1_600_000_000, 0)

// ack answers the first k tasks w holds, each having taken d; failed
// marks them as handler failures.
func (sc *scene) ack(w *txWorker, k int, d time.Duration, failed bool) {
	ress := make([]Result, k)
	for i, t := range w.held[:k] {
		ress[i] = Result{TaskID: t.ID, WorkerID: w.id, EnqueuedNS: t.EnqueuedNS, Start: txEpoch, End: txEpoch.Add(d)}
		if failed {
			ress[i].Err = "handler failed"
		}
	}
	what := "ack"
	if w.gone {
		what = "late ack"
	} else if failed {
		what = "failing ack"
	}
	held := len(w.held)
	w.held = slices.Delete(w.held, 0, k)
	w.lastAck = ress
	sc.step(schedEvent{kind: inResult, wc: w.wc, ress: slices.Clone(ress)}, "%s %s %d/%d %s", what, w.id, k, held, d)
}

func (sc *scene) dupAck(w *txWorker) {
	sc.step(schedEvent{kind: inResult, wc: w.wc, ress: slices.Clone(w.lastAck)}, "duplicate ack %s ×%d", w.id, len(w.lastAck))
}

func (sc *scene) kill(w *txWorker) {
	w.gone = true
	sc.step(schedEvent{kind: inWorkerGone, wc: w.wc}, "kill %s holding %d", w.id, len(w.held))
}

func (sc *scene) drop(c *txClient) {
	c.gone = true
	sc.step(schedEvent{kind: inClientGone, cc: c.cc}, "drop %s", c.name)
}

// sweep moves the clock past the heartbeat deadline, lets every live
// worker but the victims beat, and sweeps.
func (sc *scene) sweep(victims []*txWorker) {
	r := sc.rig.(*directRig)
	r.now = r.now.Add(r.d.beatTimeout + time.Millisecond)
	var lost []string
	for _, w := range sc.live() {
		if slices.Contains(victims, w) {
			w.gone = true
			lost = append(lost, w.id)
		} else {
			r.d.heartbeat(w.wc, nil, r.now)
		}
	}
	r.d.sweep(r.now)
	sc.record(fmt.Sprintf("sweep losing %v", lost))
}

func (sc *scene) live() (ws []*txWorker) {
	for _, w := range sc.workers {
		if !w.gone {
			ws = append(ws, w)
		}
	}
	return ws
}

func (sc *scene) liveClients() (cs []*txClient) {
	for _, c := range sc.clients {
		if !c.gone {
			cs = append(cs, c)
		}
	}
	return cs
}

// chooser is where a walk draws its choices: a seeded rng.Source here.
type chooser interface{ Intn(n int) int }

func pick[T any](ch chooser, from []T) T { return from[ch.Intn(len(from))] }

var txDurations = []time.Duration{5 * time.Microsecond, 40 * time.Microsecond, 3 * time.Millisecond}

// walk takes n steps chosen by ch among those the scene allows. Every
// client keeps to the one namespace it connected with, and campaigns
// lists the names new clients draw theirs from.
func (sc *scene) walk(ch chooser, n int, campaigns []string) {
	for i := 0; i < n; i++ {
		live := sc.live()
		var holding, killedHolding, acked []*txWorker
		for _, w := range sc.workers {
			switch {
			case w.gone && len(w.held) > 0:
				killedHolding = append(killedHolding, w)
			case !w.gone && len(w.held) > 0:
				holding = append(holding, w)
			}
			if !w.gone && len(w.lastAck) > 0 {
				acked = append(acked, w)
			}
		}
		clients := sc.liveClients()
		ops := 20
		if sc.sweeps {
			ops = 22
		}
		switch op := ch.Intn(ops); {
		case op < 5 && len(clients) > 0:
			sc.submit(pick(ch, clients), 1+ch.Intn(9), "")
		case op < 10 && len(holding) > 0:
			w := pick(ch, holding)
			sc.ack(w, len(w.held), pick(ch, txDurations), false)
		case op < 13 && len(holding) > 0:
			w := pick(ch, holding)
			sc.ack(w, 1+ch.Intn(len(w.held)), pick(ch, txDurations), op == 12)
		case op == 13 && len(acked) > 0:
			sc.dupAck(pick(ch, acked))
		case op == 14 && len(live) > 1:
			sc.kill(pick(ch, live))
		case op == 15 && len(killedHolding) > 0:
			w := pick(ch, killedHolding)
			sc.ack(w, len(w.held), pick(ch, txDurations), false)
		case op == 16 && len(clients) > 1:
			sc.drop(pick(ch, clients))
		case op == 17 && len(clients) < 4:
			sc.submit(sc.connect(pick(ch, campaigns)), 1+ch.Intn(9), "")
		case op >= 20 && len(live) > 0:
			off := ch.Intn(len(live))
			sc.sweep(live[off : off+min(ch.Intn(3), len(live)-off)])
		case len(live) < 4:
			sc.join()
		case len(clients) > 0:
			sc.submit(pick(ch, clients), 1+ch.Intn(4), "")
		default:
			sc.submit(sc.connect(pick(ch, campaigns)), 1+ch.Intn(4), "")
		}
	}
}

// drain acks everything until no worker holds a task: with a worker
// alive, that is every admitted task settled.
func (sc *scene) drain() {
	if len(sc.live()) == 0 {
		sc.join()
	}
	for again := true; again; {
		again = false
		for _, w := range sc.live() {
			if len(w.held) > 0 {
				sc.ack(w, len(w.held), 40*time.Microsecond, false)
				again = true
			}
		}
	}
}

// txScripts are the recorded scenarios. Each opens with the situation it
// is named for, sized by the seed, and ends with a seeded walk and a
// drain.
var txScripts = []struct {
	name string
	cfg  txConfig
	seed uint64
	run  func(sc *scene, r *rng.Source)
}{
	{"fifo-batch4-death-mid-batch", txConfig{policy: PolicyFIFO, batch: 4}, 1, func(sc *scene, r *rng.Source) {
		a, b := sc.connect(""), sc.connect("")
		sc.submit(a, 6+r.Intn(4), "")
		sc.submit(b, 3+r.Intn(3), "")
		w0, w1 := sc.join(), sc.join()
		sc.ack(w0, 1+r.Intn(3), 40*time.Microsecond, false) // partial: w0 moves on mid-batch
		sc.kill(w0)                                         // and dies there
		sc.ack(w0, len(w0.held), 40*time.Microsecond, false)
		sc.ack(w1, len(w1.held), 40*time.Microsecond, false)
		sc.dupAck(w1)
		sc.walk(r, 40, []string{""})
		sc.drain()
	}},
	{"fair-batch4-quota", txConfig{policy: PolicyFair, quota: 6, batch: 4}, 2, func(sc *scene, r *rng.Source) {
		a, b, u := sc.connect("alpha"), sc.connect("beta"), sc.connect("")
		sc.submit(a, 9+r.Intn(4), "")
		sc.submit(b, 2+r.Intn(3), "")
		sc.submit(u, 7+r.Intn(3), "")
		w0, w1 := sc.join(), sc.join()
		sc.ack(w0, 2, 40*time.Microsecond, false)
		sc.ack(w1, len(w1.held), 40*time.Microsecond, false)
		sc.ack(w0, len(w0.held), 40*time.Microsecond, true)
		sc.walk(r, 40, []string{"alpha", "beta", "gamma"})
		sc.drain()
	}},
	{"fifo-selfsized", txConfig{policy: PolicyFIFO}, 3, func(sc *scene, r *rng.Source) {
		a := sc.connect("")
		sc.submit(a, 90+r.Intn(20), "")
		w0, w1 := sc.join(), sc.join()
		sc.ack(w0, 1, 20*time.Microsecond, false) // the wave's first sample: handouts grow
		sc.ack(w1, 1, 20*time.Microsecond, false)
		sc.ack(w0, 1+r.Intn(len(w0.held)), 20*time.Microsecond, false)
		sc.kill(w1) // its tasks come back one per handout
		sc.join()
		sc.walk(r, 30, []string{""})
		sc.drain()
	}},
	{"fair-selfsized-quota", txConfig{policy: PolicyFair, quota: 40}, 4, func(sc *scene, r *rng.Source) {
		a, b := sc.connect("bulk"), sc.connect("pilot")
		sc.submit(a, 70+r.Intn(20), "")
		w0 := sc.join()
		sc.ack(w0, 1, 5*time.Microsecond, false)
		sc.submit(b, 4+r.Intn(4), "")
		sc.join()
		sc.ack(w0, len(w0.held), 5*time.Microsecond, false)
		sc.walk(r, 30, []string{"bulk", "pilot"})
		sc.drain()
	}},
	{"fair-quota-client-loss-deferred", txConfig{policy: PolicyFair, quota: 5, batch: 4}, 5, func(sc *scene, r *rng.Source) {
		a, b, c := sc.connect("shared"), sc.connect("shared"), sc.connect("other")
		sc.submit(a, 8+r.Intn(4), "") // over quota: the tail is deferred, the ack withheld
		sc.submit(b, 3+r.Intn(3), "") // behind a's deferred work in the same campaign
		sc.submit(c, 2, "")
		w0 := sc.join()
		sc.drop(a) // queued and deferred work dropped, in-flight orphaned, b's admitted
		sc.ack(w0, len(w0.held), 40*time.Microsecond, false)
		sc.walk(r, 40, []string{"shared", "other"})
		sc.drain()
	}},
	{"fifo-quarantine-retries1", txConfig{policy: PolicyFIFO, batch: 4, maxRetries: 1}, 6, func(sc *scene, r *rng.Source) {
		a := sc.connect("")
		sc.submit(a, 5+r.Intn(3), `{"mem":16}`)
		w0 := sc.join()
		sc.kill(w0) // first death: requeued unchanged
		w1 := sc.join()
		sc.ack(w1, 1, 40*time.Microsecond, false)
		sc.kill(w1) // second death of what w1 still held: quarantined
		sc.join()
		sc.walk(r, 40, []string{""})
		sc.drain()
	}},
	{"fifo-quota-unnamed", txConfig{policy: PolicyFIFO, quota: 3, batch: 1}, 7, func(sc *scene, r *rng.Source) {
		a, b := sc.connect(""), sc.connect("")
		sc.submit(a, 5+r.Intn(3), "")
		sc.submit(b, 4+r.Intn(3), "")
		w0 := sc.join()
		sc.ack(w0, 1, 40*time.Microsecond, false)
		sc.drop(b)
		sc.walk(r, 40, []string{""})
		sc.drain()
	}},
}

func TestTranscripts(t *testing.T) {
	for _, script := range txScripts {
		path := filepath.Join("testdata", "transcripts", script.name+".txt")
		run := func(t *testing.T, rig txRig, update bool) {
			sc := &scene{rig: rig}
			if _, direct := rig.(*directRig); direct {
				watch(t, sc) // every step held to the interleavings' invariants too
			}
			script.run(sc, rng.New(script.seed))
			got := sc.out.String()
			if update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no recorded transcript (run `go test -update-transcripts ./internal/flow` at a commit whose behaviour is the reference): %v", err)
			}
			if got != string(want) {
				t.Errorf("transcript differs from %s at line %d\n%s", path, firstDiff(got, string(want)), got)
			}
		}
		t.Run(script.name+"/pipes", func(t *testing.T) { run(t, newPipeRig(t, script.cfg), *updateTranscripts) })
		t.Run(script.name+"/direct", func(t *testing.T) { run(t, newDirectRig(t, script.cfg), false) })
	}
}

// firstDiff is the 1-based number of the first line on which a and b
// differ.
func firstDiff(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			return i + 1
		}
	}
	return len(al) + 1
}
