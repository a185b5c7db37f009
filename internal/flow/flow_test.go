package flow

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/events"
)

// connectClient dials the scheduler at addr on the default wire.
func connectClient(addr string) (*Client, error) {
	return DialClient(DialOptions{Addr: addr})
}

// startCluster spins up a default scheduler plus n workers running
// handler, and a connected client. Everything is cleaned up at test end.
func startCluster(t *testing.T, n int, handler Handler) (*Scheduler, []*Worker, *Client) {
	t.Helper()
	return startClusterOn(t, NewScheduler(), n, handler)
}

// startClusterOn is startCluster on a scheduler the test configured. It
// returns once the hub holds a worker_join event per worker: Connect only
// sends the register frame, so without the wait a short map can finish
// before the scheduler has read every worker's register.
func startClusterOn(t *testing.T, s *Scheduler, n int, handler Handler) (*Scheduler, []*Worker, *Client) {
	t.Helper()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	workers := make([]*Worker, n)
	for i := range workers {
		w := NewWorker(fmt.Sprintf("w%02d", i), handler)
		if err := w.Connect(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		workers[i] = w
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		joins := 0
		for _, e := range s.Events().Snapshot() {
			if e.Type == events.WorkerJoin {
				joins++
			}
		}
		if joins >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers joined", joins, n)
		}
	}
	c, err := connectClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return s, workers, c
}

func echoHandler(task Task) (json.RawMessage, error) {
	return task.Payload, nil
}

func makeTasks(n int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{
			ID:      fmt.Sprintf("t%03d", i),
			Weight:  float64(i),
			Payload: []byte(fmt.Sprintf(`{"n":%d}`, i)),
		}
	}
	return tasks
}

func TestMapCompletesAllTasks(t *testing.T) {
	_, _, c := startCluster(t, 4, echoHandler)
	tasks := makeTasks(50)
	results, err := c.Map(tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 50 {
		t.Fatalf("got %d results", len(results))
	}
	seen := map[string]bool{}
	for _, r := range results {
		if r.Failed() {
			t.Errorf("task %s failed: %s", r.TaskID, r.Err)
		}
		if seen[r.TaskID] {
			t.Errorf("duplicate result %s", r.TaskID)
		}
		seen[r.TaskID] = true
		if r.End.Before(r.Start) {
			t.Errorf("task %s ends before it starts", r.TaskID)
		}
	}
	for _, task := range tasks {
		if !seen[task.ID] {
			t.Errorf("task %s never completed", task.ID)
		}
	}
}

func TestWorkISpreadAcrossWorkers(t *testing.T) {
	// With a slow-ish handler and many tasks, every worker must process a
	// share — the dataflow execution model of Fig. 1.
	slow := func(task Task) (json.RawMessage, error) {
		time.Sleep(2 * time.Millisecond)
		return nil, nil
	}
	_, workers, c := startCluster(t, 5, slow)
	if _, err := c.Map(makeTasks(60), nil); err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		if w.Processed() == 0 {
			t.Errorf("worker %s processed nothing; scheduler not distributing", w.ID)
		}
	}
}

func TestHandlerErrorsAreReported(t *testing.T) {
	h := func(task Task) (json.RawMessage, error) {
		if strings.HasSuffix(task.ID, "3") {
			return nil, fmt.Errorf("boom on %s", task.ID)
		}
		return nil, nil
	}
	_, _, c := startCluster(t, 2, h)
	results, err := c.Map(makeTasks(20), nil)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, r := range results {
		if r.Failed() {
			failed++
			if !strings.Contains(r.Err, "boom") {
				t.Errorf("unexpected error text: %s", r.Err)
			}
		}
	}
	if failed != 2 { // t003, t013
		t.Errorf("failed = %d, want 2", failed)
	}
}

func TestMapObserverStreamsResults(t *testing.T) {
	_, _, c := startCluster(t, 3, echoHandler)
	seen := map[string]int{}
	results, err := c.Map(makeTasks(10), func(r *Result) {
		seen[r.TaskID]++
		if r.WorkerID == "" {
			t.Errorf("observer saw %s with no worker identity", r.TaskID)
		}
		if r.EnqueuedNS == 0 {
			t.Errorf("observer saw %s with no scheduler enqueue stamp", r.TaskID)
		}
		if r.Start.Before(r.EnqueuedAt()) {
			t.Errorf("task %s started before it was enqueued", r.TaskID)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 || len(seen) != 10 {
		t.Fatalf("results = %d, observed = %d, want 10", len(results), len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("observer saw %s %d times", id, n)
		}
	}
}

func TestSchedulerFileRegistration(t *testing.T) {
	s := NewScheduler()
	if err := s.WriteSchedulerFile("/tmp/never"); err == nil {
		t.Error("writing scheduler file before Start must fail")
	}
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	path := filepath.Join(t.TempDir(), "scheduler.json")
	if err := s.WriteSchedulerFile(path); err != nil {
		t.Fatal(err)
	}

	var calls int64
	w := NewWorker("wfile", func(task Task) (json.RawMessage, error) {
		atomic.AddInt64(&calls, 1)
		return nil, nil
	})
	if err := w.Dial(DialOptions{SchedulerFile: path}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	c, err := DialClient(DialOptions{SchedulerFile: path})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	if _, err := c.Map(makeTasks(5), nil); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&calls) != 5 {
		t.Errorf("worker executed %d tasks, want 5", calls)
	}
}

func TestWorkerJoinsMidBatch(t *testing.T) {
	// Dataflow property: a worker registering after submission still gets
	// work from the queue.
	s := NewScheduler()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	slow := func(task Task) (json.RawMessage, error) {
		time.Sleep(3 * time.Millisecond)
		return nil, nil
	}
	w1 := NewWorker("early", slow)
	if err := w1.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w1.Close)

	c, err := connectClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	done := make(chan error, 1)
	go func() {
		_, err := c.Map(makeTasks(40), nil)
		done <- err
	}()

	time.Sleep(10 * time.Millisecond)
	w2 := NewWorker("late", slow)
	if err := w2.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w2.Close)

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if w2.Processed() == 0 {
		t.Error("late-joining worker never received tasks")
	}
}

func TestWorkerCrashRequeuesTask(t *testing.T) {
	// A worker that dies mid-task must not lose the task: the scheduler
	// requeues it onto a surviving worker.
	s := NewScheduler()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	var crasher *Worker
	crashed := make(chan struct{})
	var once int64
	crashHandler := func(task Task) (json.RawMessage, error) {
		if task.ID == "t000" && atomic.CompareAndSwapInt64(&once, 0, 1) {
			// Simulate a crash: close our own connection without replying.
			go crasher.Close()
			close(crashed)
			time.Sleep(50 * time.Millisecond)
			return nil, fmt.Errorf("connection lost")
		}
		return nil, nil
	}
	crasher = NewWorker("crashy", crashHandler)
	if err := crasher.Connect(addr); err != nil {
		t.Fatal(err)
	}

	survivor := NewWorker("survivor", func(task Task) (json.RawMessage, error) {
		return nil, nil
	})

	c, err := connectClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	done := make(chan struct{})
	var results []Result
	var mapErr error
	go func() {
		results, mapErr = c.Map(makeTasks(8), nil)
		close(done)
	}()

	<-crashed
	if err := survivor.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(survivor.Close)

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("map did not complete after worker crash")
	}
	if mapErr != nil {
		t.Fatal(mapErr)
	}
	if len(results) != 8 {
		t.Fatalf("results = %d, want 8 (requeue failed)", len(results))
	}
	for _, r := range results {
		if r.TaskID == "t000" && r.WorkerID != "survivor" {
			t.Errorf("t000 completed by %s, expected requeue to survivor", r.WorkerID)
		}
	}
}

func TestMapValidation(t *testing.T) {
	_, _, c := startCluster(t, 1, echoHandler)
	if _, err := c.Map([]Task{{ID: ""}}, nil); err == nil {
		t.Error("empty task ID accepted")
	}
	if _, err := c.Map([]Task{{ID: "a"}, {ID: "a"}}, nil); err == nil {
		t.Error("duplicate task IDs accepted")
	}
	res, err := c.Map(nil, nil)
	if err != nil || res != nil {
		t.Error("empty map should be a no-op")
	}
}

func TestSortByWeightDescending(t *testing.T) {
	tasks := []Task{
		{ID: "b", Weight: 5},
		{ID: "a", Weight: 5},
		{ID: "c", Weight: 100},
		{ID: "d", Weight: 1},
	}
	SortByWeightDescending(tasks)
	got := []string{tasks[0].ID, tasks[1].ID, tasks[2].ID, tasks[3].ID}
	want := []string{"c", "a", "b", "d"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestTwoSequentialBatches(t *testing.T) {
	// The paper runs inference and relaxation as separate workflows on the
	// same pattern; a client must be able to Map twice.
	_, _, c := startCluster(t, 3, echoHandler)
	r1, err := c.Map(makeTasks(10), nil)
	if err != nil {
		t.Fatal(err)
	}
	tasks2 := makeTasks(7)
	for i := range tasks2 {
		tasks2[i].ID = "second-" + tasks2[i].ID
	}
	r2, err := c.Map(tasks2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != 10 || len(r2) != 7 {
		t.Errorf("batch sizes: %d, %d", len(r1), len(r2))
	}
}

func BenchmarkMapThroughput(b *testing.B) {
	s := NewScheduler()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		w := NewWorker(fmt.Sprintf("w%d", i), echoHandler)
		if err := w.Connect(addr); err != nil {
			b.Fatal(err)
		}
		defer w.Close()
	}
	c, err := connectClient(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tasks := make([]Task, 100)
		for j := range tasks {
			tasks[j] = Task{ID: fmt.Sprintf("b%d-%d", i, j)}
		}
		if _, err := c.Map(tasks, nil); err != nil {
			b.Fatal(err)
		}
	}
}
