package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs.")
	g := r.Gauge("depth", "Queue depth.")
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Add(2)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if g.Value() != 9 {
		t.Fatalf("gauge = %d, want 9", g.Value())
	}
	out := render(t, r)
	for _, want := range []string{
		"# HELP depth Queue depth.\n# TYPE depth gauge\ndepth 9\n",
		"# HELP jobs_total Jobs.\n# TYPE jobs_total counter\njobs_total 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Families render sorted by name.
	if strings.Index(out, "depth") > strings.Index(out, "jobs_total") {
		t.Errorf("families not sorted:\n%s", out)
	}
}

func TestVecsAndDelete(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("tasks_total", "Tasks.", "event", "campaign")
	gv := r.GaugeVec("worker_goroutines", "Goroutines.", "worker")
	cv.With("done", "dvu").Add(3)
	cv.With("failed", "dvu").Inc()
	cv.With("done", "").Inc() // empty label value is legal
	gv.With("w1").Set(12)
	gv.With("w2").Set(8)
	if got := cv.With("done", "dvu").Value(); got != 3 {
		t.Fatalf("With returned a fresh counter: %d", got)
	}
	out := render(t, r)
	for _, want := range []string{
		`tasks_total{event="done",campaign="dvu"} 3`,
		`tasks_total{event="failed",campaign="dvu"} 1`,
		`tasks_total{event="done",campaign=""} 1`,
		`worker_goroutines{worker="w1"} 12`,
		`worker_goroutines{worker="w2"} 8`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	gv.Delete("w1")
	out = render(t, r)
	if strings.Contains(out, `worker="w1"`) {
		t.Errorf("deleted series still rendered:\n%s", out)
	}
	if !strings.Contains(out, `worker="w2"`) {
		t.Errorf("surviving series vanished:\n%s", out)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("task_seconds", "Durations.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("sum = %v, want 56.05", h.Sum())
	}
	out := render(t, r)
	for _, want := range []string{
		"# TYPE task_seconds histogram",
		`task_seconds_bucket{le="0.1"} 1`,
		`task_seconds_bucket{le="1"} 3`,
		`task_seconds_bucket{le="10"} 4`,
		`task_seconds_bucket{le="+Inf"} 5`,
		"task_seconds_sum 56.05",
		"task_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("weird", "Help with \\ backslash\nand newline.", "name")
	cv.With("a\"b\\c\nd").Inc()
	out := render(t, r)
	if !strings.Contains(out, `# HELP weird Help with \\ backslash\nand newline.`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `weird{name="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestBadHistogramBucketsPanics(t *testing.T) {
	r := NewRegistry()
	for i, buckets := range [][]float64{nil, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: bad buckets did not panic", i)
				}
			}()
			r.Histogram("h", "", buckets)
		}()
	}
}

func TestWrongLabelCountPanics(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("v", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label count did not panic")
		}
	}()
	cv.With("only-one")
}

func TestUnlabeledHistogramLe(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("plain", "", []float64{1})
	h.Observe(0.5)
	out := render(t, r)
	if !strings.Contains(out, `plain_bucket{le="1"} 1`) {
		t.Errorf("unlabeled histogram le missing:\n%s", out)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	cv := r.CounterVec("cv", "", "k")
	h := r.Histogram("h", "", []float64{1, 2})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				cv.With("a").Inc()
				cv.With("b").Inc()
				h.Observe(float64(j % 3))
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			render(t, r)
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if cv.With("a").Value() != 8000 || cv.With("b").Value() != 8000 {
		t.Fatalf("vec counters = %d/%d, want 8000 each", cv.With("a").Value(), cv.With("b").Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}
