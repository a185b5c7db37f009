package cluster

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// simulateRef is SimulateDataflow's policy written as a linear scan: each
// task in submission order goes to the earliest-free worker, the lowest
// index among those free at the same time.
func simulateRef(tasks []SimTask, opt DataflowOptions) *SimResult {
	res := &SimResult{
		WorkerBusy:    make([]float64, opt.Workers),
		WorkerLastEnd: make([]float64, opt.Workers),
	}
	free := make([]float64, opt.Workers)
	for w := range free {
		free[w] = opt.StartupDelay
	}
	for _, t := range tasks {
		w := 0
		for i := range free {
			if free[i] < free[w] {
				w = i
			}
		}
		start := free[w] + opt.DispatchOverhead
		end := start + t.Duration
		res.Intervals = append(res.Intervals, Interval{TaskID: t.ID, Worker: w, Start: start, End: end})
		res.WorkerBusy[w] += t.Duration
		res.WorkerLastEnd[w] = end
		res.TotalWork += t.Duration
		res.Makespan = max(res.Makespan, end)
		free[w] = end
	}
	res.Overhead = res.Makespan*float64(opt.Workers) - res.TotalWork
	return res
}

// TestSimulateDataflowMatchesReference holds the heap-driven simulator to
// simulateRef bit for bit — which worker runs each task, and every time
// and total — over generated waves full of ties: durations drawn from a
// few values including zero, so many workers come free at the same time.
func TestSimulateDataflowMatchesReference(t *testing.T) {
	bits := math.Float64bits
	sameFloats := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if bits(a[i]) != bits(b[i]) {
				return false
			}
		}
		return true
	}
	r := rng.New(0x5eed)
	for c := 0; c < 300; c++ {
		n := r.Intn(400)
		tasks := make([]SimTask, n)
		for i := range tasks {
			d := []float64{0, 0.5, 2.5, 2.5, 7, 7, 7}[r.Intn(7)]
			if r.Intn(4) == 0 {
				d = 100 * r.Float64()
			}
			tasks[i] = SimTask{ID: fmt.Sprintf("c%d/t%d", c, i), Weight: d, Duration: d}
		}
		if c%3 == 0 {
			ApplyOrder(tasks, LongestFirst)
		}
		opt := DataflowOptions{
			Workers:          1 + r.Intn(40),
			DispatchOverhead: []float64{0, 0.5, 1.5}[r.Intn(3)],
			StartupDelay:     []float64{0, 7.25, 300}[r.Intn(3)],
		}
		got, err := SimulateDataflow(tasks, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := simulateRef(tasks, opt)
		where := fmt.Sprintf("case %d (%d tasks, %+v)", c, n, opt)
		if len(got.Intervals) != len(want.Intervals) {
			t.Fatalf("%s: %d intervals, reference has %d", where, len(got.Intervals), len(want.Intervals))
		}
		for i, g := range got.Intervals {
			w := want.Intervals[i]
			if g.TaskID != w.TaskID || g.Worker != w.Worker || bits(g.Start) != bits(w.Start) || bits(g.End) != bits(w.End) {
				t.Fatalf("%s: interval %d is %+v, reference has %+v", where, i, g, w)
			}
		}
		if !sameFloats(got.WorkerBusy, want.WorkerBusy) || !sameFloats(got.WorkerLastEnd, want.WorkerLastEnd) {
			t.Fatalf("%s: per-worker totals differ:\nbusy %v\nref  %v\nlast %v\nref  %v",
				where, got.WorkerBusy, want.WorkerBusy, got.WorkerLastEnd, want.WorkerLastEnd)
		}
		if bits(got.Makespan) != bits(want.Makespan) || bits(got.TotalWork) != bits(want.TotalWork) || bits(got.Overhead) != bits(want.Overhead) {
			t.Fatalf("%s: makespan/work/overhead %v/%v/%v, reference %v/%v/%v",
				where, got.Makespan, got.TotalWork, got.Overhead, want.Makespan, want.TotalWork, want.Overhead)
		}
	}
}
