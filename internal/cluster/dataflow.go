package cluster

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// SimTask is one task for the dataflow simulator: an identifier, the
// scheduling weight (sequence length in the paper's policy), and the task's
// execution time in seconds of virtual time.
type SimTask struct {
	ID       string
	Weight   float64
	Duration float64
}

// Interval is one task execution on one worker, the unit Fig. 2 plots.
type Interval struct {
	TaskID string
	Worker int
	Start  float64
	End    float64
}

// SimResult is the outcome of a simulated dataflow run.
type SimResult struct {
	Intervals []Interval
	// Makespan is the virtual wall-clock time until the last task ends.
	Makespan float64
	// WorkerBusy[w] is the total busy time of worker w.
	WorkerBusy []float64
	// WorkerLastEnd[w] is when worker w finished its final task.
	WorkerLastEnd []float64
	// TotalWork is the summed task durations.
	TotalWork float64
	// Overhead is makespan·workers − TotalWork (idle + dispatch cost).
	Overhead float64
}

// Utilization is TotalWork / (Makespan × workers).
func (r *SimResult) Utilization() float64 {
	if r.Makespan <= 0 || len(r.WorkerBusy) == 0 {
		return 0
	}
	return r.TotalWork / (r.Makespan * float64(len(r.WorkerBusy)))
}

// FinishSpread is the gap between the first and last worker's final task
// completion — the paper's load-balance observation is that with
// length-sorted submission all 1200 workers finish "within minutes of one
// another".
func (r *SimResult) FinishSpread() float64 {
	if len(r.WorkerLastEnd) == 0 {
		return 0
	}
	min, max := r.WorkerLastEnd[0], r.WorkerLastEnd[0]
	for _, e := range r.WorkerLastEnd[1:] {
		if e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	return max - min
}

// workerHeap orders workers by next-free time (ties by index for
// determinism).
type workerItem struct {
	index    int
	freeTime float64
}

type workerHeap []workerItem

func (h workerHeap) Len() int { return len(h) }
func (h workerHeap) Less(i, j int) bool {
	if h[i].freeTime != h[j].freeTime {
		return h[i].freeTime < h[j].freeTime
	}
	return h[i].index < h[j].index
}
func (h workerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *workerHeap) Push(x any)   { *h = append(*h, x.(workerItem)) }
func (h *workerHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// DataflowOptions configure the simulation.
type DataflowOptions struct {
	Workers int
	// DispatchOverhead is the per-task scheduler overhead in seconds (the
	// white gaps between blue blocks in Fig. 2).
	DispatchOverhead float64
	// StartupDelay is paid once before any task starts (container launch,
	// model-weight load, worker registration).
	StartupDelay float64
}

// SimulateDataflow runs the dataflow execution model in virtual time:
// tasks are taken from the queue in submission order and each is assigned
// to the earliest-free worker, exactly the policy of the scheduler in
// package flow. Task order is the caller's submission order — sort first
// to apply the paper's longest-first policy.
func SimulateDataflow(tasks []SimTask, opt DataflowOptions) (*SimResult, error) {
	if opt.Workers <= 0 {
		return nil, fmt.Errorf("cluster: dataflow needs at least one worker")
	}
	if opt.DispatchOverhead < 0 || opt.StartupDelay < 0 {
		return nil, fmt.Errorf("cluster: negative overhead")
	}
	res := &SimResult{
		Intervals:     make([]Interval, 0, len(tasks)),
		WorkerBusy:    make([]float64, opt.Workers),
		WorkerLastEnd: make([]float64, opt.Workers),
	}
	h := make(workerHeap, opt.Workers)
	for i := range h {
		h[i] = workerItem{index: i, freeTime: opt.StartupDelay}
	}
	heap.Init(&h)

	for _, t := range tasks {
		if t.Duration < 0 {
			return nil, fmt.Errorf("cluster: task %s has negative duration", t.ID)
		}
		w := heap.Pop(&h).(workerItem)
		start := w.freeTime + opt.DispatchOverhead
		end := start + t.Duration
		res.Intervals = append(res.Intervals, Interval{
			TaskID: t.ID, Worker: w.index, Start: start, End: end,
		})
		res.WorkerBusy[w.index] += t.Duration
		res.WorkerLastEnd[w.index] = end
		res.TotalWork += t.Duration
		if end > res.Makespan {
			res.Makespan = end
		}
		w.freeTime = end
		heap.Push(&h, w)
	}
	res.Overhead = res.Makespan*float64(opt.Workers) - res.TotalWork
	return res, nil
}

// OrderPolicy is a task submission-order policy, the ablation axis of the
// paper's greedy load-balancing discussion (Section 3.3).
type OrderPolicy int

const (
	// LongestFirst sorts descending by weight — the paper's choice.
	LongestFirst OrderPolicy = iota
	// ShortestFirst sorts ascending by weight.
	ShortestFirst
	// SubmissionOrder keeps the caller's order (the "random order" baseline
	// when the caller shuffles).
	SubmissionOrder
)

func (p OrderPolicy) String() string {
	switch p {
	case LongestFirst:
		return "longest-first"
	case ShortestFirst:
		return "shortest-first"
	default:
		return "submission-order"
	}
}

// ApplyOrder sorts tasks in place per the policy (stable, ties by ID).
// Weights are never NaN, so cmp.Compare orders them as < and > do.
func ApplyOrder(tasks []SimTask, p OrderPolicy) {
	switch p {
	case LongestFirst:
		slices.SortStableFunc(tasks, func(a, b SimTask) int {
			if c := cmp.Compare(b.Weight, a.Weight); c != 0 {
				return c
			}
			return strings.Compare(a.ID, b.ID)
		})
	case ShortestFirst:
		slices.SortStableFunc(tasks, func(a, b SimTask) int {
			if c := cmp.Compare(a.Weight, b.Weight); c != 0 {
				return c
			}
			return strings.Compare(a.ID, b.ID)
		})
	}
}

// WorkerTimeline returns the intervals of one worker in start order,
// the row data of Fig. 2.
func (r *SimResult) WorkerTimeline(worker int) []Interval {
	var out []Interval
	for _, iv := range r.Intervals {
		if iv.Worker == worker {
			out = append(out, iv)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
