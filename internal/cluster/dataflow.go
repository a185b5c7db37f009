// Package cluster models how the paper's campaign runs on its machines:
// a discrete-event simulation of dataflow task execution in virtual time,
// the submission-order policies of Section 3.3, and a per-machine
// node-hour ledger. Allocation sizes and the one-worker-per-GPU layout
// are internal/core's per-node constants. The paper's scheduling-level
// results (Table 1 walltimes, Fig. 2 worker timelines, node-hour budgets)
// are reproduced on this simulator.
package cluster

import (
	"fmt"
	"math"
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

// workerItem is one worker of the simulator's heap.
type workerItem struct {
	index    int
	freeTime float64
}

// workerHeap is a binary min-heap of workers ordered by next-free time,
// ties by index for determinism. The order is strict, so the root is the
// one earliest-free worker whatever shape the heap has.
type workerHeap []workerItem

func (h workerHeap) less(i, j int) bool {
	if h[i].freeTime != h[j].freeTime {
		return h[i].freeTime < h[j].freeTime
	}
	return h[i].index < h[j].index
}

// down restores heap order below h[i] after its freeTime grew.
func (h workerHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
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
	// Every worker starts free at StartupDelay, in index order: already a
	// heap. Each task goes to the root, whose freeTime then grows in place.
	h := make(workerHeap, opt.Workers)
	for i := range h {
		h[i] = workerItem{index: i, freeTime: opt.StartupDelay}
	}

	for _, t := range tasks {
		if t.Duration < 0 {
			return nil, fmt.Errorf("cluster: task %s has negative duration", t.ID)
		}
		w := &h[0]
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
		h.down(0)
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
// Weights are never NaN; −0 and +0 are one weight, as they are to < and >.
//
// The sort is linear in the weight: an LSD radix pass over orderKey's
// bytes, skipping every byte all keys share (a wave of integer lengths
// varies in two or three), orders the tasks stably by weight, and only
// each run of equal weight is then sorted stably by ID. The result is the
// one slices.SortStableFunc gives under the (weight, ID) comparison.
func ApplyOrder(tasks []SimTask, p OrderPolicy) {
	if (p != LongestFirst && p != ShortestFirst) || len(tasks) < 2 {
		return
	}
	keyed := make([]keyedIndex, len(tasks))
	for i := range tasks {
		keyed[i] = keyedIndex{key: orderKey(tasks[i].Weight, p == LongestFirst), index: i}
	}
	keyed = radixSort(keyed)

	// Gather by following each cycle of the permutation in place; index
	// is overwritten with the destination to mark a slot done.
	for i := range keyed {
		if keyed[i].index == i {
			continue
		}
		held, j := tasks[i], i
		for {
			k := keyed[j].index
			keyed[j].index = j
			if k == i {
				tasks[j] = held
				break
			}
			tasks[j], j = tasks[k], k
		}
	}

	byID := func(a, b SimTask) int { return strings.Compare(a.ID, b.ID) }
	for lo := 0; lo < len(keyed); {
		hi := lo + 1
		for hi < len(keyed) && keyed[hi].key == keyed[lo].key {
			hi++
		}
		if hi-lo > 1 {
			slices.SortStableFunc(tasks[lo:hi], byID)
		}
		lo = hi
	}
}

// keyedIndex is a task's position before ordering and its order key.
type keyedIndex struct {
	key   uint64
	index int
}

// orderKey maps a non-NaN weight to a uint64 whose unsigned order is the
// weight's ascending order (descending when longestFirst): −0 folds onto
// +0, a negative weight's bits are inverted and a positive weight's sign
// bit set, so every finite and infinite weight keeps its place.
func orderKey(w float64, longestFirst bool) uint64 {
	if w == 0 {
		w = 0
	}
	k := math.Float64bits(w)
	if k>>63 != 0 {
		k = ^k
	} else {
		k |= 1 << 63
	}
	if longestFirst {
		k = ^k
	}
	return k
}

// radixSort orders keyed stably by key, least significant byte first,
// skipping every byte on which all keys agree. It returns whichever of
// keyed and its scratch buffer holds the result.
func radixSort(keyed []keyedIndex) []keyedIndex {
	var counts [8][256]int
	for _, e := range keyed {
		for b := range 8 {
			counts[b][byte(e.key>>(8*b))]++
		}
	}
	var scratch []keyedIndex
	for b := range 8 {
		c := &counts[b]
		if c[byte(keyed[0].key>>(8*b))] == len(keyed) {
			continue
		}
		if scratch == nil {
			scratch = make([]keyedIndex, len(keyed))
		}
		sum := 0
		for d := range c {
			c[d], sum = sum, sum+c[d]
		}
		for _, e := range keyed {
			d := byte(e.key >> (8 * b))
			scratch[c[d]] = e
			c[d]++
		}
		keyed, scratch = scratch, keyed
	}
	return keyed
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
