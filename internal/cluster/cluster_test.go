package cluster

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func makeSimTasks(r *rng.Source, n int) []SimTask {
	tasks := make([]SimTask, n)
	for i := range tasks {
		l := r.Gamma(2.0, 150)
		tasks[i] = SimTask{
			ID:       fmt.Sprintf("t%04d", i),
			Weight:   l,
			Duration: 5 + l*0.8,
		}
	}
	return tasks
}

func TestSimulateDataflowConservation(t *testing.T) {
	r := rng.New(1)
	tasks := makeSimTasks(r, 500)
	res, err := SimulateDataflow(tasks, DataflowOptions{Workers: 16, DispatchOverhead: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) != 500 {
		t.Fatalf("intervals = %d", len(res.Intervals))
	}
	var want float64
	for _, task := range tasks {
		want += task.Duration
	}
	if math.Abs(res.TotalWork-want) > 1e-9 {
		t.Errorf("total work %v, want %v", res.TotalWork, want)
	}
	// No worker may run two tasks at once.
	for w := 0; w < 16; w++ {
		tl := res.WorkerTimeline(w)
		for i := 1; i < len(tl); i++ {
			if tl[i].Start < tl[i-1].End-1e-9 {
				t.Fatalf("worker %d overlaps: %+v then %+v", w, tl[i-1], tl[i])
			}
		}
	}
	if res.Utilization() <= 0 || res.Utilization() > 1 {
		t.Errorf("utilization = %v", res.Utilization())
	}
}

func TestSimulateDataflowValidation(t *testing.T) {
	if _, err := SimulateDataflow(nil, DataflowOptions{Workers: 0}); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := SimulateDataflow([]SimTask{{ID: "x", Duration: -1}}, DataflowOptions{Workers: 1}); err == nil {
		t.Error("negative duration accepted")
	}
	if _, err := SimulateDataflow(nil, DataflowOptions{Workers: 1, DispatchOverhead: -1}); err == nil {
		t.Error("negative overhead accepted")
	}
}

func TestLongestFirstBeatsRandomTail(t *testing.T) {
	// The paper's central load-balance claim: sorting descending by length
	// shrinks the finish-time spread versus random order.
	r := rng.New(7)
	base := makeSimTasks(r, 2000)

	randOrder := make([]SimTask, len(base))
	copy(randOrder, base)
	r.Shuffle(len(randOrder), func(i, j int) { randOrder[i], randOrder[j] = randOrder[j], randOrder[i] })
	sorted := make([]SimTask, len(base))
	copy(sorted, base)
	ApplyOrder(sorted, LongestFirst)

	opt := DataflowOptions{Workers: 96, DispatchOverhead: 0.2}
	resRand, err := SimulateDataflow(randOrder, opt)
	if err != nil {
		t.Fatal(err)
	}
	resSorted, err := SimulateDataflow(sorted, opt)
	if err != nil {
		t.Fatal(err)
	}
	if resSorted.Makespan > resRand.Makespan {
		t.Errorf("longest-first makespan %v worse than random %v", resSorted.Makespan, resRand.Makespan)
	}
	if resSorted.FinishSpread() >= resRand.FinishSpread() {
		t.Errorf("longest-first spread %v not tighter than random %v",
			resSorted.FinishSpread(), resRand.FinishSpread())
	}
	// With sorting, the spread must be small relative to the makespan
	// ("all workers finished within minutes of one another").
	if resSorted.FinishSpread() > 0.1*resSorted.Makespan {
		t.Errorf("sorted spread %v vs makespan %v; load balance broken",
			resSorted.FinishSpread(), resSorted.Makespan)
	}
	if resSorted.Utilization() < 0.9 {
		t.Errorf("sorted utilization = %v, want ≥0.9", resSorted.Utilization())
	}
}

func TestApplyOrderPolicies(t *testing.T) {
	tasks := []SimTask{{ID: "a", Weight: 2}, {ID: "b", Weight: 9}, {ID: "c", Weight: 5}}
	lf := append([]SimTask(nil), tasks...)
	ApplyOrder(lf, LongestFirst)
	if lf[0].ID != "b" || lf[2].ID != "a" {
		t.Errorf("longest-first order: %v", lf)
	}
	sf := append([]SimTask(nil), tasks...)
	ApplyOrder(sf, ShortestFirst)
	if sf[0].ID != "a" || sf[2].ID != "b" {
		t.Errorf("shortest-first order: %v", sf)
	}
	so := append([]SimTask(nil), tasks...)
	ApplyOrder(so, SubmissionOrder)
	for i := range tasks {
		if so[i].ID != tasks[i].ID {
			t.Error("submission order must not reorder")
		}
	}
}

// TestApplyOrderMatchesSliceStable: ApplyOrder's result equals the one
// sort.SliceStable gives with the less functions it used before. The waves
// tie weights and repeat (weight, ID) pairs — only Duration tells the
// duplicates apart, so a difference in stability shows — and cover the
// weights an ordering by bit pattern gets wrong: −0 beside +0 (equal, so
// their order is the IDs'), negatives, ±Inf and subnormals, plus the
// slices of length 0, 1 and 2.
func TestApplyOrderMatchesSliceStable(t *testing.T) {
	r := rng.New(11)
	lengths := make([]SimTask, 50000)
	for i := range lengths {
		lengths[i] = SimTask{
			ID:       fmt.Sprintf("T%d/m%d", r.Intn(4000), r.Intn(5)),
			Weight:   float64(30 + r.Intn(300)),
			Duration: float64(i),
		}
	}
	checkApplyOrder(t, "lengths", lengths)

	special := []float64{
		math.Copysign(0, -1), 0, -1, -2.5, -1e300, 1, 2.5, 1e300,
		math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		2 * math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1023,
	}
	mixed := make([]SimTask, 20000)
	for i := range mixed {
		w := special[r.Intn(len(special))]
		if r.Intn(4) == 0 {
			w = float64(r.Intn(600) - 300)
		}
		mixed[i] = SimTask{ID: fmt.Sprintf("t%d", r.Intn(50)), Weight: w, Duration: float64(i)}
	}
	checkApplyOrder(t, "special weights", mixed)

	checkApplyOrder(t, "empty", nil)
	for i, a := range special {
		checkApplyOrder(t, fmt.Sprintf("one %v", a), []SimTask{{ID: "a", Weight: a}})
		for j, b := range special {
			for _, ids := range [][2]string{{"a", "b"}, {"b", "a"}, {"a", "a"}} {
				pair := []SimTask{{ID: ids[0], Weight: a, Duration: 0}, {ID: ids[1], Weight: b, Duration: 1}}
				checkApplyOrder(t, fmt.Sprintf("pair %d,%d %v", i, j, ids), pair)
			}
		}
	}
}

// checkApplyOrder compares ApplyOrder with sort.SliceStable under each
// policy's former less function, weight bits included.
func checkApplyOrder(t *testing.T, name string, tasks []SimTask) {
	t.Helper()
	less := map[OrderPolicy]func(a, b SimTask) bool{
		LongestFirst: func(a, b SimTask) bool {
			if a.Weight != b.Weight {
				return a.Weight > b.Weight
			}
			return a.ID < b.ID
		},
		ShortestFirst: func(a, b SimTask) bool {
			if a.Weight != b.Weight {
				return a.Weight < b.Weight
			}
			return a.ID < b.ID
		},
	}
	for p, lessFn := range less {
		want := append([]SimTask(nil), tasks...)
		sort.SliceStable(want, func(i, j int) bool { return lessFn(want[i], want[j]) })
		got := append([]SimTask(nil), tasks...)
		ApplyOrder(got, p)
		for i := range want {
			if got[i] != want[i] || math.Float64bits(got[i].Weight) != math.Float64bits(want[i].Weight) {
				t.Fatalf("%s, %v: position %d holds %+v, sort.SliceStable put %+v there", name, p, i, got[i], want[i])
			}
		}
	}
}

// TestApplyOrderConcurrent orders waves of different sizes on several
// goroutines at once, as the campaign's species do, so the scratch buffers
// ApplyOrder takes from its pool are never shared between two calls: each
// result must equal its wave ordered alone.
func TestApplyOrderConcurrent(t *testing.T) {
	r := rng.New(5)
	waves := make([][]SimTask, 8)
	for w := range waves {
		waves[w] = make([]SimTask, 500+w*700)
		for i := range waves[w] {
			waves[w][i] = SimTask{ID: fmt.Sprintf("t%d", r.Intn(300)), Weight: float64(r.Intn(50)), Duration: float64(i)}
		}
	}
	want := make([][]SimTask, len(waves))
	for w, wave := range waves {
		want[w] = append([]SimTask(nil), wave...)
		ApplyOrder(want[w], LongestFirst)
	}
	var wg sync.WaitGroup
	for w, wave := range waves {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				got := append([]SimTask(nil), wave...)
				ApplyOrder(got, LongestFirst)
				if !slices.Equal(got, want[w]) {
					t.Errorf("wave %d ordered concurrently differs from its serial order", w)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestStartupDelayShiftsEverything(t *testing.T) {
	tasks := []SimTask{{ID: "a", Duration: 10}}
	res, err := SimulateDataflow(tasks, DataflowOptions{Workers: 2, StartupDelay: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Intervals[0].Start < 100 {
		t.Errorf("task started at %v before startup finished", res.Intervals[0].Start)
	}
}

func TestNodeHoursAndLedger(t *testing.T) {
	l := NewLedger()
	l.Charge("summit", 32)
	l.Charge("summit", 8)
	l.Charge("andes", 240)
	if got := l.Total("summit"); math.Abs(got-40) > 1e-9 {
		t.Errorf("summit total = %v", got)
	}
	if got := l.Total("andes"); got != 240 {
		t.Errorf("andes total = %v", got)
	}
	ms := l.Machines()
	if len(ms) != 2 || ms[0] != "andes" || ms[1] != "summit" {
		t.Errorf("machines = %v", ms)
	}
	if l.Total("frontier") != 0 {
		t.Error("uncharged machine must read 0")
	}
}

// Property: makespan is never below total work / workers (work bound) and
// never below the longest single task.
func TestQuickMakespanLowerBounds(t *testing.T) {
	f := func(seed uint64, wRaw uint8) bool {
		workers := int(wRaw%31) + 1
		r := rng.New(seed)
		tasks := makeSimTasks(r, 200)
		res, err := SimulateDataflow(tasks, DataflowOptions{Workers: workers})
		if err != nil {
			return false
		}
		var total, longest float64
		for _, task := range tasks {
			total += task.Duration
			if task.Duration > longest {
				longest = task.Duration
			}
		}
		lb := total / float64(workers)
		return res.Makespan >= lb-1e-9 && res.Makespan >= longest-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
