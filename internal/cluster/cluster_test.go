package cluster

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestMachineInventories(t *testing.T) {
	s := Summit()
	if got := s.TotalNodes(); got != 4608 {
		t.Errorf("Summit nodes = %d, want 4608 (~4,600 per the paper)", got)
	}
	std, err := s.TypeByName("ac922")
	if err != nil {
		t.Fatal(err)
	}
	if std.GPUs != 6 || std.GPUMemGB != 16 {
		t.Errorf("Summit node = %+v, want 6 V100s with 16 GB", std)
	}
	hm, err := s.TypeByName("ac922-highmem")
	if err != nil {
		t.Fatal(err)
	}
	if hm.MemGB != 2048 {
		t.Errorf("high-mem node memory = %v, want 2 TB", hm.MemGB)
	}
	a := Andes()
	if a.TotalNodes() != 704 {
		t.Errorf("Andes nodes = %d, want 704", a.TotalNodes())
	}
	ae, err := a.TypeByName("epyc")
	if err != nil {
		t.Fatal(err)
	}
	if ae.Cores != 32 || ae.GPUs != 0 {
		t.Errorf("Andes node = %+v, want 32 cores, no GPUs", ae)
	}
	if _, err := s.TypeByName("nope"); err == nil {
		t.Error("unknown node type accepted")
	}
}

func TestPaperLayoutFits(t *testing.T) {
	std, _ := Summit().TypeByName("ac922")
	if err := FitsNode(std, PaperInferenceLayout()); err != nil {
		t.Errorf("paper layout does not fit a Summit node: %v", err)
	}
	// Oversubscription must be rejected.
	if err := FitsNode(std, []ResourceSet{{Name: "w", Cores: 1, GPUs: 1, Tasks: 7}}); err == nil {
		t.Error("7 GPU workers accepted on a 6-GPU node")
	}
	if err := FitsNode(std, []ResourceSet{{Name: "w", Cores: 43, GPUs: 0, Tasks: 1}}); err == nil {
		t.Error("43 cores accepted on a 42-core node")
	}
	if err := FitsNode(std, []ResourceSet{{Name: "w", Cores: 1, GPUs: 0, Tasks: 0}}); err == nil {
		t.Error("zero-task resource set accepted")
	}
}

func TestWorkersFor(t *testing.T) {
	std, _ := Summit().TypeByName("ac922")
	if got := WorkersFor(std, 32); got != 192 {
		t.Errorf("32 Summit nodes = %d workers, want 192", got)
	}
	if got := WorkersFor(std, 200); got != 1200 {
		t.Errorf("200 Summit nodes = %d workers, want 1200 (Fig. 2)", got)
	}
	andes, _ := Andes().TypeByName("epyc")
	if got := WorkersFor(andes, 10); got != 10 {
		t.Errorf("CPU machine workers = %d, want one per node", got)
	}
}

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
// sort.SliceStable gives with the less functions it used before, on a wave
// where weights tie and (weight, ID) pairs repeat — only Duration tells
// the duplicates apart, so a difference in stability shows.
func TestApplyOrderMatchesSliceStable(t *testing.T) {
	r := rng.New(11)
	tasks := make([]SimTask, 50000)
	for i := range tasks {
		tasks[i] = SimTask{
			ID:       fmt.Sprintf("T%d/m%d", r.Intn(4000), r.Intn(5)),
			Weight:   float64(30 + r.Intn(300)),
			Duration: float64(i),
		}
	}
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
			if got[i] != want[i] {
				t.Fatalf("%v: position %d holds %+v, sort.SliceStable put %+v there", p, i, got[i], want[i])
			}
		}
	}
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

func TestBatchQueueBasic(t *testing.T) {
	q := NewBatchQueue(100, FCFS)
	jobs := []Job{
		{Name: "a", Nodes: 60, Walltime: 100, Submit: 0},
		{Name: "b", Nodes: 60, Walltime: 100, Submit: 0},
		{Name: "c", Nodes: 30, Walltime: 50, Submit: 0},
	}
	res, err := q.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]JobResult{}
	for _, r := range res {
		byName[r.Job.Name] = r
	}
	// a and c fit together (90 nodes); b must wait for a.
	if byName["a"].Start != 0 {
		t.Errorf("a start = %v", byName["a"].Start)
	}
	if byName["c"].Start != 0 {
		t.Errorf("c start = %v (should backfill alongside a)", byName["c"].Start)
	}
	if byName["b"].Start != 100 {
		t.Errorf("b start = %v, want 100", byName["b"].Start)
	}
	if byName["b"].QueueWait() != 100 {
		t.Errorf("b queue wait = %v", byName["b"].QueueWait())
	}
}

func TestBatchQueueValidation(t *testing.T) {
	q := NewBatchQueue(10, FCFS)
	if _, err := q.Run([]Job{{Name: "x", Nodes: 11, Walltime: 1}}); err == nil {
		t.Error("oversized job accepted")
	}
	if _, err := q.Run([]Job{{Name: "x", Nodes: 0, Walltime: 1}}); err == nil {
		t.Error("zero-node job accepted")
	}
	if _, err := q.Run([]Job{{Name: "x", Nodes: 1, Walltime: 0}}); err == nil {
		t.Error("zero-walltime job accepted")
	}
}

func TestQueuePolicyTieBreaks(t *testing.T) {
	// Same submit time, capacity for only one at a time: FavorLarge runs
	// the big job first, FavorSmall the small one.
	jobs := []Job{
		{Name: "small", Nodes: 2, Walltime: 10, Submit: 0},
		{Name: "large", Nodes: 9, Walltime: 10, Submit: 0},
	}
	resL, err := NewBatchQueue(10, FavorLarge).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if resL[0].Job.Name != "large" {
		t.Errorf("FavorLarge ran %s first", resL[0].Job.Name)
	}
	resS, err := NewBatchQueue(10, FavorSmall).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if resS[0].Job.Name != "small" {
		t.Errorf("FavorSmall ran %s first", resS[0].Job.Name)
	}
}

func TestNodeHoursAndLedger(t *testing.T) {
	r := JobResult{Job: Job{Name: "j", Nodes: 32, Walltime: 3600}, Start: 0, End: 3600}
	if got := r.NodeHours(); math.Abs(got-32) > 1e-9 {
		t.Errorf("node-hours = %v, want 32", got)
	}
	l := NewLedger()
	l.ChargeJob("summit", r)
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

func BenchmarkSimulateDataflow10k(b *testing.B) {
	r := rng.New(1)
	tasks := makeSimTasks(r, 10000)
	ApplyOrder(tasks, LongestFirst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateDataflow(tasks, DataflowOptions{Workers: 1200, DispatchOverhead: 0.2}); err != nil {
			b.Fatal(err)
		}
	}
}
