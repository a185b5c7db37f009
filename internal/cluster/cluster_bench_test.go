package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// BenchmarkSimulateDataflow measures the virtual-time dataflow simulator on
// a campaign-scale task set (25k tasks on 1200 workers, the paper's largest
// wave).
func BenchmarkSimulateDataflow(b *testing.B) {
	r := rng.New(0xdf01)
	tasks := make([]SimTask, 25000)
	for i := range tasks {
		l := 30 + r.Intn(1200)
		tasks[i] = SimTask{
			ID:       fmt.Sprintf("t%05d", i),
			Weight:   float64(l),
			Duration: 10 + 0.5*float64(l),
		}
	}
	ApplyOrder(tasks, LongestFirst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateDataflow(tasks, DataflowOptions{
			Workers: 1200, DispatchOverhead: 1.5, StartupDelay: 300,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyOrder orders one campaign-shaped inference wave
// longest-first: 25,000 targets × 5 models in target order, each model
// weighted by its target's length (30–2,500 residues, so whole runs of
// tasks tie). One op copies the unordered wave into place and orders it.
func BenchmarkApplyOrder(b *testing.B) {
	r := rng.New(0xa0de)
	const targets, models = 25000, 5
	wave := make([]SimTask, 0, targets*models)
	for i := range targets {
		l := 30 + int(r.Gamma(2, 150))
		if l > 2500 {
			l = 2500
		}
		for m := range models {
			wave = append(wave, SimTask{
				ID:       fmt.Sprintf("t%05d/m%d", i, m),
				Weight:   float64(l),
				Duration: 10 + 0.5*float64(l) + float64(m),
			})
		}
	}
	tasks := make([]SimTask, len(wave))
	// One call before the timer puts a wave-sized buffer in ApplyOrder's
	// pool, as the campaign's earlier waves do. The loop runs on one P: a
	// sync.Pool keeps its last item in a per-P slot other Ps cannot take,
	// so with more than one P a migration between calls misses the pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	copy(tasks, wave)
	ApplyOrder(tasks, LongestFirst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(tasks, wave)
		ApplyOrder(tasks, LongestFirst)
	}
}
