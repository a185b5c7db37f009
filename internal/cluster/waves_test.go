package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/exec"
)

func wavesFixture() []Wave {
	waves := make([]Wave, 6)
	for w := range waves {
		tasks := make([]SimTask, 200)
		for i := range tasks {
			tasks[i] = SimTask{
				ID:       fmt.Sprintf("w%d-t%03d", w, i),
				Weight:   float64((i * 37) % 91),
				Duration: float64(1 + (i*13+w)%50),
			}
		}
		ApplyOrder(tasks, LongestFirst)
		waves[w] = Wave{Tasks: tasks, Opt: DataflowOptions{
			Workers: 8 + w, DispatchOverhead: 1.5, StartupDelay: 30,
		}}
	}
	return waves
}

// TestSimulateWavesMatchesSequential pins the multi-wave fan-out to the
// serial loop over SimulateDataflow.
func TestSimulateWavesMatchesSequential(t *testing.T) {
	waves := wavesFixture()
	want := make([]*SimResult, len(waves))
	for i, w := range waves {
		r, err := SimulateDataflow(w.Tasks, w.Opt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	got, err := SimulateWaves(exec.NewPool(4), waves)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("wave results differ from sequential reference")
	}
}

func TestSimulateWavesPropagatesError(t *testing.T) {
	waves := wavesFixture()
	waves[2].Opt.Workers = 0 // invalid: lowest failing index must surface
	waves[4].Opt.Workers = -1
	_, err := SimulateWaves(exec.NewPool(4), waves)
	if err == nil {
		t.Fatal("invalid wave must fail")
	}
}
