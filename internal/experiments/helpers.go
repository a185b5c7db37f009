package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fold"
	"repro/internal/msa"
	"repro/internal/proteome"
	"repro/internal/rng"
)

// foldTask builds the standard genome-preset inference task for a protein.
func foldTask(p proteome.Protein, f *msa.Features, model int) fold.Task {
	return fold.Task{
		ID:        p.Seq.ID,
		Length:    p.Seq.Len(),
		Features:  f,
		Model:     model,
		Preset:    fold.Genome,
		NodeMemGB: 16,
	}
}

// newShuffleSource returns a deterministic source for task shuffling.
func newShuffleSource(seed uint64) rng.Source {
	return rng.New(seed).SplitNamed("shuffle")
}

// waveTasks lists an inference stage's standard-node wave as the simulator
// sees it, one task per (target, model) prediction: targets in the order
// given, each target's models in model order.
func waveTasks(targets []core.TargetResult) []cluster.SimTask {
	tasks := make([]cluster.SimTask, 0, len(targets)*fold.NumModels)
	for _, t := range targets {
		for _, p := range t.All {
			tasks = append(tasks, cluster.SimTask{
				ID:       fmt.Sprintf("%s/m%d", t.ID, p.Model),
				Weight:   float64(t.Length),
				Duration: p.GPUSeconds,
			})
		}
	}
	return tasks
}
