package experiments

import (
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
