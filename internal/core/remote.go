package core

import (
	"errors"

	"repro/internal/fold"
	"repro/internal/fsim"
	"repro/internal/msa"
	"repro/internal/relax"
)

// The three workflow stages register their remote bodies under these
// kernel names (see internal/experiments.RegisterCampaignKernels). A
// standalone worker process serves them through flow.SpecHandler; the
// stages build the matching argument blocks below when the configured
// executor dispatches specs instead of closures.
//
// Each name ends in its kernel's epoch, "@N". The rule is one: bump a
// kernel's N when its answer to the same spec bytes changes (or the
// layout of its spec or result does). Every spec envelope leads with the
// name (flow.EncodeSpec), so builds of different epochs never mix: a
// worker of another epoch fails the task with flow's "unknown kernel"
// error, and a `submit -resume` log of another epoch matches no spec this
// build submits. TestKernelPayloadGolden (internal/experiments) pins one
// spec and one result per kernel and fails until the epoch is bumped; the
// flow wire version covers frame bytes only.
const (
	// KernelFeature derives one protein's folding features and its
	// contended filesystem search time.
	KernelFeature = "campaign/feature@1"
	// KernelInfer runs one (target, model) inference task and returns its
	// PredictionDigest; an OOM outcome is a digest tagged OOM, exactly as
	// the in-process closure reports it.
	KernelInfer = "campaign/infer@2"
	// KernelRelax computes one structure's modeled relaxation time.
	KernelRelax = "campaign/relax@1"
)

// RemoteCampaign identifies the deterministic campaign world to remote
// workers. Every generated artifact — proteome, features, engine
// randomness — is a pure function of (Seed, Species), so a worker in
// another process reconstructs the exact world from these two values and
// the per-task fields of each spec; nothing else crosses the wire.
type RemoteCampaign struct {
	Seed    uint64
	Species string
}

// FeatureSpec is the argument block of KernelFeature. Its byte layout is
// in payload.go, with those of every other spec and result.
type FeatureSpec struct {
	Seed        uint64
	Species     string
	ID          string
	Accel       float64
	JobsPerCopy int
	FS          fsim.Filesystem
	DB          fsim.Database
}

// SearchSeconds is the one body of a feature task, shared by the stage's
// in-process closure and the registered kernel: the protein's search cost
// at the spec's accelerator factor (FeatureCostAccel owns the accel < 1
// clamp), inflated by filesystem contention at the spec's per-copy
// concurrency. Only the search parameters are read; the identity fields
// locate the protein in a remote world.
func (s FeatureSpec) SearchSeconds(f *msa.Features) (float64, error) {
	return s.FS.SearchTime(s.DB, FeatureCostAccel(f, s.Accel), s.JobsPerCopy)
}

// FeatureOut is the per-protein result of the feature stage: the derived
// features plus the contended search walltime. Only Seconds crosses the
// wire, in the scalar layout of Seconds; Features is set by the
// in-process closure and stays nil for a protein whose task ran remotely,
// since the report needs only the timing and a remote inference task
// derives the features again on its worker.
type FeatureOut struct {
	Features *msa.Features
	Seconds  float64
}

// InferSpec is the argument block of KernelInfer. The preset travels as a
// full value (not a name) so customized presets survive the trip.
type InferSpec struct {
	Seed      uint64
	Species   string
	ID        string
	Model     int
	Preset    fold.Preset
	NodeMemGB float64
}

// InferDigest is the one body of an inference task, shared by the stage's
// in-process closure and the registered kernel: run the (target, model)
// task and digest the prediction. An out-of-memory outcome is data, not
// failure — a digest tagged OOM, which the stage routes to the
// high-memory retry wave.
func InferDigest(engine *fold.Engine, task fold.Task) (PredictionDigest, error) {
	pred, err := engine.Infer(task)
	if err != nil {
		if errors.Is(err, fold.ErrOutOfMemory) {
			return PredictionDigest{OOM: true}, nil
		}
		return PredictionDigest{}, err
	}
	return DigestPrediction(&pred), nil
}

// PredictionDigest is what an inference task returns on every executor:
// the pTMS/pLDDT summary the report, ranking, and cluster simulation
// consume, or the OOM tag. ID and Length do not travel — the stage
// rebuilds the prediction, as a value, from the digest and the task it
// dispatched (see Prediction).
type PredictionDigest struct {
	// OOM marks a task that ran out of GPU memory; no other field is set.
	OOM         bool
	Model       int
	Recycles    int
	Converged   bool
	MeanPLDDT   float64
	PTMS        float64
	FracAbove70 float64
	FracAbove90 float64
	GPUSeconds  float64
	PeakMemGB   float64
}

// DigestPrediction summarises a full prediction into its digest.
func DigestPrediction(p *fold.Prediction) PredictionDigest {
	return PredictionDigest{
		Model:       p.Model,
		Recycles:    p.Recycles,
		Converged:   p.Converged,
		MeanPLDDT:   p.MeanPLDDT,
		PTMS:        p.PTMS,
		FracAbove70: p.FracAbove70,
		FracAbove90: p.FracAbove90,
		GPUSeconds:  p.GPUSeconds,
		PeakMemGB:   p.PeakMemGB,
	}
}

// Prediction reconstructs the campaign view of the prediction from the
// digest plus the task identity the stage dispatched, as a value the stage
// stores in place. Per-residue arrays stay nil, as they are in every
// campaign prediction (the stage never sets fold.Task.WantCoords).
func (d *PredictionDigest) Prediction(id string, length int) fold.Prediction {
	return fold.Prediction{
		ID:          id,
		Model:       d.Model,
		Length:      length,
		Recycles:    d.Recycles,
		Converged:   d.Converged,
		MeanPLDDT:   d.MeanPLDDT,
		PTMS:        d.PTMS,
		FracAbove70: d.FracAbove70,
		FracAbove90: d.FracAbove90,
		GPUSeconds:  d.GPUSeconds,
		PeakMemGB:   d.PeakMemGB,
	}
}

// RelaxSpec is the argument block of KernelRelax. It is self-contained:
// the relaxation cost model needs no campaign world.
type RelaxSpec struct {
	Length   int
	Platform int
}

// Seconds is the one body of a relax task, shared by the stage's
// in-process closure and the registered kernel: the modeled relaxation
// walltime of one structure.
func (s RelaxSpec) Seconds() Seconds {
	return Seconds(relax.ModelTime(relax.Platform(s.Platform), RelaxHeavyAtoms(s.Length), 1))
}

// RelaxHeavyAtoms is the heavy-atom count of the relax cost model for a
// chain length: relax.HeavyAtoms.
func RelaxHeavyAtoms(length int) int { return relax.HeavyAtoms(length) }
