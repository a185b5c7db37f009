package experiments

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/fold"
	"repro/internal/proteome"
)

// RegisterCampaignKernels registers the remote bodies of the three
// workflow stages (feature generation, inference, relaxation) in the
// process-wide flow kernel registry, under the names the core stages
// dispatch (core.KernelFeature/KernelInfer/KernelRelax). A standalone
// `proteomectl worker` calls this at startup and then serves the kernels
// through flow.SpecHandler.
//
// Each kernel is the same pure function of its arguments as the in-process
// closure of its stage: the campaign world is rebuilt deterministically
// from (seed, species), so a multi-process run is byte-identical to the
// pool executor at any worker count (TestCampaignMultiProcess).
// Registration is idempotent.
func RegisterCampaignKernels() {
	registerKernelsOnce.Do(func() {
		mustRegister(core.KernelFeature, featureKernel)
		mustRegister(core.KernelInfer, inferKernel)
		mustRegister(core.KernelRelax, relaxKernel)
	})
}

var registerKernelsOnce sync.Once

func mustRegister(name string, fn flow.KernelFunc) {
	if err := flow.Register(name, fn); err != nil {
		panic(err)
	}
}

// kernelWorld caches the reconstructed campaign world of one seed: the Env
// plus per-species protein indices. Worlds are shared by every kernel
// invocation in the process; the Env's feature generator and engine are
// concurrency-safe, and the lazily-built indices are guarded by mu.
type kernelWorld struct {
	env *Env

	mu   sync.Mutex
	byID map[string]map[string]proteome.Protein
}

// maxKernelWorlds bounds the per-process world cache: a long-lived worker
// serving many campaign seeds (parameter sweeps) must not pin every world
// it ever saw — each holds a full proteome plus memoized features. Worlds
// are cheap to rebuild deterministically, so eviction is just memory
// reclamation; in-flight kernels keep their evicted world alive through
// their own reference.
const maxKernelWorlds = 4

var (
	kernelWorldsMu    sync.Mutex
	kernelWorlds      = make(map[uint64]*kernelWorld)
	kernelWorldsOrder []uint64 // insertion order, oldest first
)

func worldFor(seed uint64) *kernelWorld {
	kernelWorldsMu.Lock()
	defer kernelWorldsMu.Unlock()
	w, ok := kernelWorlds[seed]
	if !ok {
		for len(kernelWorlds) >= maxKernelWorlds {
			delete(kernelWorlds, kernelWorldsOrder[0])
			kernelWorldsOrder = kernelWorldsOrder[1:]
		}
		w = &kernelWorld{env: NewEnv(seed), byID: make(map[string]map[string]proteome.Protein)}
		kernelWorlds[seed] = w
		kernelWorldsOrder = append(kernelWorldsOrder, seed)
	}
	return w
}

// protein resolves a (species code, protein ID) pair, generating and
// indexing the species proteome on first use.
func (w *kernelWorld) protein(species, id string) (proteome.Protein, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	idx, ok := w.byID[species]
	if !ok {
		sp, found := proteome.SpeciesByCode(species)
		if !found {
			return proteome.Protein{}, fmt.Errorf("experiments: unknown species %q in job spec", species)
		}
		p := w.env.Proteome(sp)
		idx = make(map[string]proteome.Protein, len(p.Proteins))
		for _, pr := range p.Proteins {
			idx[pr.Seq.ID] = pr
		}
		w.byID[species] = idx
	}
	pr, ok := idx[id]
	if !ok {
		return proteome.Protein{}, fmt.Errorf("experiments: no protein %q in species %q", id, species)
	}
	return pr, nil
}

// featureKernel is the remote body of the feature stage: derive one
// protein's features and return its contended filesystem search time.
// The features stay on the worker.
func featureKernel(args []byte) ([]byte, error) {
	var s core.FeatureSpec
	if err := s.UnmarshalBinary(args); err != nil {
		return nil, err
	}
	w := worldFor(s.Seed)
	pr, err := w.protein(s.Species, s.ID)
	if err != nil {
		return nil, err
	}
	f, err := w.env.FeatureGen().Features(pr)
	if err != nil {
		return nil, err
	}
	dur, err := s.SearchSeconds(f)
	if err != nil {
		return nil, err
	}
	return core.FeatureOut{Seconds: dur}.AppendBinary(make([]byte, 0, core.SecondsMaxLen))
}

// inferKernel is the remote body of the inference stage: one (target,
// model) task, returned as its core.PredictionDigest (tagged OOM on OOM).
func inferKernel(args []byte) ([]byte, error) {
	var s core.InferSpec
	if err := s.UnmarshalBinary(args); err != nil {
		return nil, err
	}
	w := worldFor(s.Seed)
	pr, err := w.protein(s.Species, s.ID)
	if err != nil {
		return nil, err
	}
	f, err := w.env.FeatureGen().Features(pr)
	if err != nil {
		return nil, err
	}
	d, err := core.InferDigest(w.env.Engine, fold.Task{
		ID: s.ID, Length: pr.Seq.Len(), Features: f,
		Model: s.Model, Preset: s.Preset, NodeMemGB: s.NodeMemGB,
	})
	if err != nil {
		return nil, err
	}
	return d.AppendBinary(make([]byte, 0, core.DigestMaxLen))
}

// relaxKernel is the remote body of the relax stage: the modeled
// relaxation walltime of one structure.
func relaxKernel(args []byte) ([]byte, error) {
	var s core.RelaxSpec
	if err := s.UnmarshalBinary(args); err != nil {
		return nil, err
	}
	return s.Seconds().AppendBinary(make([]byte, 0, core.SecondsMaxLen))
}
