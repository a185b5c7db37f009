// Package experiments implements the reproduction of every table and
// figure in the paper's evaluation section. Each experiment is a pure
// function of a deterministic Env, returns a structured result, and can
// render itself as a paper-versus-measured report. The root-level Go
// benchmarks and the cmd/afbench tool are thin wrappers over this package.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fold"
	"repro/internal/fsim"
	"repro/internal/msa"
	"repro/internal/proteome"
)

// Env is the shared deterministic world of all experiments: the domain
// universe, the four proteomes, ground truth, and the inference engine.
type Env struct {
	Seed     uint64
	Universe *proteome.Universe
	GT       *core.GroundTruth
	Engine   *fold.Engine
	FS       fsim.Filesystem
	// Parallelism bounds the host-side worker pool every experiment's
	// compute fans out over (see internal/parallel), and Campaign's
	// fan-out over species, which share that one pool. It never changes a
	// reported number: results are collected in submission order, so runs
	// at any value are byte-identical. <= 0 selects GOMAXPROCS; 1 forces
	// the serial reference path the determinism tests compare against.
	Parallelism int
	// Executor, when set, replaces the default pool bounded at Parallelism
	// (e.g. a traced exec.NewPool, or exec.Connect for a campaign whose
	// stages ship as job specs to remote flow workers). Results are
	// byte-identical across executors and worker counts. The Env does not
	// own the executor — the caller closes it.
	Executor exec.Executor

	proteomes map[string]*proteome.Proteome
	featGen   *core.CachedFeatureGen
}

// DefaultSeed is the campaign seed used by all published numbers.
const DefaultSeed = 20220125 // the paper's arXiv date

// NewEnv builds the experiment world.
func NewEnv(seed uint64) *Env {
	u := proteome.NewUniverse(seed, 96, 60, 240)
	gt := core.NewGroundTruth(seed)
	return &Env{
		Seed:      seed,
		Universe:  u,
		GT:        gt,
		Engine:    fold.NewEngine(gt, seed^0xabcdef),
		FS:        fsim.DefaultFilesystem(),
		proteomes: make(map[string]*proteome.Proteome),
		featGen:   core.NewCachedFeatureGen(core.DefaultFastFeatureGen(seed ^ 0x5eed)),
	}
}

// Proteome returns (generating and registering on first use) the proteome
// of one of the paper's species.
func (e *Env) Proteome(sp proteome.Species) *proteome.Proteome {
	if p, ok := e.proteomes[sp.Code]; ok {
		return p
	}
	p := proteome.Generate(sp, e.Universe, e.Seed+uint64(len(sp.Code)))
	e.GT.Register(p)
	e.proteomes[sp.Code] = p
	return p
}

// Benchmark559 returns the paper's 559-sequence D. vulgaris benchmark set:
// the proteome's hypothetical proteins (29–1266 AA, mean ~202).
func (e *Env) Benchmark559() []proteome.Protein {
	return e.Proteome(proteome.DVulgaris).Hypotheticals()
}

// FeatureGen returns the campaign-scale feature generator. The returned
// generator memoizes per-protein results for the lifetime of the Env, so
// experiments that revisit a proteome (all of them do) derive each
// protein's features exactly once per seed.
func (e *Env) FeatureGen() core.FeatureGen {
	return e.featGen
}

// executor resolves the Env's execution back end: the configured Executor,
// or the default pool bounded at Parallelism.
func (e *Env) executor() exec.Executor {
	return exec.Resolve(e.Executor, e.Parallelism)
}

// FeaturesFor computes features for a protein set, keyed by ID. Proteins
// fan out over the Env's executor; results are identical at any
// parallelism and on any back end.
func (e *Env) FeaturesFor(proteins []proteome.Protein) (map[string]*msa.Features, error) {
	gen := e.FeatureGen()
	feats, err := exec.Map(e.executor(), proteins, func(_ int, p proteome.Protein) (*msa.Features, error) {
		f, err := gen.Features(p)
		if err != nil {
			return nil, fmt.Errorf("experiments: features for %s: %w", p.Seq.ID, err)
		}
		return f, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*msa.Features, len(proteins))
	for i, p := range proteins {
		out[p.Seq.ID] = feats[i]
	}
	return out, nil
}

// config returns the standard deployment config with the Env's host-side
// parallelism and executor threaded through.
func (e *Env) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Parallelism = e.Parallelism
	cfg.Executor = e.Executor
	return cfg
}
