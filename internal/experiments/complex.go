package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/fold"
	"repro/internal/proteome"
)

// ComplexScreenResult exercises the paper's stated extension (AF2Complex):
// an all-vs-all interaction screen over a proteome subset, demonstrating
// the quadratic cost scaling that makes leadership-scale deployment
// necessary for complex prediction.
type ComplexScreenResult struct {
	Proteins     int
	Pairs        int
	Interactions int
	// GPUHours for the screen versus the monomer predictions of the same
	// subset — the quadratic-vs-linear comparison.
	ScreenGPUHours  float64
	MonomerGPUHours float64
	// WallHours on a 32-node allocation.
	WallHours float64
	// ProjectedPairs/ProjectedGPUHours extrapolate to the full proteome.
	ProjectedPairs    int
	ProjectedGPUYears float64
}

// ComplexScreen runs the all-vs-all screen on the first 60 D. vulgaris
// proteins under 500 residues.
func ComplexScreen(env *Env) (*ComplexScreenResult, error) {
	dvu := env.Proteome(proteome.DVulgaris)
	gen := env.FeatureGen()

	var subset []proteome.Protein
	for _, p := range dvu.Proteins {
		if p.Seq.Len() < 500 {
			subset = append(subset, p)
		}
		if len(subset) == 60 {
			break
		}
	}
	res := &ComplexScreenResult{Proteins: len(subset)}

	type chain struct {
		id   string
		l    int
		feat *fold.Prediction
		neff float64
		tmpl bool
	}
	// Monomer baselines fan out over the worker pool (one item per chain).
	chains, err := exec.Map(env.executor(), subset, func(_ int, p proteome.Protein) (chain, error) {
		f, err := gen.Features(p)
		if err != nil {
			return chain{}, err
		}
		pred, err := env.Engine.Infer(foldTask(p, f, 0))
		if err != nil {
			return chain{}, err
		}
		return chain{id: p.Seq.ID, l: p.Seq.Len(), feat: &pred, neff: f.Neff, tmpl: len(f.Templates) > 0}, nil
	})
	if err != nil {
		return nil, err
	}
	var monomerGPU float64
	for _, c := range chains {
		monomerGPU += c.feat.GPUSeconds
	}
	res.MonomerGPUHours = monomerGPU / 3600

	// The quadratic all-vs-all screen is the heaviest loop in the package:
	// flatten the i<j pair triangle and fan it out. Pair order (and so
	// every accumulated statistic) is the serial loop's.
	type pairIdx struct{ i, j int }
	pairs := make([]pairIdx, 0, len(chains)*(len(chains)-1)/2)
	for i := 0; i < len(chains); i++ {
		for j := i + 1; j < len(chains); j++ {
			pairs = append(pairs, pairIdx{i, j})
		}
	}
	preds, err := exec.Map(env.executor(), pairs, func(_ int, pr pairIdx) (*fold.ComplexPrediction, error) {
		a, b := chains[pr.i], chains[pr.j]
		return env.Engine.InferComplex(fold.ComplexTask{
			IDs:     []string{a.id, b.id},
			Lengths: []int{a.l, b.l},
			Features: []*fold.FeaturesRef{
				fold.ComplexFeatures(a.neff, a.tmpl),
				fold.ComplexFeatures(b.neff, b.tmpl),
			},
			Model: 0, Preset: fold.Genome, NodeMemGB: 64,
		}, nil)
	})
	if err != nil {
		return nil, err
	}
	tasks := make([]cluster.SimTask, 0, len(pairs))
	var screenGPU float64
	for _, cp := range preds {
		res.Pairs++
		screenGPU += cp.GPUSeconds
		if cp.Interacting {
			res.Interactions++
		}
		tasks = append(tasks, cluster.SimTask{
			ID: cp.ID, Weight: float64(cp.TotalLength), Duration: cp.GPUSeconds,
		})
	}
	res.ScreenGPUHours = screenGPU / 3600

	cfg := env.config()
	cluster.ApplyOrder(tasks, cluster.LongestFirst)
	sim, err := cluster.SimulateDataflow(tasks, cluster.DataflowOptions{
		Workers:          cfg.SummitNodes * 6, // one worker per GPU, six a node
		DispatchOverhead: cfg.DispatchOverhead,
		StartupDelay:     cfg.StartupDelay,
	})
	if err != nil {
		return nil, err
	}
	res.WallHours = sim.Makespan / 3600

	// Extrapolation to the full 3205-protein proteome: quadratic pairs at
	// the measured mean pair cost.
	n := 3205
	res.ProjectedPairs = n * (n - 1) / 2
	meanPairGPU := screenGPU / float64(res.Pairs)
	res.ProjectedGPUYears = meanPairGPU * float64(res.ProjectedPairs) / 3600 / 24 / 365
	return res, nil
}

// Render writes the complex-screen report.
func (r *ComplexScreenResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "AF2Complex extension: all-vs-all screen of %d proteins\n", r.Proteins)
	fmt.Fprintf(w, "  pairs screened        %d\n", r.Pairs)
	fmt.Fprintf(w, "  predicted interactions %d (%.1f%%)\n", r.Interactions,
		100*float64(r.Interactions)/float64(r.Pairs))
	fmt.Fprintf(w, "  screen cost           %.1f GPU-hours vs %.2f for the monomers (%.0fx)\n",
		r.ScreenGPUHours, r.MonomerGPUHours, r.ScreenGPUHours/r.MonomerGPUHours)
	fmt.Fprintf(w, "  wall on 32 nodes      %.2f h\n", r.WallHours)
	fmt.Fprintf(w, "  full-proteome projection: %d pairs, %.1f GPU-years —\n",
		r.ProjectedPairs, r.ProjectedGPUYears)
	fmt.Fprintln(w, "  the quadratic scaling that makes HPC deployment essential (paper's conclusion)")
	return nil
}
