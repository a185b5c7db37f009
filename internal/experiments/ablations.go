package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fold"
	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/proteome"
)

// AblationResult covers the paper's design choices, each run as a
// controlled comparison on the D. vulgaris workload.
type AblationResult struct {
	// Task ordering (Section 3.3's greedy load balance).
	OrderWallHours map[string]float64
	OrderSpreadMin map[string]float64
	// Task granularity: (model,target) pairs versus whole-target tasks.
	PairWallHours        float64
	WholeTargetWallHours float64
	// Workers per node (the paper runs 6, one per GPU).
	WorkersPerNodeWall map[int]float64
	// Replica count under metadata contention (1, 4, 8, 24 copies).
	ReplicaWallHours map[int]float64
	// Dynamic versus fixed recycles: quality gained per extra compute.
	FixedPTMS, DynamicPTMS         float64
	FixedNodeHours, DynamicNodeHrs float64
	// Reduced vs full library, cost side only: both runs search with the
	// same feature generator, so the paper's "virtually identical"
	// accuracy on the reduced dataset is taken as given, not measured.
	ReducedFeatureNH, FullFeatureNH float64
}

// Ablations runs all ablation comparisons.
func Ablations(env *Env) (*AblationResult, error) {
	dvu := env.Proteome(proteome.DVulgaris)
	proteins := dvu.FilterMaxLen(2500)
	gen := env.FeatureGen()
	res := &AblationResult{
		OrderWallHours:     map[string]float64{},
		OrderSpreadMin:     map[string]float64{},
		WorkersPerNodeWall: map[int]float64{},
		ReplicaWallHours:   map[int]float64{},
	}

	// Precompute per-(target,model) predictions once, fanned out over the
	// worker pool (one item per protein, collected in submission order).
	type pred struct {
		dur  float64
		ptms float64
	}
	rows, err := exec.Map(env.executor(), proteins, func(_ int, p proteome.Protein) ([fold.NumModels]pred, error) {
		var row [fold.NumModels]pred
		f, err := gen.Features(p)
		if err != nil {
			return row, err
		}
		for m := 0; m < fold.NumModels; m++ {
			pr, err := env.Engine.Infer(foldTask(p, f, m))
			if err != nil {
				return row, err
			}
			row[m] = pred{dur: pr.GPUSeconds, ptms: pr.PTMS}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	perTask := make(map[string][fold.NumModels]pred, len(proteins))
	for i, p := range proteins {
		perTask[p.Seq.ID] = rows[i]
	}

	// --- Ordering ablation on (model,target) tasks, 32 nodes.
	// Iterate the protein slice (not the map) so submission order is
	// deterministic.
	pairTasks := make([]cluster.SimTask, 0, len(proteins)*fold.NumModels)
	for _, p := range proteins {
		row := perTask[p.Seq.ID]
		for m := 0; m < fold.NumModels; m++ {
			pairTasks = append(pairTasks, cluster.SimTask{
				ID:       fmt.Sprintf("%s/m%d", p.Seq.ID, m),
				Weight:   float64(p.Seq.Len()),
				Duration: row[m].dur,
			})
		}
	}
	opt := cluster.DataflowOptions{Workers: 32 * 6, DispatchOverhead: 1.5, StartupDelay: 300}
	orders := []cluster.OrderPolicy{cluster.LongestFirst, cluster.ShortestFirst, cluster.SubmissionOrder}
	orderWaves := make([]cluster.Wave, 0, len(orders))
	for _, order := range orders {
		tasks := append([]cluster.SimTask(nil), pairTasks...)
		if order == cluster.SubmissionOrder {
			r := newShuffleSource(env.Seed + 1)
			r.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
		} else {
			cluster.ApplyOrder(tasks, order)
		}
		orderWaves = append(orderWaves, cluster.Wave{Tasks: tasks, Opt: opt})
	}
	// The per-policy runs are independent, so they fan out as waves.
	orderSims, err := cluster.SimulateWaves(env.executor(), orderWaves)
	if err != nil {
		return nil, err
	}
	for i, order := range orders {
		res.OrderWallHours[order.String()] = orderSims[i].Makespan / 3600
		res.OrderSpreadMin[order.String()] = orderSims[i].FinishSpread() / 60
	}

	// --- Granularity: whole-target tasks bundle all five models into one
	// task, removing the paper's decomposition.
	sorted := append([]cluster.SimTask(nil), pairTasks...)
	cluster.ApplyOrder(sorted, cluster.LongestFirst)
	simPair, err := cluster.SimulateDataflow(sorted, opt)
	if err != nil {
		return nil, err
	}
	res.PairWallHours = simPair.Makespan / 3600
	wholeTasks := make([]cluster.SimTask, 0, len(proteins))
	for _, p := range proteins {
		row := perTask[p.Seq.ID]
		var total float64
		for m := 0; m < fold.NumModels; m++ {
			total += row[m].dur
		}
		wholeTasks = append(wholeTasks, cluster.SimTask{
			ID: p.Seq.ID, Weight: float64(p.Seq.Len()), Duration: total,
		})
	}
	cluster.ApplyOrder(wholeTasks, cluster.LongestFirst)
	simWhole, err := cluster.SimulateDataflow(wholeTasks, opt)
	if err != nil {
		return nil, err
	}
	res.WholeTargetWallHours = simWhole.Makespan / 3600

	// --- Workers per node: fewer workers per node means idle GPUs. The
	// three widths are independent waves over the same sorted tasks.
	perNodes := []int{1, 3, 6}
	nodeWaves := make([]cluster.Wave, 0, len(perNodes))
	for _, perNode := range perNodes {
		nodeWaves = append(nodeWaves, cluster.Wave{
			Tasks: append([]cluster.SimTask(nil), sorted...),
			Opt: cluster.DataflowOptions{
				Workers: 32 * perNode, DispatchOverhead: 1.5, StartupDelay: 300,
			},
		})
	}
	nodeSims, err := cluster.SimulateWaves(env.executor(), nodeWaves)
	if err != nil {
		return nil, err
	}
	for i, perNode := range perNodes {
		res.WorkersPerNodeWall[perNode] = nodeSims[i].Makespan / 3600
	}

	// --- Replica sweep: wall hours of the feature stage per copy count.
	for _, copies := range []int{1, 4, 8, 24} {
		cfg := env.config()
		cfg.AndesNodes = 96
		cfg.Replicas = fsim.ReplicaLayout{Copies: copies, JobsPerCopy: 96 / copies}
		if copies == 24 {
			cfg.Replicas.JobsPerCopy = 4
		}
		feat, err := core.FeatureStage(proteins, gen, env.FS, core.ReducedDatabase(), cfg)
		if err != nil {
			return nil, err
		}
		res.ReplicaWallHours[copies] = feat.WalltimeSec / 3600
	}

	// --- Dynamic vs fixed recycles: quality and node-hour cost on the
	// benchmark subset.
	bench := env.Benchmark559()
	bfeats, err := env.FeaturesFor(bench)
	if err != nil {
		return nil, err
	}
	for _, preset := range []fold.Preset{fold.ReducedDBs, fold.Genome} {
		cfg := env.config()
		cfg.Preset = preset
		rep, err := core.InferenceStage(env.Engine, bench, bfeats, cfg)
		if err != nil {
			return nil, err
		}
		var ptms []float64
		for _, t := range rep.Targets {
			if t.Best != nil {
				ptms = append(ptms, t.Best.PTMS)
			}
		}
		mean := metrics.Summarize(ptms).Mean
		if preset.Dynamic {
			res.DynamicPTMS = mean
			res.DynamicNodeHrs = rep.NodeHours
		} else {
			res.FixedPTMS = mean
			res.FixedNodeHours = rep.NodeHours
		}
	}

	// --- Reduced vs full library feature cost.
	cfg := env.config()
	cfg.AndesNodes = 96
	fr, err := core.FeatureStage(proteins, gen, env.FS, core.ReducedDatabase(), cfg)
	if err != nil {
		return nil, err
	}
	ff, err := core.FeatureStage(proteins, gen, env.FS, core.FullDatabase(), cfg)
	if err != nil {
		return nil, err
	}
	res.ReducedFeatureNH = fr.NodeHours
	res.FullFeatureNH = ff.NodeHours
	return res, nil
}

// Render writes the ablation report.
func (r *AblationResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "Ablations (D. vulgaris workload unless noted)")
	fmt.Fprintln(w, "task ordering (32 nodes, (model,target) tasks):")
	for _, name := range []string{"longest-first", "shortest-first", "submission-order"} {
		fmt.Fprintf(w, "  %-18s wall %5.2f h, finish spread %6.1f min\n",
			name, r.OrderWallHours[name], r.OrderSpreadMin[name])
	}
	fmt.Fprintf(w, "task granularity: (model,target) %.2f h vs whole-target %.2f h\n",
		r.PairWallHours, r.WholeTargetWallHours)
	fmt.Fprintln(w, "workers per node (paper: 6, one per GPU):")
	for _, n := range []int{1, 3, 6} {
		fmt.Fprintf(w, "  %d/node: wall %5.2f h\n", n, r.WorkersPerNodeWall[n])
	}
	fmt.Fprintln(w, "library replicas (feature stage wall hours):")
	for _, c := range []int{1, 4, 8, 24} {
		fmt.Fprintf(w, "  %2d copies: %5.2f h\n", c, r.ReplicaWallHours[c])
	}
	fmt.Fprintf(w, "recycles: fixed-3 pTMS %.3f @ %.0f node-hours vs dynamic pTMS %.3f @ %.0f node-hours\n",
		r.FixedPTMS, r.FixedNodeHours, r.DynamicPTMS, r.DynamicNodeHrs)
	fmt.Fprintf(w, "library: reduced %.0f vs full %.0f feature node-hours\n",
		r.ReducedFeatureNH, r.FullFeatureNH)
	return nil
}

// GPUSearchResult models the conclusion's discussion: what a GPU-
// accelerated HMMER (the 38x speedup reported in 2009) would do to the
// feature-generation stage.
type GPUSearchResult struct {
	CPUWallHours  float64
	GPUWallHours  float64
	CPUNodeHours  float64
	GPUNodeHours  float64
	SpeedupFactor float64
}

// GPUSearch reruns the Section 4.1 feature stage with a 38x-accelerated
// search kernel (I/O costs unchanged — acceleration does not help the
// metadata bottleneck, which is the point of the replica design).
func GPUSearch(env *Env) (*GPUSearchResult, error) {
	dvu := env.Proteome(proteome.DVulgaris)
	proteins := dvu.FilterMaxLen(2500)
	cfg := env.config()
	cfg.AndesNodes = 96

	cpu, err := core.FeatureStage(proteins, env.FeatureGen(), env.FS, core.ReducedDatabase(), cfg)
	if err != nil {
		return nil, err
	}
	gcfg := cfg
	gcfg.SearchAccel = 38
	gpu, err := core.FeatureStage(proteins, env.FeatureGen(), env.FS, core.ReducedDatabase(), gcfg)
	if err != nil {
		return nil, err
	}
	return &GPUSearchResult{
		CPUWallHours:  cpu.WalltimeSec / 3600,
		GPUWallHours:  gpu.WalltimeSec / 3600,
		CPUNodeHours:  cpu.NodeHours,
		GPUNodeHours:  gpu.NodeHours,
		SpeedupFactor: 38,
	}, nil
}

// Render writes the GPU-search report.
func (r *GPUSearchResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "GPU-accelerated MSA search (conclusion's discussion; %gx kernel)\n", r.SpeedupFactor)
	fmt.Fprintf(w, "  CPU search: wall %.2f h, %.0f node-hours\n", r.CPUWallHours, r.CPUNodeHours)
	fmt.Fprintf(w, "  GPU search: wall %.2f h, %.0f node-hours\n", r.GPUWallHours, r.GPUNodeHours)
	fmt.Fprintln(w, "  note: fixed I/O and metadata costs dominate after acceleration,")
	fmt.Fprintln(w, "  which is why the paper's replica layout matters either way")
	return nil
}
