package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/fold"
	"repro/internal/fsim"
	"repro/internal/msa"
	"repro/internal/proteome"
	"repro/internal/relax"
)

// Config holds the deployment parameters of a pipeline run.
type Config struct {
	Preset fold.Preset
	// SummitNodes is the standard-node allocation for inference (32 for
	// the Table 1 benchmark, up to 1000 in the paper's largest runs).
	SummitNodes int
	// HighMemNodes is the high-memory allocation used to re-run tasks that
	// OOM on standard nodes (0 disables the retry, as in the casp14 row of
	// Table 1 where the 8 longest sequences are simply missing).
	HighMemNodes int
	// AndesNodes is the CPU allocation for feature generation.
	AndesNodes int
	// RelaxNodes is the Summit allocation for geometry optimization
	// (8 nodes / 48 workers in Section 4.5).
	RelaxNodes int
	// Replicas is the sequence-library replication layout.
	Replicas fsim.ReplicaLayout
	// DispatchOverhead and StartupDelay parameterize the dataflow engine
	// (seconds). The ~16%-of-walltime overhead in Table 1 comes from these.
	DispatchOverhead float64
	StartupDelay     float64
	// Order is the task submission policy (LongestFirst in the paper).
	Order cluster.OrderPolicy
	// SearchAccel divides the compute portion of feature-generation cost
	// (1 = plain CPU search; 38 models the GPU-HMMER kernel discussed in
	// the paper's conclusion).
	SearchAccel float64
	// Parallelism bounds the host-side worker pool that executes the real
	// compute of each stage (feature generation, the (target x model)
	// inference fan-out, the high-memory retry wave). It controls only how
	// fast the pipeline runs on the host, never the simulated cluster
	// width or any reported number: results are collected in submission
	// order and are byte-identical for every value. <= 0 selects
	// GOMAXPROCS; 1 forces the serial reference path.
	Parallelism int
	// Executor, when set, overrides the default in-process pool: every
	// stage fans its compute out through it (e.g. exec.Connect ships the
	// campaign's stages as job specs to flow workers in other processes).
	// Results are byte-identical across executors and worker counts; nil
	// selects the pool bounded at Parallelism.
	Executor exec.Executor
	// Remote identifies the campaign world to remote workers when Executor
	// dispatches registered job specs across process boundaries
	// (exec.Connect). Required in that case — closures cannot cross
	// processes, so the stages ship (Seed, Species)-keyed specs instead,
	// and each kernel returns only the scalars the report needs (see
	// FeatureOut, PredictionDigest) — and ignored for in-process executors.
	Remote *RemoteCampaign
	// Resume, when set, holds the results a previous interrupted run
	// already returned: each task's spec envelope mapped to its result
	// payload, as events.CompletedFromLog reads them from a scheduler
	// event log (`submit -resume`). A stage decodes those results as if
	// they had just come back and dispatches only the other tasks, so the
	// report stays byte-identical to an uninterrupted run while the
	// cluster only sees the missing tasks. Only spec-dispatching (remote)
	// executors are affected; nil resumes nothing.
	Resume map[string][]byte
}

// remoteGuard rejects a spec-dispatching executor without the campaign
// identity the stage kernels need to rebuild the world remotely.
func (c *Config) remoteGuard(x exec.Executor) error {
	if _, ok := x.(exec.SpecDispatcher); ok && c.Remote == nil {
		return fmt.Errorf("core: executor %T dispatches remote specs; Config.Remote must identify the campaign (seed, species)", x)
	}
	return nil
}

// DefaultConfig mirrors the Table 1 benchmark deployment.
func DefaultConfig() Config {
	return Config{
		Preset:           fold.Genome,
		SummitNodes:      32,
		HighMemNodes:     2,
		AndesNodes:       24,
		RelaxNodes:       8,
		Replicas:         fsim.ReplicaLayout{Copies: 24, JobsPerCopy: 4},
		DispatchOverhead: 1.5,
		StartupDelay:     300,
		Order:            cluster.LongestFirst,
	}
}

// gpuWorkersPerNode is the paper's one-Dask-worker-per-GPU layout.
const gpuWorkersPerNode = 6

// standardNodeGPUMemGB is the V100 HBM available to one inference task.
const standardNodeGPUMemGB = 16

// highMemNodeGPUMemGB models the relaxed memory ceiling of the 2 TB
// high-memory nodes (host memory backs the oversized activations).
const highMemNodeGPUMemGB = 64

// FeatureReport is the outcome of the feature-generation stage.
type FeatureReport struct {
	// Features maps each protein ID to its derived features. The entry is
	// nil for a protein whose feature task ran remotely: its features
	// stayed on the worker (see FeatureOut).
	Features    map[string]*msa.Features
	WalltimeSec float64
	NodeHours   float64
	Jobs        int
}

// FeatureStage runs feature generation for all proteins on the CPU
// cluster: per-protein search cost from the feature generator, inflated by
// filesystem metadata contention at the replica layout's per-copy
// concurrency, executed in dataflow over min(nodes, layout concurrency)
// workers (one search job per node, as on Andes).
func FeatureStage(proteins []proteome.Protein, gen FeatureGen, fs fsim.Filesystem, db fsim.Database, cfg Config) (*FeatureReport, error) {
	if cfg.AndesNodes <= 0 {
		return nil, fmt.Errorf("core: feature stage needs nodes")
	}
	if err := cfg.Replicas.Validate(); err != nil {
		return nil, err
	}
	// The per-protein searches are independent, so they fan out over the
	// configured executor; results are collected by submission index so the
	// report is identical to the serial loop's. A spec-dispatching executor
	// ships each protein as a KernelFeature spec instead of the closure;
	// both compute the search time with FeatureSpec.SearchSeconds.
	x := exec.Resolve(cfg.Executor, cfg.Parallelism)
	if err := cfg.remoteGuard(x); err != nil {
		return nil, err
	}
	search := FeatureSpec{Accel: cfg.SearchAccel, JobsPerCopy: cfg.Replicas.JobsPerCopy, FS: fs, DB: db}
	outs, err := exec.MapSpecResume(x, KernelFeature, 1, proteins,
		func(_ int, p proteome.Protein) string { return p.Seq.ID },
		func(_ int, p proteome.Protein) FeatureSpec {
			s := search
			s.Seed, s.Species, s.ID = cfg.Remote.Seed, cfg.Remote.Species, p.Seq.ID
			return s
		},
		func(_ int, p proteome.Protein) (FeatureOut, error) {
			f, err := gen.Features(p)
			if err != nil {
				return FeatureOut{}, err
			}
			dur, err := search.SearchSeconds(f)
			if err != nil {
				return FeatureOut{}, err
			}
			return FeatureOut{Features: f, Seconds: dur}, nil
		},
		cfg.Resume)
	if err != nil {
		return nil, err
	}
	rep := &FeatureReport{Features: make(map[string]*msa.Features, len(proteins))}
	tasks := make([]cluster.SimTask, 0, len(proteins))
	for i, p := range proteins {
		rep.Features[p.Seq.ID] = outs[i].Features
		tasks = append(tasks, cluster.SimTask{
			ID:       p.Seq.ID,
			Weight:   float64(p.Seq.Len()),
			Duration: outs[i].Seconds,
		})
	}
	cluster.ApplyOrder(tasks, cfg.Order)
	workers := cfg.AndesNodes
	if mc := cfg.Replicas.MaxConcurrency(); workers > mc {
		workers = mc
	}
	sim, err := cluster.SimulateDataflow(tasks, cluster.DataflowOptions{
		Workers:          workers,
		DispatchOverhead: cfg.DispatchOverhead,
		StartupDelay:     cfg.StartupDelay,
	})
	if err != nil {
		return nil, err
	}
	rep.Jobs = len(tasks)
	rep.WalltimeSec = sim.Makespan
	rep.NodeHours = float64(workers) * sim.Makespan / 3600
	return rep, nil
}

// TargetResult is the per-protein outcome of the inference stage.
type TargetResult struct {
	ID     string
	Length int
	// Best is the top-ranked prediction by pTMS (nil if every model OOMed
	// and no high-memory retry was available).
	Best *fold.Prediction
	// All holds the successful model predictions (≤ 5).
	All []*fold.Prediction
	// OnHighMem marks targets that needed the high-memory partition.
	OnHighMem bool
}

// InferenceReport is the outcome of the inference stage.
type InferenceReport struct {
	Targets []TargetResult
	// Completed counts targets with at least one successful model;
	// OOMDropped counts targets lost to out-of-memory with no retry (the
	// missing count in Table 1's casp14 row).
	Completed  int
	OOMDropped int
	// Sim is the dataflow simulation of the standard-node wave.
	Sim *cluster.SimResult
	// HighMemSim is the (possibly nil) high-memory wave.
	HighMemSim  *cluster.SimResult
	WalltimeSec float64
	NodeHours   float64
}

// InferenceStage runs (target × model) inference tasks under the dataflow
// model on the Summit allocation: tasks are sorted by the configured
// policy, OOM failures are retried on the high-memory partition when
// configured, and per-target predictions are ranked by pTMS. Target IDs
// must be unique, as everywhere in the pipeline (features and trace
// identities are keyed by them); the report lists targets in ID order.
func InferenceStage(engine *fold.Engine, proteins []proteome.Protein, features map[string]*msa.Features, cfg Config) (*InferenceReport, error) {
	if cfg.SummitNodes <= 0 {
		return nil, fmt.Errorf("core: inference stage needs nodes")
	}

	// Flatten the (target x model) fan-out — the task granularity the
	// paper's Dask deployment uses — and execute it over the executor.
	// The engine is concurrency-safe (per-(seed, target, model) randomness),
	// and the OOM outcomes are data, not control flow, so each slot records
	// either a prediction or its OOM task and the serial assembly below
	// reconstructs the exact serial-order stdTasks and oomTasks slices.
	// allTasks is target-major: protein i's model m is task i*NumModels+m.
	allTasks := make([]fold.Task, 0, len(proteins)*fold.NumModels)
	for _, p := range proteins {
		f := features[p.Seq.ID]
		for m := 0; m < fold.NumModels; m++ {
			allTasks = append(allTasks, fold.Task{
				ID:        p.Seq.ID,
				Length:    p.Seq.Len(),
				Features:  f,
				Model:     m,
				Preset:    cfg.Preset,
				NodeMemGB: standardNodeGPUMemGB,
			})
		}
	}
	x := exec.Resolve(cfg.Executor, cfg.Parallelism)
	if err := cfg.remoteGuard(x); err != nil {
		return nil, err
	}
	// inferTaskID is the trace identity of one (target, model) slot — the
	// task granularity of the paper's processing-times file.
	inferTaskID := func(_ int, task fold.Task) string { return inferID(task) }
	// inferWave fans one wave of tasks out over the executor. Every
	// executor yields a PredictionDigest per slot (tagged OOM on OOM), from
	// which the caller rebuilds the prediction with the task's identity.
	// Both waves hold a target's models at consecutive indices (OOM depends
	// on the length and preset, not the model), so a pool claims them as
	// one unit and the engine builds the target's shared draws once.
	inferWave := func(tasks []fold.Task, memGB float64) ([]PredictionDigest, error) {
		return exec.MapSpecResume(x, KernelInfer, fold.NumModels, tasks,
			inferTaskID,
			func(_ int, task fold.Task) InferSpec {
				return InferSpec{
					Seed: cfg.Remote.Seed, Species: cfg.Remote.Species, ID: task.ID,
					Model: task.Model, Preset: cfg.Preset, NodeMemGB: memGB,
				}
			},
			func(_ int, task fold.Task) (PredictionDigest, error) {
				task.NodeMemGB = memGB
				return InferDigest(engine, task)
			},
			cfg.Resume)
	}
	digs, err := inferWave(allTasks, standardNodeGPUMemGB)
	if err != nil {
		return nil, err
	}

	// preds holds every prediction by value at its task's allTasks index;
	// missing[k] marks a task with no prediction (OOM, and not recovered
	// on the high-memory partition).
	preds := make([]fold.Prediction, len(allTasks))
	missing := make([]bool, len(allTasks))
	stdTasks := make([]cluster.SimTask, 0, len(allTasks))
	var oomTasks []fold.Task
	var oomAt []int // allTasks index of each oomTasks entry
	for k, task := range allTasks {
		if digs[k].OOM {
			missing[k] = true
			oomTasks = append(oomTasks, task)
			oomAt = append(oomAt, k)
			continue
		}
		preds[k] = digs[k].Prediction(task.ID, task.Length)
		stdTasks = append(stdTasks, simTask(task, preds[k].GPUSeconds))
	}

	cluster.ApplyOrder(stdTasks, cfg.Order)
	sim, err := cluster.SimulateDataflow(stdTasks, cluster.DataflowOptions{
		Workers:          cfg.SummitNodes * gpuWorkersPerNode,
		DispatchOverhead: cfg.DispatchOverhead,
		StartupDelay:     cfg.StartupDelay,
	})
	if err != nil {
		return nil, err
	}
	rep := &InferenceReport{Sim: sim}
	rep.WalltimeSec = sim.Makespan
	rep.NodeHours = float64(cfg.SummitNodes) * sim.Makespan / 3600

	// High-memory retry wave for OOM tasks, fanned out the same way (a
	// task that OOMs even there is dropped).
	onHighMem := make([]bool, len(proteins))
	if len(oomTasks) > 0 && cfg.HighMemNodes > 0 {
		hmDigs, err := inferWave(oomTasks, highMemNodeGPUMemGB)
		if err != nil {
			return nil, err
		}
		hmTasks := make([]cluster.SimTask, 0, len(oomTasks))
		for j, t := range oomTasks {
			if hmDigs[j].OOM {
				continue
			}
			k := oomAt[j]
			preds[k] = hmDigs[j].Prediction(t.ID, t.Length)
			missing[k] = false
			onHighMem[k/fold.NumModels] = true
			hmTasks = append(hmTasks, simTask(t, preds[k].GPUSeconds))
		}
		if len(hmTasks) > 0 {
			cluster.ApplyOrder(hmTasks, cfg.Order)
			hmSim, err := cluster.SimulateDataflow(hmTasks, cluster.DataflowOptions{
				Workers:          cfg.HighMemNodes * gpuWorkersPerNode,
				DispatchOverhead: cfg.DispatchOverhead,
				StartupDelay:     cfg.StartupDelay,
			})
			if err != nil {
				return nil, err
			}
			rep.HighMemSim = hmSim
			rep.NodeHours += float64(cfg.HighMemNodes) * hmSim.Makespan / 3600
			if hmSim.Makespan > rep.WalltimeSec {
				rep.WalltimeSec = hmSim.Makespan
			}
		}
	}

	// Assemble per-target results in ID order, ranked by pTMS as in the
	// paper. All and Best point into preds; each target's All is a
	// capacity-capped window of one shared pointer slice.
	order := make([]int, len(proteins))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(proteins[a].Seq.ID, proteins[b].Seq.ID) })
	ptrs := make([]*fold.Prediction, 0, len(allTasks))
	rep.Targets = make([]TargetResult, 0, len(proteins))
	for _, i := range order {
		p := proteins[i]
		tr := TargetResult{ID: p.Seq.ID, Length: p.Seq.Len(), OnHighMem: onHighMem[i]}
		first := len(ptrs)
		for k := i * fold.NumModels; k < (i+1)*fold.NumModels; k++ {
			if !missing[k] {
				ptrs = append(ptrs, &preds[k])
			}
		}
		if len(ptrs) > first {
			tr.All = ptrs[first:len(ptrs):len(ptrs)]
		}
		if best := fold.RankByPTMS(tr.All); best >= 0 {
			tr.Best = tr.All[best]
			rep.Completed++
		} else {
			rep.OOMDropped++
		}
		rep.Targets = append(rep.Targets, tr)
	}
	return rep, nil
}

// modelSuffixes are the "/mN" tails of the inference trace identities.
var modelSuffixes = [fold.NumModels]string{"/m0", "/m1", "/m2", "/m3", "/m4"}

// inferID is the trace identity of an inference task, "target/mN".
func inferID(t fold.Task) string { return t.ID + modelSuffixes[t.Model] }

// simTask is the simulator's view of a completed inference task.
func simTask(t fold.Task, gpuSeconds float64) cluster.SimTask {
	return cluster.SimTask{ID: inferID(t), Weight: float64(t.Length), Duration: gpuSeconds}
}

// RelaxReport is the outcome of the geometry-optimization stage.
type RelaxReport struct {
	Structures  int
	Sim         *cluster.SimResult
	WalltimeSec float64
	NodeHours   float64
}

// RelaxStage relaxes the top model of every completed target on the Summit
// allocation using the optimized single-pass GPU protocol (one worker per
// GPU, 6 per node — the Section 4.5 deployment).
func RelaxStage(targets []TargetResult, cfg Config, platform relax.Platform) (*RelaxReport, error) {
	if cfg.RelaxNodes <= 0 {
		return nil, fmt.Errorf("core: relax stage needs nodes")
	}
	type relaxIn struct {
		id     string
		length int
	}
	ins := make([]relaxIn, 0, len(targets))
	for _, t := range targets {
		if t.Best == nil {
			continue
		}
		ins = append(ins, relaxIn{id: t.ID, length: t.Length})
	}
	// The per-structure cost model fans out like the other stages so a
	// remote deployment runs all three workflow stages on its workers; the
	// RelaxSpec is self-contained (no campaign world needed).
	x := exec.Resolve(cfg.Executor, cfg.Parallelism)
	spec := func(it relaxIn) RelaxSpec { return RelaxSpec{Length: it.length, Platform: int(platform)} }
	durs, err := exec.MapSpecResume(x, KernelRelax, 1, ins,
		func(_ int, it relaxIn) string { return it.id },
		func(_ int, it relaxIn) RelaxSpec { return spec(it) },
		func(_ int, it relaxIn) (Seconds, error) { return spec(it).Seconds(), nil },
		cfg.Resume)
	if err != nil {
		return nil, err
	}
	tasks := make([]cluster.SimTask, 0, len(ins))
	for i, it := range ins {
		tasks = append(tasks, cluster.SimTask{
			ID:       it.id,
			Weight:   float64(RelaxHeavyAtoms(it.length)),
			Duration: float64(durs[i]),
		})
	}
	cluster.ApplyOrder(tasks, cfg.Order)
	workers := cfg.RelaxNodes * gpuWorkersPerNode
	if platform == relax.PlatformCPU {
		workers = cfg.RelaxNodes // full node per CPU relaxation
	}
	sim, err := cluster.SimulateDataflow(tasks, cluster.DataflowOptions{
		Workers:          workers,
		DispatchOverhead: cfg.DispatchOverhead,
		StartupDelay:     60,
	})
	if err != nil {
		return nil, err
	}
	return &RelaxReport{
		Structures:  len(tasks),
		Sim:         sim,
		WalltimeSec: sim.Makespan,
		NodeHours:   float64(cfg.RelaxNodes) * sim.Makespan / 3600,
	}, nil
}

// CampaignReport aggregates a full three-stage run.
type CampaignReport struct {
	Feature   *FeatureReport
	Inference *InferenceReport
	Relax     *RelaxReport
	Ledger    *cluster.Ledger
}

// RunCampaign executes the full pipeline for one proteome and returns the
// combined report with node-hour accounting per machine.
func RunCampaign(engine *fold.Engine, gen FeatureGen, proteins []proteome.Protein, fs fsim.Filesystem, db fsim.Database, cfg Config) (*CampaignReport, error) {
	feat, err := FeatureStage(proteins, gen, fs, db, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: feature stage: %w", err)
	}
	inf, err := InferenceStage(engine, proteins, feat.Features, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: inference stage: %w", err)
	}
	rel, err := RelaxStage(inf.Targets, cfg, relax.PlatformGPU)
	if err != nil {
		return nil, fmt.Errorf("core: relax stage: %w", err)
	}
	ledger := cluster.NewLedger()
	ledger.Charge("andes", feat.NodeHours)
	ledger.Charge("summit", inf.NodeHours)
	ledger.Charge("summit", rel.NodeHours)
	return &CampaignReport{Feature: feat, Inference: inf, Relax: rel, Ledger: ledger}, nil
}

// ReducedDatabase returns the fsim description of the reduced sequence
// dataset (420 GB), and FullDatabase the full one (2.1 TB), with metadata
// op counts reflecting their relative search footprints.
func ReducedDatabase() fsim.Database {
	return fsim.Database{Name: "reduced", SizeBytes: 420e9, MetaOpsPerSearch: 50000}
}

// FullDatabase is the full 2.1 TB dataset.
func FullDatabase() fsim.Database {
	return fsim.Database{Name: "full", SizeBytes: 2100e9, MetaOpsPerSearch: 250000}
}
