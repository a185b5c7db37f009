package main

import (
	"math"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/casp"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/fold"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/proteome"
	"repro/internal/relax"
)

// paperTargets is the campaign size the paper reports; the default seed
// must reproduce it.
const paperTargets = 35634

// tasksPerTarget is one feature, five inference and one relax task.
const tasksPerTarget = 7

// campaignPool is the paper's headline run on the in-process pool: all
// four proteomes through feature generation, inference and relaxation.
type campaignPool struct{}

func (*campaignPool) name() string          { return wlCampaignPool }
func (*campaignPool) prepare(*runCtx) error { return nil }

func (*campaignPool) rep(rc *runCtx, traced bool) *repResult {
	r := &repResult{layer: values{}}
	// The previous repetition's world is garbage by now; collect it outside
	// the timed region so every repetition starts from the same heap.
	runtime.GC()

	_, endSetup := rc.tr.begin("setup: experiments.NewEnv + proteome.Generate", 0)
	t0 := time.Now()
	env := experiments.NewEnv(rc.seed)
	env.Parallelism = rc.nproc
	gen0 := time.Now()
	targets := 0
	for _, sp := range proteome.PaperSpecies() {
		targets += len(env.Proteome(sp).FilterMaxLen(2500))
	}
	genS := time.Since(gen0).Seconds()
	r.setupS = time.Since(t0).Seconds()
	endSetup()

	if rc.seed == experiments.DefaultSeed && targets != paperTargets {
		r.fail("default seed yields %d targets, want %d", targets, paperTargets)
	}
	r.tasks = tasksPerTarget * targets
	r.attempted = r.tasks

	var res *experiments.CampaignResult
	var err error
	cpu0, t1 := selfCPU(), time.Now()
	if traced {
		res, err = stagedCampaign(rc, env, r.layer)
		r.layer["proteome.generate_s"] = genS
	} else {
		res, err = experiments.Campaign(env)
	}
	r.wallS = time.Since(t1).Seconds()
	r.cpuS = selfCPU() - cpu0
	if err != nil {
		return r.failAll(r.tasks, "campaign: %v", err)
	}
	r.waitsMS = []float64{r.wallS * 1e3}
	if res.Targets != targets || res.Completed > targets {
		r.fail("campaign reports %d targets (%d completed), proteomes hold %d", res.Targets, res.Completed, targets)
	}
	var b strings.Builder
	_ = res.Render(&b)
	r.report = b.String()
	if traced {
		stages := r.layer["core.feature_stage_s"] + r.layer["core.inference_stage_s"] + r.layer["core.relax_stage_s"]
		if math.Abs(stages-r.wallS) > 0.05*r.wallS {
			r.fail("stage times sum to %.3f s, more than 5%% off the traced wall %.3f s", stages, r.wallS)
		}
	}
	return r
}

// campaignConfig is the configuration experiments.Campaign gives every
// species.
func campaignConfig(parallelism int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Parallelism = parallelism
	cfg.AndesNodes, cfg.SummitNodes, cfg.HighMemNodes = 96, 200, 4
	return cfg
}

// stagedCampaign is experiments.Campaign taken apart: the bench calls the
// three stages itself, per species and with Campaign's configuration, so
// each gets its own span and time. The caller checks that the assembled
// result renders exactly as Campaign's.
func stagedCampaign(rc *runCtx, env *experiments.Env, layer values) (*experiments.CampaignResult, error) {
	res := &experiments.CampaignResult{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root, endRoot := rc.tr.begin("experiments.Campaign (staged)", 0)
	defer endRoot()
	stage := func(name, metric string, parent int, fn func() error) error {
		_, end := rc.tr.begin(name, parent)
		t := time.Now()
		err := fn()
		layer[metric] += time.Since(t).Seconds()
		end()
		return err
	}
	for _, sp := range proteome.PaperSpecies() {
		spSpan, endSp := rc.tr.begin("core.RunCampaign "+sp.Code, root)
		proteins := env.Proteome(sp).FilterMaxLen(2500)
		cfg := campaignConfig(env.Parallelism)
		var feat *core.FeatureReport
		var inf *core.InferenceReport
		var rel *core.RelaxReport
		err := stage("core.FeatureStage", "core.feature_stage_s", spSpan, func() (err error) {
			feat, err = core.FeatureStage(proteins, env.FeatureGen(), env.FS, core.ReducedDatabase(), cfg)
			return err
		})
		if err == nil {
			err = stage("core.InferenceStage", "core.inference_stage_s", spSpan, func() (err error) {
				inf, err = core.InferenceStage(env.Engine, proteins, feat.Features, cfg)
				return err
			})
		}
		if err == nil {
			err = stage("core.RelaxStage", "core.relax_stage_s", spSpan, func() (err error) {
				rel, err = core.RelaxStage(inf.Targets, cfg, relax.PlatformGPU)
				return err
			})
		}
		endSp()
		if err != nil {
			return nil, err
		}
		ledger := cluster.NewLedger()
		ledger.Charge("andes", feat.NodeHours)
		ledger.Charge("summit", inf.NodeHours)
		ledger.Charge("summit", rel.NodeHours)
		res.Species = append(res.Species, sp.Name)
		res.Targets += len(proteins)
		res.Completed += inf.Completed
		res.SummitNodeHours += ledger.Total("summit")
		res.AndesNodeHours += ledger.Total("andes")
	}
	sort.Strings(res.Species)
	runtime.ReadMemStats(&ms1)
	n := float64(res.Targets)
	layer["core.allocs_per_target"] = float64(ms1.Mallocs-ms0.Mallocs) / n
	layer["core.alloc_kb_per_target"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / n
	layer["core.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	return res, nil
}

// layers times the pool, the inference engine and the dataflow simulator
// over D. vulgaris, the species the multi-process workloads also run.
func (*campaignPool) layers(rc *runCtx, _ *repResult) values {
	v := poolLayers(rc)
	env := experiments.NewEnv(rc.seed)
	env.Parallelism = rc.nproc
	proteins := env.Proteome(proteome.DVulgaris).FilterMaxLen(2500)
	cfg := campaignConfig(rc.nproc)

	// fold.Engine.Infer over the first 2,000 (target, model) tasks.
	const inferTasks = 2000
	var tasks []fold.Task
	for _, p := range proteins {
		f, err := env.FeatureGen().Features(p)
		if err != nil {
			break
		}
		for m := 0; m < fold.NumModels && len(tasks) < inferTasks; m++ {
			tasks = append(tasks, fold.Task{ID: p.Seq.ID, Length: p.Seq.Len(), Features: f, Model: m, Preset: cfg.Preset, NodeMemGB: 16})
		}
		if len(tasks) == inferTasks {
			break
		}
	}
	v["fold.infer_us"] = timeEach(rc.tr, "fold.Engine.Infer", len(tasks), func(i int) {
		_, _ = env.Engine.Infer(tasks[i]) // an OOM outcome is data here, as in the stage
	}) / 1e3

	// cluster.SimulateDataflow over the species' whole inference wave.
	feat, err := core.FeatureStage(proteins, env.FeatureGen(), env.FS, core.ReducedDatabase(), cfg)
	if err != nil {
		return v
	}
	inf, err := core.InferenceStage(env.Engine, proteins, feat.Features, cfg)
	if err != nil {
		return v
	}
	var wave []cluster.SimTask
	for _, t := range inf.Targets {
		for _, pred := range t.All {
			wave = append(wave, cluster.SimTask{ID: t.ID, Weight: float64(t.Length), Duration: pred.GPUSeconds})
		}
	}
	cluster.ApplyOrder(wave, cfg.Order)
	opt := cluster.DataflowOptions{Workers: cfg.SummitNodes * 6, DispatchOverhead: cfg.DispatchOverhead, StartupDelay: cfg.StartupDelay}
	v["cluster.simulate_dataflow_ms"] = timeBatches(rc.tr, "cluster.SimulateDataflow", 9, 1, func() {
		_, _ = cluster.SimulateDataflow(wave, opt)
	}) / 1e6
	return v
}

// poolLayers times the two fan-out primitives every in-process stage
// sits on, with a no-op item so only their own cost shows.
func poolLayers(rc *runCtx) values {
	const items = 16384
	var sink atomic.Int64
	noop := func(int) error { sink.Add(1); return nil }
	pool := exec.NewPool(rc.nproc)
	return values{
		"exec.pool_item_ns": timeBatches(rc.tr, "exec.Pool.Run", 21, items, func() {
			_ = pool.Run(exec.Batch{N: items, Fn: noop})
		}),
		"parallel.foreach_ns": timeBatches(rc.tr, "parallel.ForEach", 21, items, func() {
			_ = parallel.ForEach(rc.nproc, items, noop)
		}),
	}
}

// caspModels is the size of the CASP14-like set: 32 targets x 5 models.
const caspModels = 160

// publishedSet is the CASP14-like set experiments.Violations relaxes at
// the default seed.
func publishedSet() *casp.Set { return casp.NewSet(experiments.DefaultSeed ^ 0xCA5B) }

// relaxPlatforms is the order experiments.Violations relaxes in.
var relaxPlatforms = []relax.Platform{relax.PlatformAF2, relax.PlatformCPU, relax.PlatformGPU}

// relaxCASP is the paper's second contribution: real minimisations of the
// 160 CASP14-like models under the three relax protocols.
//
// It keeps the published set (experiments.DefaultSeed) whatever -seed says.
// The set is 32 targets whose cost a few planted pathological models
// dominate (T1080, as in the paper), so a re-drawn set moved wall_s by
// +-21 % across ten seeds — more than any bound could absorb, where the
// 35,634-target campaign moves by +-2 %.
type relaxCASP struct{}

func (*relaxCASP) name() string          { return wlRelaxCASP }
func (*relaxCASP) prepare(*runCtx) error { return nil }

func (*relaxCASP) rep(rc *runCtx, traced bool) *repResult {
	r := &repResult{layer: values{}}
	runtime.GC()
	// NewEnv is all the bring-up there is, and it is under a millisecond:
	// it is set up several times and the median reported.
	_, endSetup := rc.tr.begin("setup: experiments.NewEnv", 0)
	var env *experiments.Env
	setups := make([]float64, 15)
	for i := range setups {
		t0 := time.Now()
		env = experiments.NewEnv(experiments.DefaultSeed)
		setups[i] = time.Since(t0).Seconds()
	}
	env.Parallelism = rc.nproc
	r.setupS = median(setups)
	endSetup()

	r.tasks = caspModels * len(relaxPlatforms)
	r.attempted = r.tasks
	var res *experiments.ViolationsResult
	var err error
	cpu0, t1 := selfCPU(), time.Now()
	if traced {
		res, err = timedViolations(rc, r.layer)
	} else {
		res, err = experiments.Violations(env)
	}
	r.wallS = time.Since(t1).Seconds()
	r.cpuS = selfCPU() - cpu0
	if err != nil {
		return r.failAll(r.tasks, "violations: %v", err)
	}
	r.waitsMS = []float64{r.wallS * 1e3}
	if res.Models != caspModels {
		r.fail("relaxed %d models, the CASP14-like set holds %d", res.Models, caspModels)
	}
	for _, p := range relaxPlatforms {
		if m := res.ClashesAfter[p].Mean; m != 0 {
			r.fail("%v leaves %.3f clashes per model, want 0", p, m)
		}
	}
	var b strings.Builder
	_ = res.Render(&b)
	r.report = b.String()
	return r
}

// timedViolations is experiments.Violations with the bench calling
// relax.Relax itself, per model and protocol, on the same pool — so each
// minimisation is timed and its steps counted. The caller checks that the
// result renders exactly as Violations'.
func timedViolations(rc *runCtx, layer values) (*experiments.ViolationsResult, error) {
	type out struct {
		before  relax.Violations
		after   [3]relax.Violations
		ms      [3]float64
		steps   [3]int
		started time.Time
		ended   time.Time
	}
	root, endRoot := rc.tr.begin("experiments.Violations (timed)", 0)
	defer endRoot()
	_, endSet := rc.tr.begin("casp.NewSet", root)
	set := publishedSet()
	endSet()
	outs, err := exec.Map(exec.NewPool(rc.nproc), set.Models, func(_ int, m casp.Model) (out, error) {
		o := out{before: relax.CountViolations(m.CA), started: time.Now()}
		for pi, platform := range relaxPlatforms {
			opt := relax.DefaultOptions(platform)
			opt.HeavyAtoms = m.HeavyAtoms
			t := time.Now()
			rr, err := relax.Relax(geom.Clone(m.CA), geom.Clone(m.SC), opt)
			if err != nil {
				return out{}, err
			}
			o.ms[pi] = float64(time.Since(t).Nanoseconds()) / 1e6
			o.after[pi], o.steps[pi] = rr.After, rr.Steps
		}
		o.ended = time.Now()
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	res := &experiments.ViolationsResult{
		Models:       len(set.Models),
		ClashesAfter: map[relax.Platform]metrics.Summary{},
		BumpsAfter:   map[relax.Platform]metrics.Summary{},
	}
	var cb, bb, ms []float64
	var clashes, bumps [3][]float64
	steps := 0
	for i, o := range outs {
		rc.tr.add("relax.Relax x3 "+set.Models[i].TargetID, root, o.started, o.ended)
		cb = append(cb, float64(o.before.Clashes))
		bb = append(bb, float64(o.before.Bumps))
		for pi := range relaxPlatforms {
			clashes[pi] = append(clashes[pi], float64(o.after[pi].Clashes))
			bumps[pi] = append(bumps[pi], float64(o.after[pi].Bumps))
			ms = append(ms, o.ms[pi])
			steps += o.steps[pi]
		}
	}
	res.ClashesBefore, res.BumpsBefore = metrics.Summarize(cb), metrics.Summarize(bb)
	for pi, p := range relaxPlatforms {
		res.ClashesAfter[p] = metrics.Summarize(clashes[pi])
		res.BumpsAfter[p] = metrics.Summarize(bumps[pi])
	}
	layer["relax.relax_ms_p50"] = median(ms)
	layer["relax.relax_ms_p95"] = percentile(ms, 95)
	layer["relax.steps_per_relax"] = float64(steps) / float64(len(ms))
	return res, nil
}

// layers times one energy-and-forces evaluation — the inner loop of every
// minimiser step — on the set's median-sized model.
func (*relaxCASP) layers(rc *runCtx, _ *repResult) values {
	v := poolLayers(rc)
	set := publishedSet()
	models := append([]casp.Model(nil), set.Models...)
	sort.Slice(models, func(i, j int) bool { return len(models[i].CA) < len(models[j].CA) })
	m := models[len(models)/2]
	sys, err := relax.NewSystem(geom.Clone(m.CA), geom.Clone(m.SC), relax.DefaultForceField())
	if err != nil {
		return v
	}
	forces := make([]geom.Vec3, len(sys.Pos))
	v["relax.energy_forces_us"] = timeBatches(rc.tr, "relax.System.EnergyForces", 21, 50, func() {
		for i := 0; i < 50; i++ {
			sys.EnergyForces(forces)
		}
	}) / 1e3
	return v
}
