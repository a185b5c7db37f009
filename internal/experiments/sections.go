package experiments

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/analysis"
	"repro/internal/casp"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fold"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/proteome"
	"repro/internal/relax"
)

// FeatureGenResult reproduces Section 4.1: feature generation for the
// D. vulgaris proteome on Andes versus inference on Summit, and the
// reduced-versus-full dataset trade.
type FeatureGenResult struct {
	Proteins            int
	MeanLen             float64
	AndesNodeHours      float64 // paper: ~240
	SummitNodeHours     float64 // paper: ~400
	AndesWallHours      float64
	SummitWallHours     float64
	FullDBNodeHours     float64 // same workload against the 2.1 TB dataset
	ReplicationHoursRed float64 // one-time cost of creating the 24 copies
	ReplicationHoursFul float64
}

// FeatureGen runs the Section 4.1 comparison.
func FeatureGenExperiment(env *Env) (*FeatureGenResult, error) {
	dvu := env.Proteome(proteome.DVulgaris)
	proteins := dvu.FilterMaxLen(2500)
	cfg := env.config()
	cfg.AndesNodes = 96 // 24 copies x 4 jobs

	feat, err := core.FeatureStage(proteins, env.FeatureGen(), env.FS, core.ReducedDatabase(), cfg)
	if err != nil {
		return nil, err
	}
	inf, err := core.InferenceStage(env.Engine, proteins, feat.Features, cfg)
	if err != nil {
		return nil, err
	}

	res := &FeatureGenResult{
		Proteins:        len(proteins),
		MeanLen:         dvu.MeanLength(),
		AndesNodeHours:  feat.NodeHours,
		SummitNodeHours: inf.NodeHours,
		AndesWallHours:  feat.WalltimeSec / 3600,
		SummitWallHours: inf.WalltimeSec / 3600,
	}

	// Same search workload against the full dataset: the metadata cost per
	// search is ~5x, which is the I/O argument for the reduction.
	fullCfg := cfg
	featFull, err := core.FeatureStage(proteins, env.FeatureGen(), env.FS, core.FullDatabase(), fullCfg)
	if err != nil {
		return nil, err
	}
	res.FullDBNodeHours = featFull.NodeHours

	layout := cfg.Replicas
	repRed, err := env.FS.ReplicationTime(core.ReducedDatabase(), layout)
	if err != nil {
		return nil, err
	}
	repFull, err := env.FS.ReplicationTime(core.FullDatabase(), layout)
	if err != nil {
		return nil, err
	}
	res.ReplicationHoursRed = repRed / 3600
	res.ReplicationHoursFul = repFull / 3600
	return res, nil
}

// Render writes the Section 4.1 report.
func (r *FeatureGenResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Sec 4.1: D. vulgaris feature generation vs inference (%d proteins, mean %.0f AA)\n", r.Proteins, r.MeanLen)
	fmt.Fprintf(w, "  Andes feature gen    %.0f node-hours (paper ~240), wall %.1f h\n", r.AndesNodeHours, r.AndesWallHours)
	fmt.Fprintf(w, "  Summit inference     %.0f node-hours (paper ~400), wall %.1f h\n", r.SummitNodeHours, r.SummitWallHours)
	fmt.Fprintf(w, "  full 2.1TB dataset   %.0f node-hours for the same searches (reduced wins)\n", r.FullDBNodeHours)
	fmt.Fprintf(w, "  replication (24x)    reduced %.2f h vs full %.2f h one-time cost\n", r.ReplicationHoursRed, r.ReplicationHoursFul)
	return nil
}

// RecycleGainsResult reproduces the Section 4.2 analysis: the super-preset
// improvement over reduced_dbs is concentrated in a few hard targets that
// recycle to the cap.
type RecycleGainsResult struct {
	Targets int
	// TotalGain is the summed positive pTMS improvement.
	TotalGain float64
	// FracGainFromBig is the fraction of TotalGain contributed by targets
	// with Δ ≥ 0.1 (paper: ~45% from ~5% of targets).
	FracGainFromBig   float64
	FracTargetsBig    float64
	FracGainFromMed   float64 // Δ ≥ 0.05 (paper: 74% from 12%)
	FracTargetsMed    float64
	MeanRecyclesOfBig float64 // paper: ~19 (close to the cap of 20)
}

// RecycleGains runs the improvement-distribution analysis on the
// 559-sequence benchmark: the campaign's inference stage
// (core.InferenceStage) twice, with Config.Preset = ReducedDBs and then
// Super, and Config.HighMemNodes = 0, so a model that runs out of GPU
// memory is dropped rather than retried. A target's gain is its best super
// model's pTMS over its best reduced_dbs model's.
func RecycleGains(env *Env) (*RecycleGainsResult, error) {
	bench := env.Benchmark559()
	feats, err := env.FeaturesFor(bench)
	if err != nil {
		return nil, err
	}
	cfg := env.config()
	cfg.HighMemNodes = 0
	var stages [2]*core.InferenceReport
	for i, preset := range []fold.Preset{fold.ReducedDBs, fold.Super} {
		cfg.Preset = preset
		if stages[i], err = core.InferenceStage(env.Engine, bench, feats, cfg); err != nil {
			return nil, err
		}
	}
	res := &RecycleGainsResult{Targets: len(bench)}
	var bigGain, medGain, bigRecycles float64
	var nBig, nMed int
	// Both stages list the same targets in ID order.
	for i, short := range stages[0].Targets {
		long := stages[1].Targets[i]
		if short.Best == nil || long.Best == nil {
			continue
		}
		d := long.Best.PTMS - short.Best.PTMS
		if d <= 0 {
			continue
		}
		res.TotalGain += d
		if d >= 0.1 {
			bigGain += d
			bigRecycles += float64(long.Best.Recycles)
			nBig++
		}
		if d >= 0.05 {
			medGain += d
			nMed++
		}
	}
	if res.TotalGain > 0 {
		res.FracGainFromBig = bigGain / res.TotalGain
		res.FracGainFromMed = medGain / res.TotalGain
	}
	res.FracTargetsBig = float64(nBig) / float64(res.Targets)
	res.FracTargetsMed = float64(nMed) / float64(res.Targets)
	if nBig > 0 {
		res.MeanRecyclesOfBig = bigRecycles / float64(nBig)
	}
	return res, nil
}

// Render writes the Section 4.2 report.
func (r *RecycleGainsResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Sec 4.2: recycle-improvement distribution (super vs reduced_dbs, %d targets)\n", r.Targets)
	fmt.Fprintf(w, "  Δ≥0.10: %.0f%% of gain from %.0f%% of targets (paper: 45%% from 5%%)\n",
		100*r.FracGainFromBig, 100*r.FracTargetsBig)
	fmt.Fprintf(w, "  Δ≥0.05: %.0f%% of gain from %.0f%% of targets (paper: 74%% from 12%%)\n",
		100*r.FracGainFromMed, 100*r.FracTargetsMed)
	fmt.Fprintf(w, "  mean recycles of Δ≥0.1 targets: %.1f (paper: ~19, cap 20)\n", r.MeanRecyclesOfBig)
	return nil
}

// SDivinumResult reproduces Section 4.3.1: the plant-proteome run.
type SDivinumResult struct {
	Proteins          int
	Completed         int
	FracPLDDTAbove70  float64 // paper: ~57% of top models
	ResidueCoverage70 float64 // paper: 58% of residues at pLDDT > 70
	ResidueCoverage90 float64 // paper: ~36% at pLDDT > 90
	FracPTMSAbove06   float64 // paper: ~53%
	MeanRecycles      float64 // paper: 12
	AndesNodeHours    float64 // paper: ~2000
	SummitNodeHours   float64 // paper: ~3000 (inference incl. overheads)
}

// SDivinum runs the full plant proteome.
func SDivinum(env *Env) (*SDivinumResult, error) {
	sd := env.Proteome(proteome.SDivinum)
	proteins := sd.FilterMaxLen(2500)
	cfg := env.config()
	cfg.AndesNodes = 96
	cfg.SummitNodes = 200
	cfg.HighMemNodes = 4

	feat, err := core.FeatureStage(proteins, env.FeatureGen(), env.FS, core.ReducedDatabase(), cfg)
	if err != nil {
		return nil, err
	}
	inf, err := core.InferenceStage(env.Engine, proteins, feat.Features, cfg)
	if err != nil {
		return nil, err
	}
	res := &SDivinumResult{
		Proteins:        len(proteins),
		Completed:       inf.Completed,
		AndesNodeHours:  feat.NodeHours,
		SummitNodeHours: inf.NodeHours,
	}
	var nPL, nTM int
	var recycles float64
	var totalRes, res70, res90 float64
	for _, t := range inf.Targets {
		if t.Best == nil {
			continue
		}
		if t.Best.MeanPLDDT > 70 {
			nPL++
		}
		if t.Best.PTMS > 0.6 {
			nTM++
		}
		recycles += float64(t.Best.Recycles)
		l := float64(t.Length)
		totalRes += l
		res70 += l * t.Best.FracAbove70
		res90 += l * t.Best.FracAbove90
	}
	if inf.Completed > 0 {
		res.FracPLDDTAbove70 = float64(nPL) / float64(inf.Completed)
		res.FracPTMSAbove06 = float64(nTM) / float64(inf.Completed)
		res.MeanRecycles = recycles / float64(inf.Completed)
	}
	if totalRes > 0 {
		res.ResidueCoverage70 = res70 / totalRes
		res.ResidueCoverage90 = res90 / totalRes
	}
	return res, nil
}

// Render writes the Section 4.3.1 report.
func (r *SDivinumResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Sec 4.3.1: S. divinum proteome (%d proteins, %d completed)\n", r.Proteins, r.Completed)
	fmt.Fprintf(w, "  top models pLDDT>70   %.0f%% (paper ~57%%)\n", 100*r.FracPLDDTAbove70)
	fmt.Fprintf(w, "  residue coverage >70  %.0f%% (paper 58%%)\n", 100*r.ResidueCoverage70)
	fmt.Fprintf(w, "  residue coverage >90  %.0f%% (paper ~36%%)\n", 100*r.ResidueCoverage90)
	fmt.Fprintf(w, "  top models pTMS>0.6   %.0f%% (paper ~53%%)\n", 100*r.FracPTMSAbove06)
	fmt.Fprintf(w, "  mean recycles         %.1f (paper 12)\n", r.MeanRecycles)
	fmt.Fprintf(w, "  Andes node-hours      %.0f (paper ~2000)\n", r.AndesNodeHours)
	fmt.Fprintf(w, "  Summit node-hours     %.0f (paper ~3000)\n", r.SummitNodeHours)
	return nil
}

// ViolationsResult reproduces Section 4.4: violation statistics before and
// after relaxation with each method over the 160-model CASP set.
type ViolationsResult struct {
	Models        int
	ClashesBefore metrics.Summary // paper: 0.22 ± 1.09, max 8
	BumpsBefore   metrics.Summary // paper: 3.76 ± 12.74, max 148
	// After per platform.
	ClashesAfter map[relax.Platform]metrics.Summary // paper: 0 for all methods
	BumpsAfter   map[relax.Platform]metrics.Summary // paper: 2.12/2.71/2.59 means
}

// Violations runs the full 160-model relaxation comparison.
func Violations(env *Env) (*ViolationsResult, error) {
	set := casp.NewSet(env.Seed ^ 0xCA5B)
	res := &ViolationsResult{
		Models:       len(set.Models),
		ClashesAfter: map[relax.Platform]metrics.Summary{},
		BumpsAfter:   map[relax.Platform]metrics.Summary{},
	}
	var cb, bb []float64
	after := map[relax.Platform]*[2][]float64{}
	for _, p := range fig3Platforms {
		after[p] = &[2][]float64{}
	}
	// One item per model: its three relax-protocol runs execute on the
	// worker pool; counts are folded serially in submission order.
	type violOut struct {
		before  relax.Violations
		clashes [3]int
		bumps   [3]int
	}
	models := make([]*casp.Model, len(set.Models))
	for mi := range set.Models {
		models[mi] = &set.Models[mi]
	}
	outs, err := exec.Map(env.executor(), models, func(_ int, m *casp.Model) (violOut, error) {
		out := violOut{before: relax.CountViolations(m.CA)}
		for pi, platform := range fig3Platforms {
			opt := relax.DefaultOptions(platform)
			opt.HeavyAtoms = m.HeavyAtoms
			rr, err := relax.Relax(m.CA, m.SC, opt)
			if err != nil {
				return violOut{}, err
			}
			out.clashes[pi] = rr.After.Clashes
			out.bumps[pi] = rr.After.Bumps
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for _, out := range outs {
		cb = append(cb, float64(out.before.Clashes))
		bb = append(bb, float64(out.before.Bumps))
		for pi, platform := range fig3Platforms {
			after[platform][0] = append(after[platform][0], float64(out.clashes[pi]))
			after[platform][1] = append(after[platform][1], float64(out.bumps[pi]))
		}
	}
	res.ClashesBefore = metrics.Summarize(cb)
	res.BumpsBefore = metrics.Summarize(bb)
	for _, platform := range fig3Platforms {
		res.ClashesAfter[platform] = metrics.Summarize(after[platform][0])
		res.BumpsAfter[platform] = metrics.Summarize(after[platform][1])
	}
	return res, nil
}

// Render writes the Section 4.4 report.
func (r *ViolationsResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Sec 4.4: violation reduction over %d CASP14-like models\n", r.Models)
	fmt.Fprintf(w, "  before: clashes %.2f ± %.2f (max %.0f; paper 0.22 ± 1.09 max 8)\n",
		r.ClashesBefore.Mean, r.ClashesBefore.Std, r.ClashesBefore.Max)
	fmt.Fprintf(w, "          bumps   %.2f ± %.2f (max %.0f; paper 3.76 ± 12.74 max 148)\n",
		r.BumpsBefore.Mean, r.BumpsBefore.Std, r.BumpsBefore.Max)
	for _, p := range fig3Platforms {
		fmt.Fprintf(w, "  after %-12s clashes %.2f (paper 0), bumps %.2f ± %.2f (max %.0f)\n",
			p.String()+":", r.ClashesAfter[p].Mean, r.BumpsAfter[p].Mean, r.BumpsAfter[p].Std, r.BumpsAfter[p].Max)
	}
	fmt.Fprintln(w, "  paper after-bumps: 2.12 ± 3.70 (AF2), 2.59 ± 5.34 (CPU), 2.71 ± 5.90 (GPU)")
	return nil
}

// GenomeRelaxResult reproduces Section 4.5: relaxing the 3205 top
// D. vulgaris models on 8 Summit nodes (48 workers) — 22.89 minutes in the
// paper.
type GenomeRelaxResult struct {
	Structures  int
	Workers     int
	WallMinutes float64
	NodeHours   float64
}

// GenomeRelax runs the genome-scale relaxation workflow.
func GenomeRelax(env *Env) (*GenomeRelaxResult, error) {
	dvu := env.Proteome(proteome.DVulgaris)
	proteins := dvu.FilterMaxLen(2500)
	cfg := env.config()
	feat, err := core.FeatureStage(proteins, env.FeatureGen(), env.FS, core.ReducedDatabase(), cfg)
	if err != nil {
		return nil, err
	}
	inf, err := core.InferenceStage(env.Engine, proteins, feat.Features, cfg)
	if err != nil {
		return nil, err
	}
	rel, err := core.RelaxStage(inf.Targets, cfg, relax.PlatformGPU)
	if err != nil {
		return nil, err
	}
	return &GenomeRelaxResult{
		Structures:  rel.Structures,
		Workers:     len(rel.Sim.WorkerBusy),
		WallMinutes: rel.WalltimeSec / 60,
		NodeHours:   rel.NodeHours,
	}, nil
}

// Render writes the Section 4.5 report.
func (r *GenomeRelaxResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Sec 4.5: genome-scale relaxation of %d structures on %d workers\n", r.Structures, r.Workers)
	fmt.Fprintf(w, "  wall time  %.2f min (paper 22.89 min)\n", r.WallMinutes)
	fmt.Fprintf(w, "  node-hours %.1f\n", r.NodeHours)
	return nil
}

// AnnotationResult reproduces Section 4.6: structural annotation of the
// 559 hypothetical D. vulgaris proteins.
type AnnotationResult struct {
	Report analysis.Report
	// NovelExample is the best high-confidence/no-match case found (the
	// paper's homocysteine-synthesis example: pLDDT > 90, top TM 0.358).
	NovelExampleID string
	NovelExampleTM float64
}

// Annotation runs the hypothetical-protein analysis on the 559
// hypotheticals. The campaign's inference stage (core.InferenceStage, with
// Config.HighMemNodes = 0, so a model that runs out of GPU memory is
// dropped rather than retried) ranks each target's models by pTMS; the top
// model is re-run with coordinates, searched against the pdb70 stand-in
// (85% family coverage), and the annotation-transfer statistics are
// aggregated.
func Annotation(env *Env) (*AnnotationResult, error) {
	hypos := env.Benchmark559()
	feats, err := env.FeaturesFor(hypos)
	if err != nil {
		return nil, err
	}

	// pdb70 covers 85% of families; the rest are novel-fold territory.
	var covered []int
	for f := 0; f < env.Universe.NumFamilies(); f++ {
		if f%7 != 3 { // deterministic ~86% coverage
			covered = append(covered, f)
		}
	}
	db := analysis.BuildPDB70(env.Universe, covered, env.Seed)

	cfg := env.config()
	cfg.HighMemNodes = 0
	inf, err := core.InferenceStage(env.Engine, hypos, feats, cfg)
	if err != nil {
		return nil, err
	}
	best := make(map[string]*fold.Prediction, len(inf.Targets))
	for _, t := range inf.Targets {
		best[t.ID] = t.Best
	}

	// Each protein's coordinate materialization and structure search run
	// as one work item; annotations come back in submission order so the
	// aggregate and the novel-example tie-breaks follow the benchmark's
	// order.
	res := &AnnotationResult{}
	perProtein, err := exec.Map(env.executor(), hypos, func(_ int, p proteome.Protein) (*analysis.Annotation, error) {
		b := best[p.Seq.ID]
		if b == nil {
			return nil, nil // every model ran out of GPU memory
		}
		// Re-run the top model by pTMS with coordinates and analyse it, as
		// the paper's pipeline does.
		task := foldTask(p, feats[p.Seq.ID], b.Model)
		task.WantCoords = true
		pred, err := env.Engine.Infer(task)
		if err != nil {
			return nil, err
		}
		return analysis.Annotate(db, p.Seq.ID, pred.CA, p.Seq.Residues, pred.MeanPLDDT)
	})
	if err != nil {
		return nil, err
	}
	anns := make([]*analysis.Annotation, 0, len(perProtein))
	for _, ann := range perProtein {
		if ann == nil {
			continue
		}
		anns = append(anns, ann)
		if ann.NovelFoldCandidate && (res.NovelExampleID == "" || ann.Top.TM < res.NovelExampleTM) {
			res.NovelExampleID = ann.ID
			res.NovelExampleTM = ann.Top.TM
		}
	}
	res.Report = analysis.Aggregate(anns)
	return res, nil
}

// Render writes the Section 4.6 report.
func (r *AnnotationResult) Render(w io.Writer) error {
	rep := r.Report
	fmt.Fprintf(w, "Sec 4.6: structural annotation of %d hypothetical proteins\n", rep.Total)
	fmt.Fprintf(w, "  TM ≥ 0.6 structural match  %d (paper 239)\n", rep.StructuralMatch)
	fmt.Fprintf(w, "  ... with seq id < 20%%      %d (paper 215)\n", rep.MatchSeqIDBelow20)
	fmt.Fprintf(w, "  ... with seq id < 10%%      %d (paper 112)\n", rep.MatchSeqIDBelow10)
	fmt.Fprintf(w, "  novel-fold candidates      %d\n", rep.NovelFolds)
	if r.NovelExampleID != "" {
		fmt.Fprintf(w, "  example: %s top TM %.3f at pLDDT>90 (paper example: TM 0.358)\n",
			r.NovelExampleID, r.NovelExampleTM)
	}
	return nil
}

// CampaignResult reproduces the headline scale numbers: all four proteomes
// (35,634 targets) within the node-hour budget of the abstract.
type CampaignResult struct {
	Species         []string
	Targets         int
	Completed       int
	SummitNodeHours float64 // paper: < 4000 total
	AndesNodeHours  float64
}

// Campaign runs the full four-species campaign end to end. The proteomes
// are built first, one after another (Env.Proteome is not safe for
// concurrent use). Then the species run on up to Parallelism goroutines,
// largest proteome first — the paper's longest-first policy, one level up
// — and every species' stages share one executor. That executor runs one
// batch at a time, so the species overlap only their serial simulator
// tails with another species' batch, and Parallelism still bounds the
// pool. Each report is kept by species, and the totals are summed
// afterwards in PaperSpecies order, so every float adds in the same order
// at any Parallelism.
func Campaign(env *Env) (*CampaignResult, error) {
	species := proteome.PaperSpecies()
	proteins := make([][]proteome.Protein, len(species))
	for i, sp := range species {
		proteins[i] = env.Proteome(sp).FilterMaxLen(2500)
	}
	cfg := env.config()
	cfg.Executor = env.executor()
	cfg.AndesNodes = 96
	cfg.SummitNodes = 200
	cfg.HighMemNodes = 4
	gen := env.FeatureGen()

	runOrder := make([]int, len(species))
	for i := range runOrder {
		runOrder[i] = i
	}
	slices.SortStableFunc(runOrder, func(a, b int) int { return cmp.Compare(len(proteins[b]), len(proteins[a])) })
	reports := make([]*core.CampaignReport, len(species))
	err := parallel.ForEach(env.Parallelism, len(runOrder), func(k int) error {
		i := runOrder[k]
		rep, err := core.RunCampaign(env.Engine, gen, proteins[i], env.FS, core.ReducedDatabase(), cfg)
		if err != nil {
			return fmt.Errorf("experiments: campaign %s: %w", species[i].Code, err)
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &CampaignResult{}
	for i, sp := range species {
		res.Species = append(res.Species, sp.Name)
		res.Targets += len(proteins[i])
		res.Completed += reports[i].Inference.Completed
		res.SummitNodeHours += reports[i].Ledger.Total("summit")
		res.AndesNodeHours += reports[i].Ledger.Total("andes")
	}
	sort.Strings(res.Species)
	return res, nil
}

// Render writes the campaign report.
func (r *CampaignResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Campaign: %d species, %d targets, %d completed\n", len(r.Species), r.Targets, r.Completed)
	fmt.Fprintf(w, "  Summit node-hours %.0f (paper: <4000 for 35,634 targets)\n", r.SummitNodeHours)
	fmt.Fprintf(w, "  Andes node-hours  %.0f\n", r.AndesNodeHours)
	return nil
}
