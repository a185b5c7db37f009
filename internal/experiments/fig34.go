package experiments

import (
	"fmt"
	"io"

	"repro/internal/casp"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/relax"
)

// Fig3Point is one model's quality before and after relaxation.
type Fig3Point struct {
	TargetID   string
	ModelNum   int
	TMBefore   float64
	SPECBefore float64
	// Per-method after-relaxation scores, indexed by platform.
	TMAfter   map[relax.Platform]float64
	SPECAfter map[relax.Platform]float64
}

// Fig3Result reproduces Fig. 3: TM-score and SPECS-score of relaxed versus
// unrelaxed models for the CASP14 targets with crystal structures, for all
// three relaxation methods. The paper's findings: strong correlation, no
// decreases, slight SPECS gains for already-good models, all three methods
// equivalent.
type Fig3Result struct {
	Points []Fig3Point
	// Correlations of after-vs-before per method.
	TMCorr   map[relax.Platform]float64
	SPECCorr map[relax.Platform]float64
	// MaxTMDrop is the largest TM decrease observed across methods (the
	// paper observes none beyond noise).
	MaxTMDrop float64
	// MeanSPECDelta per method (positive = improvement).
	MeanSPECDelta map[relax.Platform]float64
}

var fig3Platforms = []relax.Platform{relax.PlatformAF2, relax.PlatformCPU, relax.PlatformGPU}

// Fig3 runs the relax-quality comparison on the crystal subset.
func Fig3(env *Env) (*Fig3Result, error) {
	set := casp.NewSet(env.Seed ^ 0xCA5B)
	res := &Fig3Result{
		TMCorr:        map[relax.Platform]float64{},
		SPECCorr:      map[relax.Platform]float64{},
		MeanSPECDelta: map[relax.Platform]float64{},
	}

	type series struct{ before, after []float64 }
	tmSeries := map[relax.Platform]*series{}
	specSeries := map[relax.Platform]*series{}
	for _, p := range fig3Platforms {
		tmSeries[p] = &series{}
		specSeries[p] = &series{}
	}

	// One work item per (crystal target, model): the item runs both relax
	// protocols — the expensive minimizations — on the worker pool,
	// and the statistics are folded serially in submission order so every
	// floating-point accumulation matches the serial run bit for bit.
	type fig3Item struct {
		target       *casp.Target
		model        *casp.Model
		crystalPoses []geom.ResiduePose // hoisted: shared by the target's items
	}
	var items []fig3Item
	for ti := range set.Targets {
		tg := &set.Targets[ti]
		if !tg.HasCrystal {
			continue
		}
		crystalPoses := posesOf(tg.Crystal.CA, tg.Crystal.SC)
		models := set.ModelsOf(tg.ID)
		for mi := range models {
			if models[mi].ModelNum > 2 {
				continue // two models per target keep the run affordable
			}
			items = append(items, fig3Item{target: tg, model: &models[mi], crystalPoses: crystalPoses})
		}
	}
	points, err := exec.Map(env.executor(), items, func(_ int, it fig3Item) (Fig3Point, error) {
		tg, m := it.target, it.model
		crystalPoses := it.crystalPoses
		tmB, err := geom.TMScore(m.CA, tg.Crystal.CA)
		if err != nil {
			return Fig3Point{}, err
		}
		specB, err := geom.SPECSScore(posesOf(m.CA, m.SC), crystalPoses)
		if err != nil {
			return Fig3Point{}, err
		}
		pt := Fig3Point{
			TargetID: tg.ID, ModelNum: m.ModelNum,
			TMBefore: tmB, SPECBefore: specB,
			TMAfter:   map[relax.Platform]float64{},
			SPECAfter: map[relax.Platform]float64{},
		}
		// The single-pass protocol minimizes alike on either platform (the
		// platform only enters ModelTime), so it runs once, and its scores
		// fill both the CPU and the GPU column.
		for _, platform := range []relax.Platform{relax.PlatformAF2, relax.PlatformCPU} {
			opt := relax.DefaultOptions(platform)
			opt.HeavyAtoms = m.HeavyAtoms
			rr, err := relax.Relax(m.CA, m.SC, opt)
			if err != nil {
				return Fig3Point{}, err
			}
			tmA, err := geom.TMScore(rr.CA, tg.Crystal.CA)
			if err != nil {
				return Fig3Point{}, err
			}
			specA, err := geom.SPECSScore(posesOf(rr.CA, rr.SC), crystalPoses)
			if err != nil {
				return Fig3Point{}, err
			}
			pt.TMAfter[platform] = tmA
			pt.SPECAfter[platform] = specA
		}
		pt.TMAfter[relax.PlatformGPU] = pt.TMAfter[relax.PlatformCPU]
		pt.SPECAfter[relax.PlatformGPU] = pt.SPECAfter[relax.PlatformCPU]
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	for _, pt := range points {
		for _, platform := range fig3Platforms {
			tmA, specA := pt.TMAfter[platform], pt.SPECAfter[platform]
			tmSeries[platform].before = append(tmSeries[platform].before, pt.TMBefore)
			tmSeries[platform].after = append(tmSeries[platform].after, tmA)
			specSeries[platform].before = append(specSeries[platform].before, pt.SPECBefore)
			specSeries[platform].after = append(specSeries[platform].after, specA)
			if drop := pt.TMBefore - tmA; drop > res.MaxTMDrop {
				res.MaxTMDrop = drop
			}
			res.MeanSPECDelta[platform] += specA - pt.SPECBefore
		}
		res.Points = append(res.Points, pt)
	}
	for _, platform := range fig3Platforms {
		n := float64(len(tmSeries[platform].before))
		if n > 0 {
			res.MeanSPECDelta[platform] /= n
		}
		if c, err := metrics.Pearson(tmSeries[platform].before, tmSeries[platform].after); err == nil {
			res.TMCorr[platform] = c
		}
		if c, err := metrics.Pearson(specSeries[platform].before, specSeries[platform].after); err == nil {
			res.SPECCorr[platform] = c
		}
	}
	return res, nil
}

func posesOf(ca, sc []geom.Vec3) []geom.ResiduePose {
	out := make([]geom.ResiduePose, len(ca))
	for i := range ca {
		out[i] = geom.ResiduePose{CA: ca[i], SC: sc[i]}
	}
	return out
}

// Render writes the figure report.
func (r *Fig3Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig 3: relaxed vs unrelaxed model quality (%d models, 19 crystal targets)\n", len(r.Points))
	tab := metrics.Table{Header: []string{"Method", "TM corr", "SPECS corr", "mean ΔSPECS", "max TM drop"}}
	for _, p := range fig3Platforms {
		tab.AddRow(p.String(),
			fmt.Sprintf("%.4f", r.TMCorr[p]),
			fmt.Sprintf("%.4f", r.SPECCorr[p]),
			fmt.Sprintf("%+.4f", r.MeanSPECDelta[p]),
			fmt.Sprintf("%.4f", r.MaxTMDrop))
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "paper: strong before/after correlation, no decreases, slight SPECS gains; all methods equivalent")
	return nil
}

// Fig4Point is one model's relaxation time per method.
type Fig4Point struct {
	TargetID   string
	HeavyAtoms int
	Seconds    map[relax.Platform]float64
	AF2Rounds  int
}

// Fig4Result reproduces Fig. 4: relaxation time-to-solution versus system
// size for the three methods, and the speedups relative to the AF2
// original (up to ~14x for the GPU method); T1080's pathological AF2 run is
// reported separately, as in the paper (excluded from the timing plot).
type Fig4Result struct {
	Points []Fig4Point
	// MaxGPUSpeedup across sizes and T1080's AF2 time.
	MaxGPUSpeedup   float64
	MeanGPUSpeedup  float64
	MeanCPUSpeedup  float64
	T1080AF2Hours   float64
	T1080GPUMinutes float64
}

// Fig4 measures the timing curves on the full 160-model set. The AF2
// method's violation-retry rounds come from actually running its protocol;
// the per-round times come from the calibrated platform models.
func Fig4(env *Env) (*Fig4Result, error) {
	set := casp.NewSet(env.Seed ^ 0xCA5B)
	res := &Fig4Result{}
	var gpuSpeedups, cpuSpeedups []float64

	// The AF2-protocol relaxations (the expensive part: violation-retry
	// rounds of real minimization) fan out over the worker pool; the
	// speedup statistics fold serially in submission order.
	var models []*casp.Model
	for mi := range set.Models {
		m := &set.Models[mi]
		if m.ModelNum != 1 && m.TargetID != "T1080" {
			continue // one model per target for the curve; all five for T1080
		}
		models = append(models, m)
	}
	points, err := exec.Map(env.executor(), models, func(_ int, m *casp.Model) (Fig4Point, error) {
		opt := relax.DefaultOptions(relax.PlatformAF2)
		opt.HeavyAtoms = m.HeavyAtoms
		rr, err := relax.Relax(m.CA, m.SC, opt)
		if err != nil {
			return Fig4Point{}, err
		}
		return Fig4Point{
			TargetID:   m.TargetID,
			HeavyAtoms: m.HeavyAtoms,
			AF2Rounds:  rr.Rounds,
			Seconds: map[relax.Platform]float64{
				relax.PlatformAF2: rr.Seconds,
				relax.PlatformCPU: relax.ModelTime(relax.PlatformCPU, m.HeavyAtoms, 1),
				relax.PlatformGPU: relax.ModelTime(relax.PlatformGPU, m.HeavyAtoms, 1),
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, pt := range points {
		res.Points = append(res.Points, pt)

		gpuS := pt.Seconds[relax.PlatformAF2] / pt.Seconds[relax.PlatformGPU]
		cpuS := pt.Seconds[relax.PlatformAF2] / pt.Seconds[relax.PlatformCPU]
		if pt.TargetID == "T1080" {
			if h := pt.Seconds[relax.PlatformAF2] / 3600; h > res.T1080AF2Hours {
				res.T1080AF2Hours = h
				res.T1080GPUMinutes = pt.Seconds[relax.PlatformGPU] / 60
			}
			continue // the outlier is excluded from the speedup stats
		}
		gpuSpeedups = append(gpuSpeedups, gpuS)
		cpuSpeedups = append(cpuSpeedups, cpuS)
		if gpuS > res.MaxGPUSpeedup {
			res.MaxGPUSpeedup = gpuS
		}
	}
	res.MeanGPUSpeedup = metrics.Summarize(gpuSpeedups).Mean
	res.MeanCPUSpeedup = metrics.Summarize(cpuSpeedups).Mean
	return res, nil
}

// Render writes the figure report.
func (r *Fig4Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig 4: relaxation time vs heavy atoms (%d points)\n", len(r.Points))
	fmt.Fprintf(w, "  GPU speedup   mean %.1fx, max %.1fx (paper: up to 14x)\n", r.MeanGPUSpeedup, r.MaxGPUSpeedup)
	fmt.Fprintf(w, "  CPU speedup   mean %.1fx\n", r.MeanCPUSpeedup)
	fmt.Fprintf(w, "  T1080 (AF2)   %.1f h (paper: ~4.5 h); GPU method %.1f min\n", r.T1080AF2Hours, r.T1080GPUMinutes)
	tab := metrics.Table{Header: []string{"Target", "HeavyAtoms", "AF2 s", "CPU s", "GPU s", "AF2 rounds"}}
	for _, p := range r.Points {
		if p.HeavyAtoms < 4000 && p.TargetID != "T1080" {
			continue // print the informative large-system tail only
		}
		tab.AddRow(p.TargetID, p.HeavyAtoms,
			fmt.Sprintf("%.0f", p.Seconds[relax.PlatformAF2]),
			fmt.Sprintf("%.0f", p.Seconds[relax.PlatformCPU]),
			fmt.Sprintf("%.0f", p.Seconds[relax.PlatformGPU]),
			p.AF2Rounds)
	}
	return tab.Render(w)
}
