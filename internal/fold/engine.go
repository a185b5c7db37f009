package fold

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/fmath"
	"repro/internal/geom"
	"repro/internal/msa"
	"repro/internal/rng"
)

// ErrOutOfMemory is returned when a task's estimated peak memory exceeds
// the memory available to its worker, the failure mode that cost the
// casp14 preset its 8 longest sequences in Table 1.
var ErrOutOfMemory = errors.New("fold: inference out of memory")

// Calibration holds the tunable constants of the quality/cost model. The
// defaults are calibrated so the Table 1 and Section 4.3.1 statistics land
// near the paper's values; they are exported so ablation benches can probe
// sensitivity.
type Calibration struct {
	// Quality model.
	ErrBase      float64 // irreducible mean displacement (Å)
	ErrNeff      float64 // MSA-depth-dependent error: ErrNeff/(1+NeffScale*Neff)
	NeffScale    float64
	ErrLen       float64 // per-residue length penalty (Å per 1000 AA)
	EnsembleGain float64 // error multiplier per extra ensemble batch (casp14)
	TemplateGain float64 // error multiplier for template models with hits
	ModelJitter  float64 // stddev of per-model error multiplier
	PLDDTScale   float64 // displacement (Å) at which pLDDT crosses 50
	PLDDTShape   float64 // kernel exponent
	PLDDTNoise   float64 // confidence-estimator noise (pLDDT points)
	PTMSNoise    float64 // pTMS estimator noise

	// Difficulty mixture (Section 4.2's improvement tail).
	FracMedium, FracHard float64

	// DistogramGain converts the error-schedule decrement into the
	// distogram-change units the presets' tolerances (0.5/0.1) compare
	// against.
	DistogramGain float64

	// Cost model: GPUSeconds = CostBase + CostScale·E·(R+1)·L^1.5.
	CostBase  float64
	CostScale float64

	// Memory model: PeakMemGB = MemBase + MemScale·E·(L/1000)².
	MemBase  float64
	MemScale float64
}

// DefaultCalibration returns the constants used for the paper
// reproduction benches.
func DefaultCalibration() Calibration {
	return Calibration{
		ErrBase:       0.85,
		ErrNeff:       4.6,
		NeffScale:     0.55,
		ErrLen:        0.45,
		EnsembleGain:  0.99,
		TemplateGain:  0.94,
		ModelJitter:   0.07,
		PLDDTScale:    5.0,
		PLDDTShape:    1.8,
		PLDDTNoise:    1.5,
		PTMSNoise:     0.012,
		FracMedium:    0.06,
		FracHard:      0.025,
		DistogramGain: 2.0,
		CostBase:      2.0,
		CostScale:     0.0115,
		MemBase:       0.7,
		MemScale:      4.6,
	}
}

// Engine runs surrogate AlphaFold inference. It is safe for concurrent use:
// per-task randomness is derived from (Seed, target ID, model), and the only
// state Infer touches is a pool of records of what a target's five models
// share, each refilled in place for the target that takes it: a reused
// record and a refilled one give bit-identical predictions. An Engine must
// not be copied.
type Engine struct {
	Provider NativeProvider
	Seed     uint64
	Cal      Calibration

	draws sync.Pool // of *targetDraws
}

// NewEngine builds an engine with default calibration.
func NewEngine(p NativeProvider, seed uint64) *Engine {
	return &Engine{Provider: p, Seed: seed, Cal: DefaultCalibration()}
}

// Task is one inference work unit: one (target, model) pair, the task
// granularity the paper's Dask deployment uses for load balance.
type Task struct {
	ID       string
	Length   int
	Features *msa.Features // may be nil (no-MSA fallback, heavily penalized)
	Model    int           // 0..NumModels-1
	Preset   Preset
	// NodeMemGB is the memory available to the worker (16 for a standard
	// Summit GPU's HBM slice; effectively unbounded on high-memory nodes).
	NodeMemGB float64
	// WantCoords materializes final coordinates and per-residue pLDDT.
	// Campaign-scale benches leave it false and use the summary statistics,
	// which are computed from the same deterministic model.
	WantCoords bool
}

// Prediction is the output of one inference task.
type Prediction struct {
	ID        string
	Model     int
	Length    int
	Recycles  int
	Converged bool // dynamic presets: stopped by tolerance rather than cap
	MeanPLDDT float64
	PTMS      float64
	// FracAbove70 and FracAbove90 are the fractions of (sampled) residues
	// with pLDDT above 70 and 90, the thresholds Section 4.3.1 reports
	// coverage against.
	FracAbove70 float64
	FracAbove90 float64
	// CA/SC/PLDDT are populated only when Task.WantCoords was set.
	CA    []geom.Vec3
	SC    []geom.Vec3
	PLDDT []float64
	// Cost accounting for the cluster simulator.
	GPUSeconds float64
	PeakMemGB  float64
}

// maxDomains caps the rigid domains of the global-error model.
const maxDomains = 6

// difficulty is the per-(target, model) latent quality model.
type difficulty struct {
	errInf float64             // asymptotic mean displacement
	gap    float64             // extra displacement at recycle 0
	tau    float64             // recycle decay constant
	domOff [maxDomains]float64 // per-domain global displacement multipliers
	nDom   int                 // domains in use: domOff[:nDom]
	domLen int                 // residues per domain (last domain takes the rest)
}

// domain returns the domain of residue i (the last one takes the rest).
func (d *difficulty) domain(i int) int {
	if d.domLen <= 0 {
		return 0
	}
	return min(i/d.domLen, d.nDom-1)
}

// sampleWalk yields, in sample order, the domain of the residue each sample
// of Infer's residue loop stands for, i·length/sampled: i itself when every
// residue is sampled, else i·length/summaryResidues, a division by a
// constant. Those residues, and so their domains, never decrease, so the
// walk steps past each domain's end instead of dividing. For a difficulty
// from difficultyOf, at(i) is domain(i·length/sampled).
type sampleWalk struct {
	length, domLen, dom, last, end int  // end: the first residue past dom
	scaled                         bool // sampled < length: sampled is summaryResidues
}

func (d *difficulty) walk(length, sampled int) sampleWalk {
	return sampleWalk{length: length, domLen: d.domLen, last: d.nDom - 1, end: d.domLen, scaled: sampled < length}
}

func (w *sampleWalk) at(i int) int {
	r := i
	if w.scaled {
		r = i * w.length / summaryResidues
	}
	for r >= w.end && w.dom < w.last {
		w.dom++
		w.end += w.domLen
	}
	return w.dom
}

// modelStreams names each model's stream, so a task derives it without
// formatting a string.
var modelStreams = [NumModels]string{"model:0", "model:1", "model:2", "model:3", "model:4"}

// err returns the expected mean displacement after r recycles.
func (d *difficulty) err(r int) float64 {
	return d.errInf + float64(d.gap*fmath.Exp(-float64(r)/d.tau))
}

// PeakMemGB estimates inference memory for a preset and length.
func (e *Engine) PeakMemGB(p Preset, length int) float64 {
	l := float64(length) / 1000
	return e.Cal.MemBase + e.Cal.MemScale*float64(p.Ensembles)*l*l
}

// Infer runs one task. The error is ErrOutOfMemory when the task cannot
// fit; callers reroute such tasks to high-memory nodes as the paper did.
// The prediction is returned by value: in summary mode it holds no
// per-residue slices, and a call allocates nothing once the engine's pool
// holds a draw record (for a target ID of up to 26 bytes; a longer one costs
// one short string, its stream label).
func (e *Engine) Infer(t Task) (Prediction, error) {
	if t.Length <= 0 {
		return Prediction{}, fmt.Errorf("fold: task %s has no length", t.ID)
	}
	if t.Model < 0 || t.Model >= NumModels {
		return Prediction{}, fmt.Errorf("fold: task %s model %d out of range", t.ID, t.Model)
	}
	mem := e.PeakMemGB(t.Preset, t.Length)
	if t.NodeMemGB > 0 && mem > t.NodeMemGB {
		return Prediction{}, fmt.Errorf("%w: %s needs %.1f GB, node has %.1f GB",
			ErrOutOfMemory, t.ID, mem, t.NodeMemGB)
	}

	seed := e.Seed
	r := rng.New(seed).SplitNamed("infer:" + t.ID)
	modelR := r.SplitNamed(modelStreams[t.Model])
	diff := e.difficultyOf(t, r.SplitNamed("difficulty"), modelR)
	// Only the model stream depends on t.Model; these three are the same
	// for every model of the target, and so are their draws. Every normal
	// they give is drawn by rng's ziggurat sampler; the model and "sc"
	// streams keep the polar NormFloat64.
	pairR, fieldR, noiseR := r.SplitNamed("pairs"), r.SplitNamed("field"), r.SplitNamed("estimator")

	// Quality inputs: the sum of the pairs' sensitivities to the error
	// field, the per-residue field magnitudes with their powers
	// mag^PLDDTShape, and the estimator noise. Summary mode takes the
	// sampled ones its target's models share from a pooled draw record;
	// WantCoords draws the whole smoothed field and one noise value per
	// residue from the same streams instead, and leaves the pool alone.
	var pairSum float64
	var mags, magPows, noise, plddts []float64
	var field []geom.Vec3
	var draws *targetDraws
	if t.WantCoords {
		plddts = make([]float64, t.Length)
		pairSum = drawPairSum(pairR)
		field = smoothField(fieldR, t.Length)
		mags = make([]float64, 2*t.Length)
		mags, magPows = mags[:t.Length], mags[t.Length:]
		for i := range field {
			mags[i] = field[i].Norm()
		}
		powAll(magPows, mags, e.Cal.PLDDTShape)
		noise = make([]float64, t.Length+1)
		for i := range noise {
			noise[i] = noiseR.ZigguratNormal()
		}
	} else {
		draws = e.drawsOf(seed, t, pairR, fieldR, noiseR)
		pairSum, mags, magPows, noise = draws.pairSum, draws.fieldMags(), draws.magPows(), draws.estimatorNormals()
	}

	// Recycling loop with distogram convergence, evaluated on a fixed
	// deterministic sample of residue pairs (the distogram proxy).
	cap := t.Preset.RecycleCap(t.Length)
	recycles := cap
	converged := false
	if t.Preset.Dynamic {
		prevErr := diff.err(0)
		for rr := 1; rr <= cap; rr++ {
			curErr := diff.err(rr)
			// Mean absolute pairwise-distance change across the sampled
			// distogram between consecutive recycles: every pair moves by
			// its scale times the error decrement.
			change := pairSum * (prevErr - curErr) / distogramPairs * e.Cal.DistogramGain
			prevErr = curErr
			if rr >= t.Preset.MinRecycles && change < t.Preset.Tol {
				recycles = rr
				converged = true
				break
			}
		}
	} else {
		recycles = t.Preset.MaxRecycles
	}

	finalErr := diff.err(recycles)

	pred := Prediction{
		ID: t.ID, Model: t.Model, Length: t.Length,
		Recycles: recycles, Converged: converged,
		GPUSeconds: e.Cal.CostBase + e.Cal.CostScale*
			float64(t.Preset.Ensembles)*(1+0.05*float64(t.Preset.Ensembles-1))*
			float64(recycles+1)*lengthPow.pow(float64(t.Length)),
		PeakMemGB: mem,
	}

	// Quality: sample (or fully materialize) the per-residue displacement
	// field. pLDDT sees only local displacement; pTMS additionally sees the
	// per-domain rigid offsets, which is what separates the local and
	// global metrics for multi-domain proteins, as the paper discusses.
	d0 := geom.D0(t.Length)
	sampleN := len(mags)
	// The kernel's power (mag·finalErr/PLDDTScale)^PLDDTShape factors into
	// the residue's mag^PLDDTShape and this one power per model.
	errPow := newPowFixed(e.Cal.PLDDTShape).pow(finalErr / e.Cal.PLDDTScale)

	var sumPLDDT, sumTM float64
	var n70, n90 int
	walk := diff.walk(t.Length, sampleN)
	for i, mag := range mags {
		local := mag * finalErr
		dom := walk.at(i)
		global := local + diff.domOff[dom]*finalErr

		// The conversion keeps the product from fusing with the addition,
		// so every architecture rounds it the same way.
		pl := 100/(1+float64(magPows[i]*errPow)) +
			noise[i]*e.Cal.PLDDTNoise
		if pl < 0 {
			pl = 0
		} else if pl > 100 {
			pl = 100
		}
		sumPLDDT += pl
		if pl > 70 {
			n70++
		}
		if pl > 90 {
			n90++
		}
		if plddts != nil {
			plddts[i] = pl
		}
		sumTM += 1 / (1 + (global/d0)*(global/d0))
	}
	pred.MeanPLDDT = sumPLDDT / float64(sampleN)
	pred.FracAbove70 = float64(n70) / float64(sampleN)
	pred.FracAbove90 = float64(n90) / float64(sampleN)
	pred.PTMS = sumTM/float64(sampleN) + noise[sampleN]*e.Cal.PTMSNoise
	if draws != nil { // the residue loop is done with it
		e.draws.Put(draws)
	}
	if pred.PTMS > 1 {
		pred.PTMS = 1
	} else if pred.PTMS < 0 {
		pred.PTMS = 0
	}

	if t.WantCoords {
		if e.Provider == nil {
			return Prediction{}, fmt.Errorf("fold: task %s wants coordinates but engine has no NativeProvider", t.ID)
		}
		nat := e.Provider.NativeOf(t.ID, t.Length)
		if nat.Len() != t.Length {
			return Prediction{}, fmt.Errorf("fold: provider returned %d residues for %s (want %d)",
				nat.Len(), t.ID, t.Length)
		}
		pred.CA = make([]geom.Vec3, t.Length)
		pred.SC = make([]geom.Vec3, t.Length)
		scR := r.SplitNamed("sc")
		for i := 0; i < t.Length; i++ {
			dom := diff.domain(i)
			// Domain offset displaces the whole domain coherently along a
			// per-domain direction; local field displaces per residue.
			disp := field[i].Scale(finalErr).
				Add(diff.domDir(dom).Scale(diff.domOff[dom] * finalErr))
			pred.CA[i] = nat.CA[i].Add(disp)
			scNoise := geom.Vec3{
				X: scR.NormFloat64(), Y: scR.NormFloat64(), Z: scR.NormFloat64(),
			}.Scale(0.25 * finalErr)
			pred.SC[i] = nat.SC[i].Add(disp).Add(scNoise)
		}
		pred.PLDDT = plddts
	}
	return pred, nil
}

// domDir returns a deterministic unit direction for a domain's rigid
// offset.
func (d *difficulty) domDir(dom int) geom.Vec3 {
	r := rng.New(uint64(dom)*0x9e37 + 17)
	return geom.Vec3{X: r.NormFloat64(), Y: r.NormFloat64(), Z: r.NormFloat64()}.Unit()
}

// difficultyOf derives the latent difficulty of a (target, model) pair from
// the MSA features and deterministic per-target randomness, drawn from its
// own copies of the two streams.
func (e *Engine) difficultyOf(t Task, targetR, modelR rng.Source) difficulty {
	neff := 8.0
	hasTemplates := false
	if t.Features != nil {
		neff = t.Features.Neff
		hasTemplates = len(t.Features.Templates) > 0
	}
	d := difficulty{}
	d.errInf = e.Cal.ErrBase +
		e.Cal.ErrNeff/(1+e.Cal.NeffScale*neff) +
		e.Cal.ErrLen*float64(t.Length)/1000

	// Difficulty class mixture: most targets converge quickly; a medium
	// class benefits from ~5-8 recycles; a small hard class keeps improving
	// to the 20-recycle cap (the Section 4.2 tail: ~5% of targets provide
	// ~45% of the super-preset improvement). Shallow MSAs shift mass toward
	// the harder classes, which is what makes the plant proteome both lower
	// quality and more recycle-hungry than the prokaryotes (Section 4.3.1).
	boost := 2.2 / (1 + 0.12*neff)
	if boost < 0.5 {
		boost = 0.5
	} else if boost > 2.8 {
		boost = 2.8
	}
	fracHard := e.Cal.FracHard * boost
	fracMedium := e.Cal.FracMedium * boost
	u := targetR.Float64()
	switch {
	case u < fracHard:
		d.tau = 5 + 5*targetR.Float64()
		d.gap = 3 + 4*targetR.Float64()
	case u < fracHard+fracMedium:
		d.tau = 2 + 2*targetR.Float64()
		d.gap = 2 + 2*targetR.Float64()
	default:
		d.tau = 0.5 + 0.5*targetR.Float64()
		d.gap = 1.0 + 1.2*targetR.Float64()
	}

	// Per-model variation plus the template advantage for models 0 and 1.
	mult := 1 + e.Cal.ModelJitter*modelR.NormFloat64()
	if mult < 0.8 {
		mult = 0.8
	}
	if TemplateModels(t.Model) && hasTemplates {
		mult *= e.Cal.TemplateGain
	}
	if t.Preset.Ensembles > 1 {
		mult *= e.Cal.EnsembleGain
	}
	d.errInf *= mult
	d.gap *= mult

	// Domain decomposition for the global-error model: 1 + L/200 rigid
	// domains (integer division), at most maxDomains.
	d.nDom = min(1+t.Length/200, maxDomains)
	d.domLen = (t.Length + d.nDom - 1) / d.nDom
	// Domain 0 is the anchor that defines the frame: its offset stays 0.
	for i := 1; i < d.nDom; i++ {
		d.domOff[i] = 1.4 + 3.7*targetR.Float64()
	}
	return d
}

// smoothField generates a per-residue displacement field with unit mean
// magnitude, smoothed along the chain so displacement is spatially
// correlated the way real model error is. It draws from its own copy of r,
// through the ziggurat sampler.
func smoothField(r rng.Source, n int) []geom.Vec3 {
	raw := make([]geom.Vec3, n)
	for i := range raw {
		raw[i] = geom.Vec3{X: r.ZigguratNormal(), Y: r.ZigguratNormal(), Z: r.ZigguratNormal()}
	}
	const w = 3 // smoothing half-window
	out := make([]geom.Vec3, n)
	var meanNorm float64
	for i := range out {
		var acc geom.Vec3
		cnt := 0
		for j := i - w; j <= i+w; j++ {
			if j >= 0 && j < n {
				acc = acc.Add(raw[j])
				cnt++
			}
		}
		out[i] = acc.Scale(1 / float64(cnt))
		meanNorm += out[i].Norm()
	}
	meanNorm /= float64(n)
	if meanNorm > 0 {
		for i := range out {
			out[i] = out[i].Scale(1 / meanNorm)
		}
	}
	return out
}

// RankByPTMS returns the index of the best prediction by pTMS, the ranking
// the paper uses to pick the top model.
func RankByPTMS(preds []*Prediction) int {
	best := -1
	for i, p := range preds {
		if p == nil {
			continue
		}
		if best < 0 || p.PTMS > preds[best].PTMS {
			best = i
		}
	}
	return best
}

// RankByPLDDT returns the index of the best prediction by mean pLDDT.
func RankByPLDDT(preds []*Prediction) int {
	best := -1
	for i, p := range preds {
		if p == nil {
			continue
		}
		if best < 0 || p.MeanPLDDT > preds[best].MeanPLDDT {
			best = i
		}
	}
	return best
}
