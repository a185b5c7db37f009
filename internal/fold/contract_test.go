package fold

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// plddtUlps is the inference contract's one inexact promise. MeanPLDDT, and
// each PLDDT[i] in coordinate mode, may differ from inferOracle's by at
// most this many ulps; every other field is bit-equal. Infer rounds
// mag^y·(finalErr/PLDDTScale)^y where the oracle rounds
// (mag·finalErr/PLDDTScale)^y. Over every prediction of the four species ×
// four presets × seeds 20220125, 1 and 7 (2,132,625), MeanPLDDT moved in
// 14.6 % by at most 6 ulps and nothing else moved, so the bound keeps a
// margin of 10 ulps. A PLDDT[i] whose estimator noise cancels most of its
// confidence term could stray further in its own ulps; none among this
// test's inputs does.
const plddtUlps = 16

// inferOracle is Infer as it was before the draw record held the field
// magnitudes' powers: one powFixed call per evaluated residue per model,
// and the recycling loop's distogram change summed pair by pair. It never
// takes a pooled draw record, so summary mode draws the sampled magnitudes
// and estimator normals from the target's streams directly, as a refill
// does.
func inferOracle(e *Engine, t Task) *Prediction {
	mem := e.PeakMemGB(t.Preset, t.Length)
	r := rng.New(e.Seed).SplitNamed("infer:" + t.ID)
	modelR := r.SplitNamed(fmt.Sprintf("model:%d", t.Model))
	diff := e.difficultyOf(t, r.SplitNamed("difficulty"), modelR)
	pairR, fieldR, noiseR := r.SplitNamed("pairs"), r.SplitNamed("field"), r.SplitNamed("estimator")

	pairs := make([]float64, distogramPairs)
	for i := range pairs {
		pairs[i] = math.Abs(float64(pairR.ZigguratNormal()*0.5) + 1)
	}
	var field []geom.Vec3
	var mags, plddts []float64
	if t.WantCoords {
		plddts = make([]float64, t.Length)
		field = smoothField(fieldR, t.Length)
		mags = make([]float64, t.Length)
		for i := range field {
			mags[i] = field[i].Norm()
		}
	} else {
		mags = make([]float64, min(t.Length, summaryResidues))
		for i := range mags {
			mags[i] = math.Abs(float64(fieldR.ZigguratNormal()*0.45) + 1)
		}
	}
	noise := make([]float64, len(mags)+1)
	for i := range noise {
		noise[i] = noiseR.ZigguratNormal()
	}

	cap := t.Preset.RecycleCap(t.Length)
	recycles := cap
	converged := false
	if t.Preset.Dynamic {
		prevErr := diff.err(0)
		for rr := 1; rr <= cap; rr++ {
			curErr := diff.err(rr)
			var change float64
			for _, scale := range pairs {
				change += scale * (prevErr - curErr)
			}
			change = change / float64(len(pairs)) * e.Cal.DistogramGain
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
	pred := &Prediction{
		ID: t.ID, Model: t.Model, Length: t.Length,
		Recycles: recycles, Converged: converged,
		GPUSeconds: e.Cal.CostBase + e.Cal.CostScale*
			float64(t.Preset.Ensembles)*(1+0.05*float64(t.Preset.Ensembles-1))*
			float64(recycles+1)*lengthPow.pow(float64(t.Length)),
		PeakMemGB: mem,
	}

	d0 := geom.D0(t.Length)
	sampleN := len(mags)
	shape := newPowFixed(e.Cal.PLDDTShape)
	var sumPLDDT, sumTM float64
	var n70, n90 int
	for i, mag := range mags {
		local := mag * finalErr
		resIdx := i * t.Length / sampleN
		dom := 0
		if diff.domLen > 0 {
			dom = min(resIdx/diff.domLen, len(diff.domOff)-1)
		}
		global := local + diff.domOff[dom]*finalErr

		pl := 100/(1+shape.pow(local/e.Cal.PLDDTScale)) +
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
	if pred.PTMS > 1 {
		pred.PTMS = 1
	} else if pred.PTMS < 0 {
		pred.PTMS = 0
	}

	if t.WantCoords {
		nat := e.Provider.NativeOf(t.ID, t.Length)
		pred.CA = make([]geom.Vec3, t.Length)
		pred.SC = make([]geom.Vec3, t.Length)
		scR := r.SplitNamed("sc")
		for i := 0; i < t.Length; i++ {
			dom := 0
			if diff.domLen > 0 {
				dom = min(i/diff.domLen, len(diff.domOff)-1)
			}
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
	return pred
}

// originProvider puts every native atom at the origin, so a coordinate
// prediction is its displacements alone and no topology is built.
type originProvider struct{}

func (originProvider) NativeOf(_ string, length int) *Native {
	return &Native{CA: make([]geom.Vec3, length), SC: make([]geom.Vec3, length)}
}

// ulpsApart counts the float64 steps between a and b, across zero too.
func ulpsApart(a, b float64) uint64 {
	ordered := func(x float64) int64 {
		bits := math.Float64bits(x)
		if bits>>63 != 0 {
			return -int64(bits &^ (1 << 63))
		}
		return int64(bits)
	}
	d := ordered(a) - ordered(b)
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// TestInferContract holds Infer to inferOracle over lengths 1…2,500 (both
// sides of summaryResidues), every preset and model, three seeds, in
// summary and coordinate mode: every field bit-equal but MeanPLDDT and
// PLDDT[i], which stay within plddtUlps.
func TestInferContract(t *testing.T) {
	lengths, coordEvery := 300, 10
	if testing.Short() {
		lengths, coordEvery = 60, 6
	}
	var worstMean, worstRes uint64
	for _, seed := range []uint64{20220125, 1, 7} {
		e := NewEngine(originProvider{}, seed)
		for i := 0; i < lengths; i++ {
			length := 1 + i*2499/(lengths-1)
			for _, coords := range []bool{false, true} {
				if coords && i%coordEvery != 0 {
					continue
				}
				for _, p := range AllPresets() {
					for m := 0; m < NumModels; m++ {
						task := Task{ID: fmt.Sprintf("K%03d", i), Length: length, Features: testFeatures(length, float64(1+i%30), m%2),
							Model: m, Preset: p, NodeMemGB: 1024, WantCoords: coords}
						got, err := e.Infer(task)
						if err != nil {
							t.Fatal(err)
						}
						want := inferOracle(e, task)
						where := fmt.Sprintf("seed %d %s len %d model %d %s coords=%v", seed, task.ID, length, m, p.Name, coords)
						d := ulpsApart(got.MeanPLDDT, want.MeanPLDDT)
						if d > plddtUlps {
							t.Fatalf("%s: MeanPLDDT %v is %d ulps from the oracle's %v", where, got.MeanPLDDT, d, want.MeanPLDDT)
						}
						worstMean = max(worstMean, d)
						if len(got.PLDDT) != len(want.PLDDT) {
							t.Fatalf("%s: %d per-residue pLDDTs, the oracle has %d", where, len(got.PLDDT), len(want.PLDDT))
						}
						for k := range got.PLDDT {
							d := ulpsApart(got.PLDDT[k], want.PLDDT[k])
							if d > plddtUlps {
								t.Fatalf("%s: PLDDT[%d] %v is %d ulps from the oracle's %v", where, k, got.PLDDT[k], d, want.PLDDT[k])
							}
							worstRes = max(worstRes, d)
						}
						rest := got
						rest.MeanPLDDT, rest.PLDDT = want.MeanPLDDT, want.PLDDT
						if !reflect.DeepEqual(&rest, want) {
							t.Fatalf("%s: a field other than pLDDT differs from the oracle:\n%+v\n%+v", where, got, want)
						}
					}
				}
			}
		}
	}
	t.Logf("widest gaps: MeanPLDDT %d ulps, PLDDT[i] %d ulps (bound %d)", worstMean, worstRes, plddtUlps)
}
