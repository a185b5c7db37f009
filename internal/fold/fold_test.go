package fold

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/msa"
	"repro/internal/rng"
	"repro/internal/seq"
)

func TestPresetTable(t *testing.T) {
	if ReducedDBs.Ensembles != 1 || ReducedDBs.MaxRecycles != 3 || ReducedDBs.Dynamic {
		t.Error("reduced_dbs preset wrong")
	}
	if CASP14.Ensembles != 8 || CASP14.MaxRecycles != 3 {
		t.Error("casp14 preset wrong (8 ensembles, 3 recycles)")
	}
	if !Genome.Dynamic || Genome.Tol != 0.5 || Genome.MaxRecycles != 20 {
		t.Error("genome preset wrong (dynamic, tol 0.5, max 20)")
	}
	if !Super.Dynamic || Super.Tol != 0.1 {
		t.Error("super preset wrong (dynamic, tol 0.1)")
	}
	if len(AllPresets()) != 4 {
		t.Error("expected 4 presets")
	}
}

func TestRecycleCap(t *testing.T) {
	if Genome.RecycleCap(300) != 20 {
		t.Error("short sequences keep the full cap")
	}
	if got := Genome.RecycleCap(2400); got != 6 {
		t.Errorf("very long sequence cap = %d, want floor 6", got)
	}
	// Monotone non-increasing in length.
	prev := 21
	for _, l := range []int{100, 500, 700, 1000, 1500, 2000, 2499} {
		c := Genome.RecycleCap(l)
		if c > prev {
			t.Errorf("cap increased with length at %d", l)
		}
		if c < 6 {
			t.Errorf("cap %d below floor at length %d", c, l)
		}
		prev = c
	}
	// Fixed presets never reduce.
	if ReducedDBs.RecycleCap(2400) != 3 || CASP14.RecycleCap(2400) != 3 {
		t.Error("fixed presets must keep 3 recycles")
	}
}

func TestTemplateModels(t *testing.T) {
	n := 0
	for m := 0; m < NumModels; m++ {
		if TemplateModels(m) {
			n++
		}
	}
	if n != 2 {
		t.Errorf("%d template models, paper says 2 of 5", n)
	}
}

func TestGenerateTopologyDeterministicAndChainlike(t *testing.T) {
	a := GenerateTopology(5, 120)
	b := GenerateTopology(5, 120)
	if a.Len() != 120 || b.Len() != 120 {
		t.Fatal("wrong length")
	}
	for i := range a.CA {
		if a.CA[i] != b.CA[i] {
			t.Fatal("same-seed topologies differ")
		}
	}
	// Consecutive Cα ~3.8 Å apart.
	for i := 1; i < a.Len(); i++ {
		d := a.CA[i].Dist(a.CA[i-1])
		if d < 1.0 || d > 6.0 {
			t.Errorf("CA step %d = %v Å", i, d)
		}
	}
	// Side chains ~2.4 Å from their Cα.
	for i := range a.SC {
		d := a.SC[i].Dist(a.CA[i])
		if math.Abs(d-2.4) > 0.01 {
			t.Errorf("SC offset %d = %v", i, d)
		}
	}
}

func TestDifferentSeedsGiveDifferentFolds(t *testing.T) {
	a := GenerateTopology(1, 150)
	b := GenerateTopology(2, 150)
	tm, err := geom.TMScore(a.CA, b.CA)
	if err != nil {
		t.Fatal(err)
	}
	if tm > 0.5 {
		t.Errorf("different seeds gave TM=%v (folds too similar)", tm)
	}
	self, err := geom.TMScore(a.CA, a.CA)
	if err != nil {
		t.Fatal(err)
	}
	if self < 0.999 {
		t.Errorf("self TM = %v", self)
	}
}

func TestTopologyIsCompact(t *testing.T) {
	nat := GenerateTopology(9, 200)
	rg := radiusOfGyration(nat.CA)
	// Globular proteins: Rg ≈ 2.2·N^0.38 ≈ 16.6 Å for N=200. A fully
	// extended chain would be >200 Å. Accept a generous band.
	if rg > 60 {
		t.Errorf("Rg = %v Å for 200 residues; chain not compact", rg)
	}
	if rg < 5 {
		t.Errorf("Rg = %v Å; chain collapsed", rg)
	}
}

func TestComposeDomains(t *testing.T) {
	d1 := GenerateTopology(1, 80)
	d2 := GenerateTopology(2, 90)
	multi := ComposeDomains([]*Native{d1, d2}, 7)
	if multi.Len() != 170 {
		t.Fatalf("composed length = %d", multi.Len())
	}
	// Domain centroids must be separated (no interpenetration).
	c1 := geom.Centroid(multi.CA[:80])
	c2 := geom.Centroid(multi.CA[80:])
	if c1.Dist(c2) < 10 {
		t.Errorf("domain centroids %v Å apart; likely interpenetrating", c1.Dist(c2))
	}
	if ComposeDomains(nil, 1).Len() != 0 {
		t.Error("empty composition should be empty")
	}
}

func TestFitLength(t *testing.T) {
	nat := GenerateTopology(3, 100)
	if FitLength(nat, 100, 1).Len() != 100 {
		t.Error("identity fit changed length")
	}
	short := FitLength(nat, 60, 1)
	if short.Len() != 60 {
		t.Error("truncation failed")
	}
	long := FitLength(nat, 140, 1)
	if long.Len() != 140 {
		t.Error("extension failed")
	}
	for i := 101; i < 140; i++ {
		d := long.CA[i].Dist(long.CA[i-1])
		if d < 1 || d > 6 {
			t.Errorf("extended step %d = %v", i, d)
		}
	}
}

func testFeatures(l int, neff float64, templates int) *msa.Features {
	f := &msa.Features{
		Query: seq.Sequence{ID: "q", Residues: stringOfLen(l)},
		Neff:  neff,
		Depth: int(neff) + 1,
	}
	for i := 0; i < templates; i++ {
		f.Templates = append(f.Templates, msa.TemplateHit{ID: "t", Identity: 0.5, Coverage: 0.8})
	}
	return f
}

func stringOfLen(l int) string {
	b := make([]byte, l)
	for i := range b {
		b[i] = seq.Alphabet[i%seq.NumAminoAcids]
	}
	return string(b)
}

// SeededProvider is a NativeProvider that derives the topology seed from
// the target ID.
type SeededProvider struct {
	Seed uint64
}

// NativeOf generates the structure deterministically from the id hash.
func (p *SeededProvider) NativeOf(id string, length int) *Native {
	h := p.Seed
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return GenerateTopology(h, length)
}

func testEngine() *Engine {
	return NewEngine(&SeededProvider{Seed: 99}, 1234)
}

func TestInferDeterministic(t *testing.T) {
	e := testEngine()
	for _, coords := range []bool{false, true} {
		task := Task{ID: "p1", Length: 150, Features: testFeatures(150, 15, 1), Model: 2, Preset: Genome, NodeMemGB: 16, WantCoords: coords}
		a, err := e.Infer(task)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Infer(task)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("inference not deterministic (WantCoords %v):\n%+v\n%+v", coords, a, b)
		}
	}
}

// TestSampleWalk holds the residue loop's domain walk to diff.domain over
// every length from 1 to 3,000 — every multiple of 200, where the domain
// count steps, and every multiple of each length's domLen among them — and
// every sample in both modes: summary (min(L, summaryResidues) samples) and
// coordinates (every residue, so every domain's first residue is met).
func TestSampleWalk(t *testing.T) {
	e := testEngine()
	r := rng.New(5)
	edges := 0
	for length := 1; length <= 3000; length++ {
		diff := e.difficultyOf(Task{ID: "walk", Length: length, Preset: Genome}, r.SplitNamed("difficulty"), r.SplitNamed("model"))
		for _, sampled := range []int{min(length, summaryResidues), length} {
			w := diff.walk(length, sampled)
			for i := 0; i < sampled; i++ {
				res := i * length / sampled
				if res > 0 && res%diff.domLen == 0 {
					edges++
				}
				if got, want := w.at(i), diff.domain(res); got != want {
					t.Fatalf("length %d, %d samples: sample %d (residue %d) walked to domain %d, want %d",
						length, sampled, i, res, got, want)
				}
			}
		}
	}
	if edges == 0 {
		t.Fatal("no sample fell on a domain boundary")
	}
}

func TestInferValidation(t *testing.T) {
	e := testEngine()
	if _, err := e.Infer(Task{ID: "x", Length: 0, Model: 0, Preset: Genome}); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := e.Infer(Task{ID: "x", Length: 10, Model: 7, Preset: Genome}); err == nil {
		t.Error("bad model index accepted")
	}
}

func TestOOMForLongCASP14(t *testing.T) {
	e := testEngine()
	_, err := e.Infer(Task{ID: "big", Length: 1200, Features: testFeatures(1200, 10, 0), Model: 0, Preset: CASP14, NodeMemGB: 16})
	if !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("1200-AA casp14 task should OOM on 16 GB, got %v", err)
	}
	// The same task fits with a single ensemble...
	if _, err := e.Infer(Task{ID: "big", Length: 1200, Features: testFeatures(1200, 10, 0), Model: 0, Preset: Genome, NodeMemGB: 16}); err != nil {
		t.Errorf("genome preset on 1200 AA should fit: %v", err)
	}
	// ...and on a high-memory node even with casp14.
	if _, err := e.Infer(Task{ID: "big", Length: 1200, Features: testFeatures(1200, 10, 0), Model: 0, Preset: CASP14, NodeMemGB: 64}); err != nil {
		t.Errorf("high-memory node should fit casp14: %v", err)
	}
}

func TestDeeperMSAImprovesQuality(t *testing.T) {
	e := testEngine()
	var deepSum, shallowSum float64
	n := 40
	for i := 0; i < n; i++ {
		id := "t" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		deep, err := e.Infer(Task{ID: id, Length: 200, Features: testFeatures(200, 40, 1), Model: 2, Preset: Genome, NodeMemGB: 16})
		if err != nil {
			t.Fatal(err)
		}
		shallow, err := e.Infer(Task{ID: id, Length: 200, Features: testFeatures(200, 1, 0), Model: 2, Preset: Genome, NodeMemGB: 16})
		if err != nil {
			t.Fatal(err)
		}
		deepSum += deep.MeanPLDDT
		shallowSum += shallow.MeanPLDDT
	}
	if deepSum/float64(n) <= shallowSum/float64(n)+5 {
		t.Errorf("deep MSA mean pLDDT %v not clearly above shallow %v",
			deepSum/float64(n), shallowSum/float64(n))
	}
}

func TestMoreRecyclesImproveHardTargets(t *testing.T) {
	e := testEngine()
	// Find a hard target (low Neff to boost the odds) and check that super
	// beats reduced_dbs on it while costing more recycles.
	improved := 0
	checked := 0
	for i := 0; i < 120 && checked < 40; i++ {
		id := "hard" + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10))
		feat := testFeatures(180, 2, 0)
		short, err := e.Infer(Task{ID: id, Length: 180, Features: feat, Model: 3, Preset: ReducedDBs, NodeMemGB: 16})
		if err != nil {
			t.Fatal(err)
		}
		long, err := e.Infer(Task{ID: id, Length: 180, Features: feat, Model: 3, Preset: Super, NodeMemGB: 16})
		if err != nil {
			t.Fatal(err)
		}
		checked++
		if long.PTMS > short.PTMS+0.05 {
			improved++
			if long.Recycles <= 3 {
				t.Errorf("big improvement with only %d recycles?", long.Recycles)
			}
		}
		if long.PTMS < short.PTMS-0.08 {
			t.Errorf("super preset clearly worse than reduced_dbs on %s: %v vs %v",
				id, long.PTMS, short.PTMS)
		}
	}
	if improved == 0 {
		t.Error("no target improved by ≥0.05 pTMS with longer recycles; the Section 4.2 tail is missing")
	}
}

func TestDynamicConvergenceBounds(t *testing.T) {
	e := testEngine()
	for i := 0; i < 30; i++ {
		id := "c" + string(rune('a'+i))
		p, err := e.Infer(Task{ID: id, Length: 120, Features: testFeatures(120, 20, 0), Model: 1, Preset: Genome, NodeMemGB: 16})
		if err != nil {
			t.Fatal(err)
		}
		if p.Recycles < 1 || p.Recycles > 20 {
			t.Errorf("recycles = %d out of bounds", p.Recycles)
		}
	}
}

func TestSuperRecyclesAtLeastGenome(t *testing.T) {
	e := testEngine()
	for i := 0; i < 25; i++ {
		id := "s" + string(rune('a'+i))
		feat := testFeatures(150, 10, 0)
		g, err := e.Infer(Task{ID: id, Length: 150, Features: feat, Model: 0, Preset: Genome, NodeMemGB: 16})
		if err != nil {
			t.Fatal(err)
		}
		s, err := e.Infer(Task{ID: id, Length: 150, Features: feat, Model: 0, Preset: Super, NodeMemGB: 16})
		if err != nil {
			t.Fatal(err)
		}
		if s.Recycles < g.Recycles {
			t.Errorf("%s: super used %d recycles < genome %d (tighter tolerance must recycle more)",
				id, s.Recycles, g.Recycles)
		}
	}
}

func TestCASP14CostsRoughly8x(t *testing.T) {
	e := testEngine()
	feat := testFeatures(200, 10, 0)
	r, err := e.Infer(Task{ID: "c8", Length: 200, Features: feat, Model: 2, Preset: ReducedDBs, NodeMemGB: 64})
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.Infer(Task{ID: "c8", Length: 200, Features: feat, Model: 2, Preset: CASP14, NodeMemGB: 64})
	if err != nil {
		t.Fatal(err)
	}
	ratio := c.GPUSeconds / r.GPUSeconds
	// The paper calls it "approximately eight times"; its own Table 1
	// implies >=10x end to end (>150 min on 91 nodes vs 44 min on 32).
	if ratio < 6 || ratio > 12 {
		t.Errorf("casp14/reduced cost ratio = %v, paper says ~8x (>=10x implied)", ratio)
	}
}

func TestCostGrowsWithLength(t *testing.T) {
	e := testEngine()
	prev := 0.0
	for _, l := range []int{100, 300, 900, 2000} {
		p, err := e.Infer(Task{ID: "len", Length: l, Features: testFeatures(l, 10, 0), Model: 0, Preset: ReducedDBs, NodeMemGB: 1024})
		if err != nil {
			t.Fatal(err)
		}
		if p.GPUSeconds <= prev {
			t.Errorf("cost not increasing at length %d", l)
		}
		prev = p.GPUSeconds
	}
}

func TestInferWithCoords(t *testing.T) {
	e := testEngine()
	p, err := e.Infer(Task{
		ID: "xyz", Length: 90, Features: testFeatures(90, 25, 1),
		Model: 1, Preset: Genome, NodeMemGB: 16, WantCoords: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.CA) != 90 || len(p.SC) != 90 || len(p.PLDDT) != 90 {
		t.Fatalf("coordinate outputs missing: %d/%d/%d", len(p.CA), len(p.SC), len(p.PLDDT))
	}
	// Prediction must resemble the native for a well-constrained target.
	nat := e.Provider.NativeOf("xyz", 90)
	tm, err := geom.TMScore(p.CA, nat.CA)
	if err != nil {
		t.Fatal(err)
	}
	if tm < 0.4 {
		t.Errorf("high-Neff prediction TM to native = %v; surrogate not tracking oracle", tm)
	}
	for _, pl := range p.PLDDT {
		if pl < 0 || pl > 100 {
			t.Errorf("pLDDT out of range: %v", pl)
		}
	}
}

func TestCoordsRequireProvider(t *testing.T) {
	e := NewEngine(nil, 1)
	_, err := e.Infer(Task{ID: "x", Length: 50, Model: 0, Preset: Genome, NodeMemGB: 16, WantCoords: true})
	if err == nil {
		t.Error("WantCoords without provider must fail")
	}
}

func TestRanking(t *testing.T) {
	preds := []*Prediction{
		{PTMS: 0.5, MeanPLDDT: 80},
		nil,
		{PTMS: 0.7, MeanPLDDT: 75},
		{PTMS: 0.6, MeanPLDDT: 90},
	}
	if RankByPTMS(preds) != 2 {
		t.Errorf("RankByPTMS = %d", RankByPTMS(preds))
	}
	if RankByPLDDT(preds) != 3 {
		t.Errorf("RankByPLDDT = %d", RankByPLDDT(preds))
	}
	if RankByPTMS(nil) != -1 {
		t.Error("empty ranking should be -1")
	}
}

// BenchmarkInferTarget times five summary-mode calls per op over 1,024
// targets of 300 residues, on both sides of what a pooled draw record
// depends on. consecutive: one target's five models back to back, as a
// serial worker meets them — each op opens with a miss, since the record
// the pool hands back is the previous target's, and its other four models
// hit. interleaved: four targets take turns model by model, so every call
// finds another target's record and refills it, which is what a target's
// models cost when they never find each other's record.
func BenchmarkInferTarget(b *testing.B) {
	const length, targets, turns = 300, 1024, 4
	feat := testFeatures(length, 15, 1)
	for _, interleaved := range []bool{false, true} {
		var calls []Task
		for g := 0; g < targets; g += turns {
			for k := 0; k < turns*NumModels; k++ {
				target, model := k/NumModels, k%NumModels
				if interleaved {
					target, model = k%turns, k/turns
				}
				calls = append(calls, Task{ID: fmt.Sprintf("bench%d", g+target), Length: length, Features: feat, Model: model, Preset: Genome, NodeMemGB: 16})
			}
		}
		name := "consecutive"
		if interleaved {
			name = "interleaved"
		}
		b.Run(name, func(b *testing.B) {
			e := testEngine()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for m := 0; m < NumModels; m++ {
					if _, err := e.Infer(calls[(i*NumModels+m)%len(calls)]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkInferWithCoords(b *testing.B) {
	e := testEngine()
	feat := testFeatures(300, 15, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Infer(Task{ID: "bench", Length: 300, Features: feat, Model: i % 5, Preset: Genome, NodeMemGB: 16, WantCoords: true}); err != nil {
			b.Fatal(err)
		}
	}
}
