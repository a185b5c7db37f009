package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/fold"
	"repro/internal/fsim"
	"repro/internal/geom"
	"repro/internal/msa"
	"repro/internal/proteome"
	"repro/internal/relax"
	"repro/internal/rng"
	"repro/internal/seq"
	"repro/internal/seqdb"
)

const universeSeed = 77

func smallSpecies(n int) proteome.Species {
	return proteome.Species{
		Name: "test species", Code: "TST", Kingdom: proteome.Prokaryote,
		NumProteins: n, LenShape: 2.2, LenScale: 100,
		MinLen: 30, MaxLen: 1500, HypotheticalFrac: 0.2,
	}
}

func testSetup(t *testing.T, n int) (*proteome.Universe, *proteome.Proteome, *GroundTruth, *fold.Engine) {
	t.Helper()
	u := proteome.NewUniverse(universeSeed, 32, 60, 160)
	p := proteome.Generate(smallSpecies(n), u, 5)
	gt := NewGroundTruth(universeSeed)
	gt.Register(p)
	engine := fold.NewEngine(gt, 99)
	return u, p, gt, engine
}

func TestGroundTruthNativeShape(t *testing.T) {
	_, p, gt, _ := testSetup(t, 30)
	for _, pr := range p.Proteins[:10] {
		nat := gt.NativeOf(pr.Seq.ID, pr.Seq.Len())
		if nat.Len() != pr.Seq.Len() {
			t.Fatalf("%s native length %d, want %d", pr.Seq.ID, nat.Len(), pr.Seq.Len())
		}
	}
	// Unknown IDs still produce a structure (fallback path).
	if gt.NativeOf("UNKNOWN_1", 80).Len() != 80 {
		t.Error("fallback native wrong length")
	}
}

func TestGroundTruthFamilyConservation(t *testing.T) {
	// Two single-domain proteins of the same family must share their fold;
	// different families must not. This is the property the Section 4.6
	// analysis rests on.
	u, _, _, _ := testSetup(t, 5)
	gt := NewGroundTruth(universeSeed)
	mk := func(id string, fam int, l int) proteome.Protein {
		r := rng.New(uint64(l))
		return proteome.Protein{
			Seq:      seq.Sequence{ID: id, Residues: backgroundSeq(r, l)},
			Families: []int{fam},
		}
	}
	a := mk("A_1", 3, 100)
	b := mk("B_1", 3, 105)
	c := mk("C_1", 9, 100)
	gt.Register(&proteome.Proteome{Proteins: []proteome.Protein{a, b, c}})
	_ = u

	natA := gt.NativeOf("A_1", 100)
	natB := gt.NativeOf("B_1", 105)
	natC := gt.NativeOf("C_1", 100)
	tmSame, err := geom.TMScore(natB.CA[:100], natA.CA)
	if err != nil {
		t.Fatal(err)
	}
	tmDiff, err := geom.TMScore(natC.CA, natA.CA)
	if err != nil {
		t.Fatal(err)
	}
	if tmSame < 0.6 {
		t.Errorf("same-family folds TM = %v, want ≥ 0.6", tmSame)
	}
	if tmDiff > 0.45 {
		t.Errorf("different-family folds TM = %v, want < 0.45", tmDiff)
	}
}

func TestFastFeatureGenBehaviour(t *testing.T) {
	_, p, _, _ := testSetup(t, 120)
	gen := DefaultFastFeatureGen(1)
	var lowDivNeff, highDivNeff []float64
	for _, pr := range p.Proteins {
		f, err := gen.Features(pr)
		if err != nil {
			t.Fatal(err)
		}
		if f.Depth < 1 || f.Neff < 1 {
			t.Fatalf("%s: depth %d neff %v", pr.Seq.ID, f.Depth, f.Neff)
		}
		if pr.Divergence < 0.25 {
			lowDivNeff = append(lowDivNeff, f.Neff)
		}
		if pr.Divergence > 0.6 {
			highDivNeff = append(highDivNeff, f.Neff)
		}
	}
	if len(lowDivNeff) == 0 || len(highDivNeff) == 0 {
		t.Fatal("test proteome lacks divergence spread")
	}
	if mean(lowDivNeff) <= mean(highDivNeff) {
		t.Errorf("low-divergence Neff %v not above high-divergence %v",
			mean(lowDivNeff), mean(highDivNeff))
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestFastMatchesRealFeatureGen(t *testing.T) {
	// Validation of the campaign-scale surrogate: on a shared sample, the
	// fast generator's Neff must correlate with the real search pipeline's
	// Neff (rank behaviour preserved: close homolog families rich, diverged
	// hypotheticals poor).
	u, p, _, _ := testSetup(t, 40)
	libs := map[string]*seqdb.Library{
		"uniref90": seqdb.Build(u, seqdb.BuildSpec{
			Name: "uniref90", EntriesPerFamily: 20,
			MinDivergence: 0.05, MaxDivergence: 0.6, DuplicateFrac: 0.1,
		}, universeSeed),
		"mgnify": seqdb.Build(u, seqdb.BuildSpec{
			Name: "mgnify", EntriesPerFamily: 30,
			MinDivergence: 0.1, MaxDivergence: 0.8, DuplicateFrac: 0.5,
		}, universeSeed+2),
	}
	real := NewRealFeatureGen(libs, msa.DefaultSearchConfig())
	fast := DefaultFastFeatureGen(universeSeed)

	var realN, fastN []float64
	for _, pr := range p.Proteins {
		if pr.Seq.Len() > 400 {
			continue // keep the real search affordable in tests
		}
		rf, err := real.Features(pr)
		if err != nil {
			t.Fatal(err)
		}
		ff, err := fast.Features(pr)
		if err != nil {
			t.Fatal(err)
		}
		realN = append(realN, rf.Neff)
		fastN = append(fastN, ff.Neff)
	}
	if len(realN) < 10 {
		t.Fatal("too few comparable proteins")
	}
	corr := pearson(realN, fastN)
	if corr < 0.4 {
		t.Errorf("fast-vs-real Neff correlation = %v; surrogate drifted from the real pipeline", corr)
	}
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, syy, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		syy += ys[i] * ys[i]
		sxy += xs[i] * ys[i]
	}
	cov := sxy/n - sx/n*sy/n
	vx := sxx/n - sx/n*sx/n
	vy := syy/n - sy/n*sy/n
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

func TestFeatureStage(t *testing.T) {
	_, p, _, _ := testSetup(t, 60)
	cfg := DefaultConfig()
	rep, err := FeatureStage(p.Proteins, DefaultFastFeatureGen(1), fsim.DefaultFilesystem(), ReducedDatabase(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 60 || len(rep.Features) != 60 {
		t.Errorf("jobs %d features %d", rep.Jobs, len(rep.Features))
	}
	if rep.WalltimeSec <= 0 || rep.NodeHours <= 0 {
		t.Errorf("walltime %v node-hours %v", rep.WalltimeSec, rep.NodeHours)
	}
}

func TestInferenceStageCompletes(t *testing.T) {
	_, p, _, engine := testSetup(t, 50)
	cfg := DefaultConfig()
	feat, err := FeatureStage(p.Proteins, DefaultFastFeatureGen(1), fsim.DefaultFilesystem(), ReducedDatabase(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := InferenceStage(engine, p.Proteins, feat.Features, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 50 || rep.OOMDropped != 0 {
		t.Errorf("completed %d dropped %d", rep.Completed, rep.OOMDropped)
	}
	for _, tr := range rep.Targets {
		if tr.Best == nil {
			t.Fatalf("%s has no best model", tr.ID)
		}
		if len(tr.All) != fold.NumModels {
			t.Errorf("%s has %d models", tr.ID, len(tr.All))
		}
		// Best must have the max pTMS.
		for _, pr := range tr.All {
			if pr.PTMS > tr.Best.PTMS {
				t.Errorf("%s: ranking violated", tr.ID)
			}
		}
	}
	if rep.NodeHours <= 0 {
		t.Error("no node hours charged")
	}
}

// TestInferenceStageTargetOnOneWorker: on a traced pool at every width, all
// five X/mN tasks of a target run on one WorkerID, in both the standard and
// the high-memory wave (a casp14 target too long for a standard GPU runs
// its five models twice, once per wave, each batch with its own enqueue
// stamp).
func TestInferenceStageTargetOnOneWorker(t *testing.T) {
	_, p, _, engine := testSetup(t, 40)
	proteins := p.Proteins
	r := rng.New(4)
	for i := 0; i < 3; i++ {
		proteins = append(proteins, proteome.Protein{
			Seq:        seq.Sequence{ID: fmt.Sprintf("LONG_%d", i), Residues: backgroundSeq(r, 900+40*i)},
			Divergence: 0.3,
		})
	}
	cfg := DefaultConfig()
	cfg.Preset = fold.CASP14
	feat, err := FeatureStage(proteins, DefaultFastFeatureGen(1), fsim.DefaultFilesystem(), ReducedDatabase(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		pool := exec.NewPool(workers)
		trace := &exec.Trace{}
		pool.SetTrace(trace)
		cfg.Executor = pool
		if _, err := InferenceStage(engine, proteins, feat.Features, cfg); err != nil {
			t.Fatal(err)
		}
		type unit struct {
			wave   int64
			target string
		}
		placed := map[unit]string{}
		tasks := map[unit]int{}
		waves := map[int64]bool{}
		for _, row := range trace.Rows() {
			target, _, ok := strings.Cut(row.TaskID, "/m")
			if !ok {
				t.Fatalf("task ID %q is not X/mN", row.TaskID)
			}
			u := unit{row.Enqueue.UnixNano(), target}
			waves[u.wave] = true
			if w, ok := placed[u]; ok && w != row.WorkerID {
				t.Fatalf("workers=%d: %s ran on %s and %s in one wave", workers, target, w, row.WorkerID)
			}
			placed[u] = row.WorkerID
			tasks[u]++
		}
		if len(waves) != 2 {
			t.Fatalf("workers=%d: %d waves traced, want the standard and the high-memory one", workers, len(waves))
		}
		for u, n := range tasks {
			if n != fold.NumModels {
				t.Fatalf("workers=%d: %s has %d tasks in one wave, want %d", workers, u.target, n, fold.NumModels)
			}
		}
	}
}

func TestInferenceOOMRouting(t *testing.T) {
	// casp14 on long sequences: without high-mem nodes targets drop; with
	// them, they complete on the high-memory wave.
	u := proteome.NewUniverse(universeSeed, 8, 60, 160)
	gt := NewGroundTruth(universeSeed)
	var longProts []proteome.Protein
	r := rng.New(4)
	for i := 0; i < 6; i++ {
		pr := proteome.Protein{
			Seq:        seq.Sequence{ID: "LONG_" + string(rune('A'+i)), Residues: backgroundSeq(r, 900+40*i)},
			Families:   []int{i % u.NumFamilies()},
			Divergence: 0.3,
		}
		longProts = append(longProts, pr)
	}
	gt.Register(&proteome.Proteome{Proteins: longProts})
	engine := fold.NewEngine(gt, 99)
	gen := DefaultFastFeatureGen(1)
	cfg := DefaultConfig()
	cfg.Preset = fold.CASP14
	feat, err := FeatureStage(longProts, gen, fsim.DefaultFilesystem(), ReducedDatabase(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.HighMemNodes = 0
	rep, err := InferenceStage(engine, longProts, feat.Features, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OOMDropped != 6 {
		t.Errorf("without high-mem: dropped %d of 6 long casp14 targets", rep.OOMDropped)
	}

	cfg.HighMemNodes = 2
	rep2, err := InferenceStage(engine, longProts, feat.Features, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Completed != 6 {
		t.Errorf("with high-mem: completed %d of 6", rep2.Completed)
	}
	for _, tr := range rep2.Targets {
		if !tr.OnHighMem {
			t.Errorf("%s not marked as high-mem", tr.ID)
		}
	}
	if rep2.HighMemSim == nil {
		t.Error("high-mem wave missing from report")
	}
}

func TestRelaxStage(t *testing.T) {
	_, p, _, engine := testSetup(t, 40)
	cfg := DefaultConfig()
	feat, err := FeatureStage(p.Proteins, DefaultFastFeatureGen(1), fsim.DefaultFilesystem(), ReducedDatabase(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := InferenceStage(engine, p.Proteins, feat.Features, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := RelaxStage(inf.Targets, cfg, relax.PlatformGPU)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Structures != 40 {
		t.Errorf("relaxed %d structures", rel.Structures)
	}
	relCPU, err := RelaxStage(inf.Targets, cfg, relax.PlatformCPU)
	if err != nil {
		t.Fatal(err)
	}
	if relCPU.WalltimeSec <= rel.WalltimeSec {
		t.Errorf("CPU relax walltime %v not above GPU %v", relCPU.WalltimeSec, rel.WalltimeSec)
	}
}

func TestRunCampaign(t *testing.T) {
	_, p, _, engine := testSetup(t, 40)
	cfg := DefaultConfig()
	rep, err := RunCampaign(engine, DefaultFastFeatureGen(1), p.Proteins, fsim.DefaultFilesystem(), ReducedDatabase(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ledger.Total("summit") <= 0 || rep.Ledger.Total("andes") <= 0 {
		t.Error("ledger not charged")
	}
	if rep.Inference.Completed != 40 {
		t.Errorf("campaign completed %d", rep.Inference.Completed)
	}
	if rep.Relax.Structures != 40 {
		t.Errorf("campaign relaxed %d", rep.Relax.Structures)
	}
}

func TestConfigValidationPaths(t *testing.T) {
	_, p, _, engine := testSetup(t, 5)
	cfg := DefaultConfig()
	cfg.AndesNodes = 0
	if _, err := FeatureStage(p.Proteins, DefaultFastFeatureGen(1), fsim.DefaultFilesystem(), ReducedDatabase(), cfg); err == nil {
		t.Error("zero Andes nodes accepted")
	}
	cfg = DefaultConfig()
	cfg.SummitNodes = 0
	if _, err := InferenceStage(engine, p.Proteins, nil, cfg); err == nil {
		t.Error("zero Summit nodes accepted")
	}
	cfg = DefaultConfig()
	cfg.RelaxNodes = 0
	if _, err := RelaxStage(nil, cfg, relax.PlatformGPU); err == nil {
		t.Error("zero relax nodes accepted")
	}
}

func TestLongestFirstImprovesInferenceWalltime(t *testing.T) {
	_, p, _, engine := testSetup(t, 200)
	gen := DefaultFastFeatureGen(1)
	cfg := DefaultConfig()
	cfg.SummitNodes = 8
	feat, err := FeatureStage(p.Proteins, gen, fsim.DefaultFilesystem(), ReducedDatabase(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := InferenceStage(engine, p.Proteins, feat.Features, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Order = cluster.ShortestFirst
	reversed, err := InferenceStage(engine, p.Proteins, feat.Features, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sorted.WalltimeSec > reversed.WalltimeSec {
		t.Errorf("longest-first walltime %v worse than shortest-first %v",
			sorted.WalltimeSec, reversed.WalltimeSec)
	}
	if sorted.Sim.FinishSpread() > reversed.Sim.FinishSpread() {
		t.Errorf("longest-first spread %v worse than shortest-first %v",
			sorted.Sim.FinishSpread(), reversed.Sim.FinishSpread())
	}
}

// backgroundSeq returns an arbitrary valid sequence of n residues.
func backgroundSeq(r *rng.Source, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = seq.Alphabet[r.Intn(seq.NumAminoAcids)]
	}
	return string(b)
}
