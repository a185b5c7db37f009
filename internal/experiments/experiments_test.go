package experiments

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/casp"
	"repro/internal/metrics"
	"repro/internal/proteome"
	"repro/internal/relax"
)

// The experiment tests assert the *shape* of each paper result — who wins,
// by roughly what factor, where thresholds fall — with bands wide enough to
// survive recalibration but tight enough to catch regressions.

func testEnv(t *testing.T) *Env {
	t.Helper()
	return NewEnv(DefaultSeed)
}

func TestTable1Shape(t *testing.T) {
	env := testEnv(t)
	res, err := Table1(env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != 559 {
		t.Fatalf("benchmark size = %d, want 559", res.Benchmark)
	}
	reduced, err := res.Row("reduced_dbs")
	if err != nil {
		t.Fatal(err)
	}
	genome, err := res.Row("genome")
	if err != nil {
		t.Fatal(err)
	}
	super, err := res.Row("super")
	if err != nil {
		t.Fatal(err)
	}
	casp, err := res.Row("casp14")
	if err != nil {
		t.Fatal(err)
	}

	// Quality ordering: super ≥ genome ≥ reduced; casp14 ≈ reduced.
	if !(super.MeanPLDDT > genome.MeanPLDDT && genome.MeanPLDDT > reduced.MeanPLDDT) {
		t.Errorf("pLDDT ordering broken: %v / %v / %v",
			reduced.MeanPLDDT, genome.MeanPLDDT, super.MeanPLDDT)
	}
	if !(super.MeanPTMS > genome.MeanPTMS && genome.MeanPTMS > reduced.MeanPTMS) {
		t.Errorf("pTMS ordering broken")
	}
	if d := casp.MeanPLDDT - reduced.MeanPLDDT; d < -1 || d > 1.5 {
		t.Errorf("casp14 pLDDT should track reduced_dbs: Δ=%v", d)
	}
	// Absolute levels near the paper.
	for _, row := range res.Rows {
		if row.MeanPLDDT < 75 || row.MeanPLDDT > 84 {
			t.Errorf("%s pLDDT %v outside paper band", row.Preset, row.MeanPLDDT)
		}
		if row.MeanPTMS < 0.58 || row.MeanPTMS > 0.70 {
			t.Errorf("%s pTMS %v outside paper band", row.Preset, row.MeanPTMS)
		}
	}
	// Completion: only casp14 loses targets (OOM on the longest).
	if reduced.Count != 559 || genome.Count != 559 || super.Count != 559 {
		t.Error("single-ensemble presets must complete all 559")
	}
	if casp.Count >= 559 || casp.Count < 540 {
		t.Errorf("casp14 completed %d, paper lost 8 (551)", casp.Count)
	}
	// Cost ordering: reduced ≤ genome ≤ super; casp14 most expensive by far.
	if !(reduced.WalltimeMin <= genome.WalltimeMin && genome.WalltimeMin <= super.WalltimeMin) {
		t.Errorf("walltime ordering broken: %v / %v / %v",
			reduced.WalltimeMin, genome.WalltimeMin, super.WalltimeMin)
	}
	if casp.WalltimeMin < 2*reduced.WalltimeMin {
		t.Errorf("casp14 walltime %v not clearly dominant (even on 91 nodes)", casp.WalltimeMin)
	}

	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty render")
	}
	if _, err := res.Row("nope"); err == nil {
		t.Error("unknown row accepted")
	}
}

func TestFig2LoadBalance(t *testing.T) {
	if testing.Short() {
		t.Skip("fig2 runs the full plant proteome")
	}
	env := testEnv(t)
	res, err := Fig2(env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 1200 {
		t.Errorf("workers = %d", res.Workers)
	}
	// The headline claim: sorted finish spread is minutes; random is much
	// worse.
	if res.FinishSpreadMin > 10 {
		t.Errorf("sorted finish spread %v min; paper says minutes", res.FinishSpreadMin)
	}
	if res.RandomFinishSpreadMin < 5*res.FinishSpreadMin {
		t.Errorf("random spread %v not clearly worse than sorted %v",
			res.RandomFinishSpreadMin, res.FinishSpreadMin)
	}
	if res.Utilization < 0.9 {
		t.Errorf("utilization %v below 90%%", res.Utilization)
	}
	if len(res.SampleRows) != 10 {
		t.Errorf("expected 10 sample worker rows, got %d", len(res.SampleRows))
	}
}

func TestFig3NoQualityLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("fig3 minimizes 38 structures under two protocols")
	}
	env := testEnv(t)
	res, err := Fig3(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range fig3Platforms {
		if res.TMCorr[p] < 0.95 {
			t.Errorf("%v TM correlation %v; paper shows strong correlation", p, res.TMCorr[p])
		}
		if res.SPECCorr[p] < 0.95 {
			t.Errorf("%v SPECS correlation %v", p, res.SPECCorr[p])
		}
	}
	if res.MaxTMDrop > 0.02 {
		t.Errorf("max TM drop %v; paper observes no decreases", res.MaxTMDrop)
	}
	// All three methods must agree (equivalent quality).
	af2 := res.MeanSPECDelta[relax.PlatformAF2]
	gpu := res.MeanSPECDelta[relax.PlatformGPU]
	if d := af2 - gpu; d < -0.01 || d > 0.01 {
		t.Errorf("methods disagree on SPECS delta: %v vs %v", af2, gpu)
	}
}

func TestFig4SpeedupShape(t *testing.T) {
	env := testEnv(t)
	res, err := Fig4(env)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanGPUSpeedup < 8 || res.MeanGPUSpeedup > 20 {
		t.Errorf("mean GPU speedup %v; paper reports up to 14x", res.MeanGPUSpeedup)
	}
	if res.MeanCPUSpeedup <= 1 || res.MeanCPUSpeedup >= res.MeanGPUSpeedup {
		t.Errorf("CPU speedup %v must sit between 1x and the GPU's", res.MeanCPUSpeedup)
	}
	if res.T1080AF2Hours <= 0 {
		t.Error("T1080 outlier missing")
	}
	if res.T1080GPUMinutes > 5 {
		t.Errorf("T1080 on GPU should be minutes, got %v", res.T1080GPUMinutes)
	}
}

// TestFig3Report pins Fig 3 at DefaultSeed as rendered. Skipped under
// -short (38 models through the AF2 and single-pass protocols); CI's
// full-size pins step runs it.
func TestFig3Report(t *testing.T) {
	if testing.Short() {
		t.Skip("fig3 minimizes 38 structures under two protocols")
	}
	res, err := Fig3(testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := res.Render(&out); err != nil {
		t.Fatal(err)
	}
	const want = "Fig 3: relaxed vs unrelaxed model quality (38 models, 19 crystal targets)\n" +
		"Method        TM corr  SPECS corr  mean ΔSPECS   max TM drop\n" +
		"------------  -------  ----------  ------------  -----------\n" +
		"af2-original  0.9985   0.9953      +0.0004       0.0000\n" +
		"openmm-cpu    0.9985   0.9953      +0.0004       0.0000\n" +
		"openmm-gpu    0.9985   0.9953      +0.0004       0.0000\n" +
		"paper: strong before/after correlation, no decreases, slight SPECS gains; all methods equivalent\n"
	if out.String() != want {
		t.Errorf("Fig 3 report:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestFig4Report pins Fig 4 at DefaultSeed as rendered: the speedups, the
// T1080 outlier and the large-system tail with its AF2 round counts.
func TestFig4Report(t *testing.T) {
	res, err := Fig4(testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := res.Render(&out); err != nil {
		t.Fatal(err)
	}
	const want = "Fig 4: relaxation time vs heavy atoms (36 points)\n" +
		"  GPU speedup   mean 14.6x, max 26.3x (paper: up to 14x)\n" +
		"  CPU speedup   mean 3.5x\n" +
		"  T1080 (AF2)   0.3 h (paper: ~4.5 h); GPU method 1.2 min\n" +
		"Target  HeavyAtoms  AF2 s  CPU s  GPU s  AF2 rounds\n" +
		"------  ----------  -----  -----  -----  ----------\n" +
		"T1027   5998        570    189    42     1\n" +
		"T1035   6864        649    215    47     1\n" +
		"T1080   10920       1023   337    72     1\n" +
		"T1080   10920       1023   337    72     1\n" +
		"T1080   10920       1023   337    72     1\n" +
		"T1080   10920       1023   337    72     1\n" +
		"T1080   10920       1023   337    72     1\n" +
		"T1039   5015        479    159    36     1\n" +
		"T1043   4009        387    129    29     1\n" +
		"T1047   5046        482    160    36     1\n" +
		"T1051   6396        606    201    44     1\n" +
		"T1054   4570        438    146    33     1\n" +
		"T1055   6458        612    203    45     1\n"
	if out.String() != want {
		t.Errorf("Fig 4 report:\n%s\nwant:\n%s", out.String(), want)
	}
}

func TestFeatureGenBudget(t *testing.T) {
	env := testEnv(t)
	res, err := FeatureGenExperiment(env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Proteins != 3205 {
		t.Errorf("proteins = %d", res.Proteins)
	}
	// Paper: ~240 Andes node-hours, roughly half the Summit inference cost.
	if res.AndesNodeHours < 180 || res.AndesNodeHours > 320 {
		t.Errorf("Andes node-hours %v, paper ~240", res.AndesNodeHours)
	}
	if res.SummitNodeHours < res.AndesNodeHours*0.6 {
		t.Errorf("Summit inference (%v) should not be cheaper than feature gen (%v)",
			res.SummitNodeHours, res.AndesNodeHours)
	}
	if res.FullDBNodeHours <= res.AndesNodeHours {
		t.Error("full 2.1TB dataset must cost more than the reduced one")
	}
	if res.ReplicationHoursFul <= res.ReplicationHoursRed {
		t.Error("full dataset replication must cost more")
	}
}

func TestRecycleGainsTail(t *testing.T) {
	env := testEnv(t)
	res, err := RecycleGains(env)
	if err != nil {
		t.Fatal(err)
	}
	// The gain must be concentrated: a small fraction of targets supplies
	// the majority of the improvement (paper: 45% from 5%).
	if res.FracTargetsBig > 0.15 {
		t.Errorf("%v of targets have Δ≥0.1; paper says ~5%%", res.FracTargetsBig)
	}
	if res.FracGainFromBig < 0.3 {
		t.Errorf("big-improvement targets supply only %v of the gain", res.FracGainFromBig)
	}
	if res.FracGainFromMed <= res.FracGainFromBig {
		t.Error("Δ≥0.05 class must contain the Δ≥0.1 class")
	}
	// Improved targets recycle far beyond the fixed 3.
	if res.MeanRecyclesOfBig < 8 {
		t.Errorf("improved targets recycle %v on average; paper ~19", res.MeanRecyclesOfBig)
	}
}

func TestSDivinumHarderThanProkaryotes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full plant proteome")
	}
	env := testEnv(t)
	sd, err := SDivinum(env)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := Table1(env)
	if err != nil {
		t.Fatal(err)
	}
	genome, err := t1.Row("genome")
	if err != nil {
		t.Fatal(err)
	}
	// The plant proteome must be the harder workload (lower pTMS fraction
	// than even the hardest prokaryote subset under the same preset).
	if sd.FracPTMSAbove06 >= genome.FracPTMSAbove06+0.05 {
		t.Errorf("S. divinum pTMS>0.6 %v not below prokaryote benchmark %v",
			sd.FracPTMSAbove06, genome.FracPTMSAbove06)
	}
	if sd.FracPTMSAbove06 < 0.35 || sd.FracPTMSAbove06 > 0.70 {
		t.Errorf("pTMS>0.6 fraction %v outside paper band (~53%%)", sd.FracPTMSAbove06)
	}
	if sd.AndesNodeHours < 1200 || sd.AndesNodeHours > 2800 {
		t.Errorf("Andes node-hours %v, paper ~2000", sd.AndesNodeHours)
	}
	if sd.SummitNodeHours < 1800 || sd.SummitNodeHours > 4200 {
		t.Errorf("Summit node-hours %v, paper ~3000", sd.SummitNodeHours)
	}
}

func TestGenomeRelaxMinutes(t *testing.T) {
	env := testEnv(t)
	res, err := GenomeRelax(env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Structures != 3205 {
		t.Errorf("structures = %d", res.Structures)
	}
	if res.Workers != 48 {
		t.Errorf("workers = %d, paper used 48", res.Workers)
	}
	// Paper: 22.89 minutes.
	if res.WallMinutes < 15 || res.WallMinutes > 35 {
		t.Errorf("wall %v min, paper 22.89", res.WallMinutes)
	}
}

func TestCampaignBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four proteomes")
	}
	env := testEnv(t)
	res, err := Campaign(env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Targets < 34000 || res.Targets > 35634 {
		t.Errorf("targets = %d, abstract says 35,634 (minus >2500 AA)", res.Targets)
	}
	// The headline: under 4,000 Summit node-hours.
	if res.SummitNodeHours >= 4000 {
		t.Errorf("Summit node-hours %v exceeds the paper's <4000 budget", res.SummitNodeHours)
	}
	if res.SummitNodeHours < 1500 {
		t.Errorf("Summit node-hours %v implausibly cheap", res.SummitNodeHours)
	}

	// The headline exactly, at DefaultSeed: the printed report and the
	// bits of both node-hour totals. Only the Summit total sees the
	// inference draws; TestStreamEpochContract is the contract a change to
	// their stream re-records it under.
	var out bytes.Buffer
	if err := res.Render(&out); err != nil {
		t.Fatal(err)
	}
	const want = "Campaign: 4 species, 35634 targets, 35634 completed\n" +
		"  Summit node-hours 3384 (paper: <4000 for 35,634 targets)\n" +
		"  Andes node-hours  2618\n"
	if out.String() != want {
		t.Errorf("Campaign report:\n%s\nwant:\n%s", out.String(), want)
	}
	if got := math.Float64bits(res.SummitNodeHours); got != 0x40aa6fda95759a3b {
		t.Errorf("Summit node-hours %v (bits %#x), want 3383.9269215346117 (0x40aa6fda95759a3b)", res.SummitNodeHours, got)
	}
	if got := math.Float64bits(res.AndesNodeHours); got != 0x40a4731401dc00d3 {
		t.Errorf("Andes node-hours %v (bits %#x), want 2617.5390766860014 (0x40a4731401dc00d3)", res.AndesNodeHours, got)
	}
}

func TestProteomeCaching(t *testing.T) {
	env := testEnv(t)
	a := env.Proteome(proteome.DVulgaris)
	b := env.Proteome(proteome.DVulgaris)
	if a != b {
		t.Error("proteome not cached")
	}
}

// TestViolationsReport pins Section 4.4 at DefaultSeed: the report as
// rendered, and the before-relaxation summaries against a fresh count of
// every model, since Violations takes them from the relaxations' own
// counts. Skipped under -short (480 minimisations); CI's full-size pins
// step runs it.
func TestViolationsReport(t *testing.T) {
	if testing.Short() {
		t.Skip("480 minimisations")
	}
	env := testEnv(t)
	res, err := Violations(env)
	if err != nil {
		t.Fatal(err)
	}
	var cb, bb []float64
	for _, m := range casp.NewSet(env.Seed ^ 0xCA5B).Models {
		v := relax.CountViolations(m.CA)
		cb = append(cb, float64(v.Clashes))
		bb = append(bb, float64(v.Bumps))
	}
	if want := metrics.Summarize(cb); res.ClashesBefore != want {
		t.Errorf("clashes before = %+v, a fresh count gives %+v", res.ClashesBefore, want)
	}
	if want := metrics.Summarize(bb); res.BumpsBefore != want {
		t.Errorf("bumps before = %+v, a fresh count gives %+v", res.BumpsBefore, want)
	}
	var out bytes.Buffer
	if err := res.Render(&out); err != nil {
		t.Fatal(err)
	}
	const want = "Sec 4.4: violation reduction over 160 CASP14-like models\n" +
		"  before: clashes 0.13 ± 0.48 (max 3; paper 0.22 ± 1.09 max 8)\n" +
		"          bumps   2.68 ± 8.02 (max 95; paper 3.76 ± 12.74 max 148)\n" +
		"  after af2-original: clashes 0.00 (paper 0), bumps 0.12 ± 0.46 (max 3)\n" +
		"  after openmm-cpu:  clashes 0.00 (paper 0), bumps 0.12 ± 0.46 (max 3)\n" +
		"  after openmm-gpu:  clashes 0.00 (paper 0), bumps 0.12 ± 0.46 (max 3)\n" +
		"  paper after-bumps: 2.12 ± 3.70 (AF2), 2.59 ± 5.34 (CPU), 2.71 ± 5.90 (GPU)\n"
	if out.String() != want {
		t.Errorf("Violations report:\n%s\nwant:\n%s", out.String(), want)
	}
}

// BenchmarkViolations is experiments.Violations at the published seed
// with Parallelism left at 0 (GOMAXPROCS): the relax_casp workload's
// untraced body, 160 models x 3 relax protocols on the pool, with
// casp.NewSet's build of the set before the pool starts.
func BenchmarkViolations(b *testing.B) {
	env := NewEnv(DefaultSeed)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Violations(env); err != nil {
			b.Fatal(err)
		}
	}
}
