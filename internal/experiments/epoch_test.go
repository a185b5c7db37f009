package experiments

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/fold"
	"repro/internal/proteome"
)

// epochFigures are the figures of one seed that TestStreamEpochContract
// holds a candidate stream to: Table 1's rows in fold.AllPresets order, and
// the campaign's node-hours.
type epochFigures struct {
	plddt, ptms   [4]float64
	count         [4]int
	summit, andes float64
}

// epochReference is the stream the contract was written against, seeds
// 1–12 in order: every inference normal drawn by the polar method.
var epochReference = [12]epochFigures{
	{[4]float64{79.1837469359672, 80.01007143236113, 81.04671595648482, 79.45219594373697}, [4]float64{0.6352760521936871, 0.6432014179053871, 0.6551301524164805, 0.6388383277069225}, [4]int{559, 559, 559, 550}, 3535.5440362945146, 2616.9437264119993},
	{[4]float64{79.3797879514497, 80.30166880050568, 81.47914478644117, 79.63883761003316}, [4]float64{0.6439295585958901, 0.6532467689970026, 0.6667237891302831, 0.6474000069992941}, [4]int{559, 559, 559, 550}, 3341.2711867398784, 2616.7047694946664},
	{[4]float64{78.71983652136322, 79.61168402036026, 80.72113790340441, 78.97661831822178}, [4]float64{0.6400614501547734, 0.648926585193907, 0.6617736309855724, 0.6440271793994754}, [4]int{559, 559, 559, 552}, 3338.961546187444, 2615.9097834020004},
	{[4]float64{78.99195102845879, 79.89679775593405, 81.03100431552389, 79.13752617374936}, [4]float64{0.6383959576764684, 0.6465942010622875, 0.6595193765109955, 0.6404859356696777}, [4]int{559, 559, 559, 550}, 3391.2203641817177, 2615.7609801106664},
	{[4]float64{79.07113237329987, 79.88924062349409, 80.96719505490846, 79.25984469142492}, [4]float64{0.6268892805583872, 0.6350021526686116, 0.6477132758275046, 0.6293949322327441}, [4]int{559, 559, 559, 553}, 3300.7282897468895, 2612.5189528173332},
	{[4]float64{78.89778437200611, 79.89788389317499, 80.97802310506707, 79.10588524432004}, [4]float64{0.6518999742875432, 0.6616577694810349, 0.6739977191686677, 0.6553664825630453}, [4]int{559, 559, 559, 549}, 3373.0053134991413, 2615.1686028893328},
	{[4]float64{79.66356787628085, 80.40015133616522, 81.30889440054838, 79.89135758191769}, [4]float64{0.6484445933430698, 0.6557940646649483, 0.666713153936067, 0.6519978499593323}, [4]int{559, 559, 559, 547}, 3296.5396536974217, 2612.192102348001},
	{[4]float64{79.17499746314988, 79.93432054784267, 80.9115334209051, 79.54134886989598}, [4]float64{0.63681928690895, 0.6442667217520708, 0.6554141923960841, 0.6417798382719948}, [4]int{559, 559, 559, 550}, 3316.6221179140084, 2615.333032672001},
	{[4]float64{79.25537234970867, 79.9984323840795, 80.97937465621254, 79.54236341986866}, [4]float64{0.6392279922117174, 0.646613408653329, 0.6581589816347515, 0.6429048317991806}, [4]int{559, 559, 559, 553}, 3337.659647121443, 2617.500002505332},
	{[4]float64{79.3568243147536, 80.05253969422313, 80.98691494615161, 79.6944728218315}, [4]float64{0.6493369791349439, 0.656226112779544, 0.6671294037919556, 0.6543773687244815}, [4]int{559, 559, 559, 550}, 3296.12735447774, 2613.6078404219993},
	{[4]float64{79.1678793446923, 80.04288772475252, 81.11561881722938, 79.3673650132817}, [4]float64{0.6416683688424265, 0.6507419757497327, 0.6635412939961366, 0.6448759626547091}, [4]int{559, 559, 559, 551}, 3323.9023354118613, 2616.359677176665},
	{[4]float64{79.4218755729073, 80.07916654761517, 81.09747330266426, 79.73096123374259}, [4]float64{0.6423083520674313, 0.6488913434864488, 0.6605160109712415, 0.6464877225052095}, [4]int{559, 559, 559, 554}, 3255.5118217516597, 2611.335511394001},
}

// epochPLDDTFile holds D. vulgaris' per-target pLDDT (each target's reported
// model) at DefaultSeed under the reference stream, one value per line.
var epochPLDDTFile = filepath.Join("testdata", "stream_epoch", "dvulgaris_plddt.txt")

// epochFiguresAt computes a seed's contract figures.
func epochFiguresAt(t *testing.T, seed uint64) epochFigures {
	t.Helper()
	env := NewEnv(seed)
	tab, err := Table1(env)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := Campaign(env)
	if err != nil {
		t.Fatal(err)
	}
	var f epochFigures
	for i, row := range tab.Rows {
		f.plddt[i], f.ptms[i], f.count[i] = row.MeanPLDDT, row.MeanPTMS, row.Count
	}
	f.summit, f.andes = camp.SummitNodeHours, camp.AndesNodeHours
	return f
}

// dvulgarisPLDDT returns the pLDDT of every D. vulgaris target's reported
// model, in ID order, under Campaign's deployment at seed.
func dvulgarisPLDDT(t *testing.T, seed uint64) []float64 {
	t.Helper()
	env := NewEnv(seed)
	proteins := env.Proteome(proteome.DVulgaris).FilterMaxLen(2500)
	feats, err := env.FeaturesFor(proteins)
	if err != nil {
		t.Fatal(err)
	}
	cfg := env.config()
	cfg.AndesNodes, cfg.SummitNodes, cfg.HighMemNodes = 96, 200, 4
	rep, err := core.InferenceStage(env.Engine, proteins, feats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 0, len(rep.Targets))
	for _, tr := range rep.Targets {
		if tr.Best != nil {
			out = append(out, tr.Best.MeanPLDDT)
		}
	}
	return out
}

// TestStreamEpochContract is the contract a change to the inference streams
// moves bytes under: the candidate stream (the code under test) against the
// reference figures above, over seeds 1–12.
//
//   - Table 1's counts and the Andes node-hours never see an inference
//     draw, so they must match the reference seed by seed, exactly.
//   - Every other figure must pass two tests. Band: the candidate's mean
//     over the seeds lies within 2 standard errors (the reference's sample
//     sd/√12) of the reference's mean. Paired: the per-seed differences d
//     satisfy |mean d| ≤ 4·sd(d)/√12.
//   - D. vulgaris' per-target pLDDT at DefaultSeed passes a two-sample
//     Kolmogorov–Smirnov test against the recorded sample at α = 0.01.
//
// The log quotes each figure's paired t and its distance from the reference
// mean in standard errors. The reference is recorded once, from the stream
// it describes, and a change that moves the stream must pass it as it is.
// Skipped under -short: 12 campaign worlds.
func TestStreamEpochContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs 12 four-proteome campaigns")
	}
	const k = len(epochReference)
	var cand [k]epochFigures
	for i := range cand {
		seed := uint64(i + 1)
		cand[i] = epochFiguresAt(t, seed)
		ref := epochReference[i]
		if cand[i].count != ref.count {
			t.Errorf("seed %d: Table 1 counts %v, reference %v", seed, cand[i].count, ref.count)
		}
		if cand[i].andes != ref.andes {
			t.Errorf("seed %d: Andes node-hours %v, reference %v", seed, cand[i].andes, ref.andes)
		}
	}

	type stat struct {
		name string
		of   func(epochFigures) float64
	}
	var stats []stat
	for p, preset := range fold.AllPresets() {
		stats = append(stats,
			stat{"pLDDT " + preset.Name, func(f epochFigures) float64 { return f.plddt[p] }},
			stat{"pTMS " + preset.Name, func(f epochFigures) float64 { return f.ptms[p] }})
	}
	stats = append(stats, stat{"Summit node-hours", func(f epochFigures) float64 { return f.summit }})
	for _, s := range stats {
		var r, c, d [k]float64
		for i := range k {
			r[i], c[i] = s.of(epochReference[i]), s.of(cand[i])
			d[i] = c[i] - r[i]
		}
		rMean, rSD := meanSD(r[:])
		cMean, _ := meanSD(c[:])
		dMean, dSD := meanSD(d[:])
		se := rSD / math.Sqrt(float64(k))
		dSE := dSD / math.Sqrt(float64(k))
		var pairedT float64 // 0 when the candidate is the reference
		if dSE > 0 {
			pairedT = dMean / dSE
		}
		t.Logf("%-20s reference %.6g, candidate %.6g: %+.3f SE from the reference mean, paired t %+.3f",
			s.name, rMean, cMean, (cMean-rMean)/se, pairedT)
		if math.Abs(cMean-rMean) > 2*se {
			t.Errorf("%s: candidate mean %v is %.2f standard errors from the reference mean %v (band: 2)",
				s.name, cMean, math.Abs(cMean-rMean)/se, rMean)
		}
		if math.Abs(dMean) > 4*dSE {
			t.Errorf("%s: paired mean difference %v exceeds 4·sd(d)/√%d = %v", s.name, dMean, k, 4*dSE)
		}
	}

	ref := readEpochPLDDT(t)
	got := dvulgarisPLDDT(t, DefaultSeed)
	dStat := ksTwoSample(ref, got)
	n, m := float64(len(ref)), float64(len(got))
	crit := math.Sqrt(-math.Log(0.01/2)/2) * math.Sqrt((n+m)/(n*m))
	t.Logf("D. vulgaris per-target pLDDT: KS D = %.4f over %d and %d targets (critical %.4f at α = 0.01)", dStat, len(ref), len(got), crit)
	if dStat > crit {
		t.Errorf("D. vulgaris per-target pLDDT: KS D = %v exceeds the α = 0.01 critical value %v", dStat, crit)
	}
}

// meanSD returns xs' mean and sample standard deviation.
func meanSD(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

// ksTwoSample returns the two-sample Kolmogorov–Smirnov statistic, the
// largest distance between the samples' empirical distribution functions.
func ksTwoSample(a, b []float64) float64 {
	a, b = append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(a)
	sort.Float64s(b)
	var d float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x := min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}

func readEpochPLDDT(t *testing.T) []float64 {
	t.Helper()
	f, err := os.Open(epochPLDDTFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		v, err := strconv.ParseFloat(sc.Text(), 64)
		if err != nil {
			t.Fatalf("%s: %v", epochPLDDTFile, err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
