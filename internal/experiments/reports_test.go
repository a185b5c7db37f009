package experiments

import (
	"bytes"
	"io"
	"testing"
)

// The report pins below hold each experiment's rendered report at
// DefaultSeed byte for byte, as TestFig3Report and TestFig4Report do.

// renderReport runs one experiment on a fresh DefaultSeed Env and returns
// its report as rendered.
func renderReport[R interface{ Render(io.Writer) error }](t *testing.T, run func(*Env) (R, error)) string {
	t.Helper()
	res, err := run(testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := res.Render(&out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestFig2Report pins Fig 2: the sorted S. divinum wave on 1,200 workers
// and its random-order baseline.
func TestFig2Report(t *testing.T) {
	const want = "Fig 2: inference distribution across 1200 Dask workers (125480 tasks)\n" +
		"  makespan            12.26 h (paper: ~5 h run shown)\n" +
		"  finish spread       0.6 min sorted vs 82.9 min random (paper: \"within minutes of one another\")\n" +
		"  utilization         98.9%\n" +
		"  random-order cost   13.48 h makespan\n" +
		"  worker timelines ('#' busy, '.' idle):\n" +
		"  w0000 ####################################################################################################\n" +
		"  w0120 ####################################################################################################\n" +
		"  w0240 ####################################################################################################\n" +
		"  w0360 ####################################################################################################\n" +
		"  w0480 ####################################################################################################\n" +
		"  w0600 ####################################################################################################\n" +
		"  w0720 ####################################################################################################\n" +
		"  w0840 ####################################################################################################\n" +
		"  w0960 ####################################################################################################\n" +
		"  w1080 ####################################################################################################\n"
	if got := renderReport(t, Fig2); got != want {
		t.Errorf("Fig 2 report:\n%s\nwant:\n%s", got, want)
	}
}

// TestAblationsReport pins the design-choice ablations on D. vulgaris.
func TestAblationsReport(t *testing.T) {
	const want = "Ablations (D. vulgaris workload unless noted)\n" +
		"task ordering (32 nodes, (model,target) tasks):\n" +
		"  longest-first      wall  7.00 h, finish spread    0.2 min\n" +
		"  shortest-first     wall  7.40 h, finish spread   40.6 min\n" +
		"  submission-order   wall  7.39 h, finish spread   28.9 min\n" +
		"task granularity: (model,target) 7.00 h vs whole-target 7.05 h\n" +
		"workers per node (paper: 6, one per GPU):\n" +
		"  1/node: wall 41.60 h\n" +
		"  3/node: wall 13.92 h\n" +
		"  6/node: wall  7.00 h\n" +
		"library replicas (feature stage wall hours):\n" +
		"   1 copies:  4.65 h\n" +
		"   4 copies:  2.95 h\n" +
		"   8 copies:  2.67 h\n" +
		"  24 copies:  2.48 h\n" +
		"recycles: fixed-3 pTMS 0.638 @ 23 node-hours vs dynamic pTMS 0.647 @ 25 node-hours\n" +
		"library: reduced 238 vs full 274 feature node-hours\n"
	if got := renderReport(t, Ablations); got != want {
		t.Errorf("Ablations report:\n%s\nwant:\n%s", got, want)
	}
}

// TestRecycleGainsReport pins Section 4.2: super against reduced_dbs on
// the 559-sequence benchmark.
func TestRecycleGainsReport(t *testing.T) {
	const want = "Sec 4.2: recycle-improvement distribution (super vs reduced_dbs, 559 targets)\n" +
		"  Δ≥0.10: 73% of gain from 8% of targets (paper: 45% from 5%)\n" +
		"  Δ≥0.05: 89% of gain from 13% of targets (paper: 74% from 12%)\n" +
		"  mean recycles of Δ≥0.1 targets: 15.0 (paper: ~19, cap 20)\n"
	if got := renderReport(t, RecycleGains); got != want {
		t.Errorf("Sec 4.2 report:\n%s\nwant:\n%s", got, want)
	}
}

// TestAnnotationReport pins Section 4.6. Skipped under -short (559
// coordinate predictions searched against the pdb70 stand-in); CI's
// full-size pins step runs it.
func TestAnnotationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("559 structure searches")
	}
	const want = "Sec 4.6: structural annotation of 559 hypothetical proteins\n" +
		"  TM ≥ 0.6 structural match  130 (paper 239)\n" +
		"  ... with seq id < 20%      130 (paper 215)\n" +
		"  ... with seq id < 10%      125 (paper 112)\n" +
		"  novel-fold candidates      29\n" +
		"  example: DVU_00395 top TM 0.114 at pLDDT>90 (paper example: TM 0.358)\n"
	if got := renderReport(t, Annotation); got != want {
		t.Errorf("Sec 4.6 report:\n%s\nwant:\n%s", got, want)
	}
}

// TestComplexScreenReport pins the AF2Complex all-vs-all screen.
func TestComplexScreenReport(t *testing.T) {
	const want = "AF2Complex extension: all-vs-all screen of 60 proteins\n" +
		"  pairs screened        1770\n" +
		"  predicted interactions 406 (22.9%)\n" +
		"  screen cost           921.9 GPU-hours vs 2.60 for the monomers (354x)\n" +
		"  wall on 32 nodes      4.91 h\n" +
		"  full-proteome projection: 5134410 pairs, 305.3 GPU-years —\n" +
		"  the quadratic scaling that makes HPC deployment essential (paper's conclusion)\n"
	if got := renderReport(t, ComplexScreen); got != want {
		t.Errorf("complex screen report:\n%s\nwant:\n%s", got, want)
	}
}

// TestGenomeRelaxReport pins Section 4.5: the D. vulgaris relaxation wave
// on 8 nodes.
func TestGenomeRelaxReport(t *testing.T) {
	const want = "Sec 4.5: genome-scale relaxation of 3205 structures on 48 workers\n" +
		"  wall time  24.19 min (paper 22.89 min)\n" +
		"  node-hours 3.2\n"
	if got := renderReport(t, GenomeRelax); got != want {
		t.Errorf("Sec 4.5 report:\n%s\nwant:\n%s", got, want)
	}
}
