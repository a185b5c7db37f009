package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/proteome"
)

// Fig2Result reproduces Fig. 2: the distribution of inference work across
// Dask workers over a large run (the paper shows 10 of 1200 workers on a
// ~5-hour S. divinum wave), plus the load-balance ablation the figure's
// discussion rests on (length-sorted versus random task order).
type Fig2Result struct {
	Workers       int
	Tasks         int
	MakespanHours float64
	// FinishSpreadMin is the gap between first and last worker completion
	// ("all workers finished within minutes of one another").
	FinishSpreadMin float64
	Utilization     float64
	// Random-order baseline for the same tasks.
	RandomMakespanHours   float64
	RandomFinishSpreadMin float64
	// SampleRows are ASCII Gantt strips for a few representative workers.
	SampleRows []string
	SampleIDs  []int
}

// Fig2 runs the campaign's inference stage (core.InferenceStage) on the
// S. divinum proteome with Config.SummitNodes = 200 (1,200 GPU workers) and
// Config.HighMemNodes = 0, so a model that runs out of GPU memory is dropped
// rather than retried. The stage's own longest-first wave is the figure;
// the same tasks shuffled into a random submission order are the baseline.
func Fig2(env *Env) (*Fig2Result, error) {
	proteins := env.Proteome(proteome.SDivinum).FilterMaxLen(2500)
	feats, err := env.FeaturesFor(proteins)
	if err != nil {
		return nil, err
	}
	cfg := env.config()
	cfg.SummitNodes = 200
	cfg.HighMemNodes = 0
	inf, err := core.InferenceStage(env.Engine, proteins, feats, cfg)
	if err != nil {
		return nil, err
	}
	simSorted := inf.Sim
	workers := len(simSorted.WorkerBusy)

	// The shuffle's input order is generation order: waveTasks follows
	// inf.Targets, which is in ID order, and IDs are zero-padded indices.
	random := waveTasks(inf.Targets)
	r := newShuffleSource(env.Seed)
	r.Shuffle(len(random), func(i, j int) { random[i], random[j] = random[j], random[i] })
	simRandom, err := cluster.SimulateDataflow(random, cluster.DataflowOptions{
		Workers: workers, DispatchOverhead: cfg.DispatchOverhead, StartupDelay: cfg.StartupDelay,
	})
	if err != nil {
		return nil, err
	}

	res := &Fig2Result{
		Workers:               workers,
		Tasks:                 len(random),
		MakespanHours:         simSorted.Makespan / 3600,
		FinishSpreadMin:       simSorted.FinishSpread() / 60,
		Utilization:           simSorted.Utilization(),
		RandomMakespanHours:   simRandom.Makespan / 3600,
		RandomFinishSpreadMin: simRandom.FinishSpread() / 60,
	}

	// Ten representative workers, evenly spaced, as ASCII Gantt rows.
	for k := 0; k < 10; k++ {
		w := k * workers / 10
		tl := simSorted.WorkerTimeline(w)
		ivs := make([][2]float64, len(tl))
		for i, iv := range tl {
			ivs[i] = [2]float64{iv.Start, iv.End}
		}
		res.SampleRows = append(res.SampleRows, metrics.GantRow(ivs, simSorted.Makespan, 100))
		res.SampleIDs = append(res.SampleIDs, w)
	}
	return res, nil
}

// Render writes the figure report.
func (r *Fig2Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig 2: inference distribution across %d Dask workers (%d tasks)\n", r.Workers, r.Tasks)
	fmt.Fprintf(w, "  makespan            %.2f h (paper: ~5 h run shown)\n", r.MakespanHours)
	fmt.Fprintf(w, "  finish spread       %.1f min sorted vs %.1f min random (paper: \"within minutes of one another\")\n",
		r.FinishSpreadMin, r.RandomFinishSpreadMin)
	fmt.Fprintf(w, "  utilization         %.1f%%\n", 100*r.Utilization)
	fmt.Fprintf(w, "  random-order cost   %.2f h makespan\n", r.RandomMakespanHours)
	fmt.Fprintln(w, "  worker timelines ('#' busy, '.' idle):")
	for i, row := range r.SampleRows {
		fmt.Fprintf(w, "  w%04d %s\n", r.SampleIDs[i], row)
	}
	return nil
}
