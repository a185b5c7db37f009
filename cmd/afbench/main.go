// Command afbench regenerates every table and figure of the paper and
// prints paper-versus-measured reports.
//
// Usage:
//
//	afbench [-seed N] [-parallelism N] [-stats F] [-timeline F] <experiment>
//
// where <experiment> is one of: table1, fig2, fig3, fig4, features,
// recycles, sdivinum, violations, genomerelax, annotate, campaign,
// ablations, gpusearch, complex, or all.
//
// Every experiment fans its compute out over the in-process worker pool
// bounded at -parallelism; results are byte-identical at any value.
// -stats and -timeline record that pool's per-task trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/analysis"
	"repro/internal/exec"
	"repro/internal/experiments"
)

type runner struct {
	name string
	desc string
	run  func(*experiments.Env, io.Writer) error
}

var runners = []runner{
	{"table1", "Table 1: preset benchmark (559 sequences, 4 presets)", report(experiments.Table1)},
	{"fig2", "Fig 2: worker timeline distribution (1200 workers)", report(experiments.Fig2)},
	{"fig3", "Fig 3: relaxation quality (TM / SPECS before vs after)", report(experiments.Fig3)},
	{"fig4", "Fig 4: relaxation time vs heavy atoms, speedups", report(experiments.Fig4)},
	{"features", "Sec 4.1: feature generation vs inference node-hours", report(experiments.FeatureGenExperiment)},
	{"recycles", "Sec 4.2: recycle-improvement distribution", report(experiments.RecycleGains)},
	{"sdivinum", "Sec 4.3.1: S. divinum proteome statistics", report(experiments.SDivinum)},
	{"violations", "Sec 4.4: clash/bump reduction across methods", report(experiments.Violations)},
	{"genomerelax", "Sec 4.5: genome-scale relaxation workflow", report(experiments.GenomeRelax)},
	{"annotate", "Sec 4.6: hypothetical-protein structural annotation", report(experiments.Annotation)},
	{"campaign", "Full 4-proteome campaign and node-hour budget", report(experiments.Campaign)},
	{"ablations", "Design-choice ablations (ordering, granularity, replicas, recycles)", report(experiments.Ablations)},
	{"gpusearch", "GPU-accelerated MSA search (conclusion's discussion)", report(experiments.GPUSearch)},
	{"complex", "AF2Complex extension: all-vs-all interaction screen", report(experiments.ComplexScreen)},
}

// report adapts an experiment to the runner table: run it, then render its
// report.
func report[R interface{ Render(io.Writer) error }](f func(*experiments.Env) (R, error)) func(*experiments.Env, io.Writer) error {
	return func(e *experiments.Env, w io.Writer) error {
		r, err := f(e)
		if err != nil {
			return err
		}
		return r.Render(w)
	}
}

func main() {
	seed := flag.Uint64("seed", experiments.DefaultSeed, "campaign seed (changing it changes every measured number)")
	par := flag.Int("parallelism", 0, "host worker-pool size (0 = GOMAXPROCS, 1 = serial); results are identical at any value")
	stats := flag.String("stats", "", "write the per-task processing-times CSV (task → worker placement, timings) for every fan-out to this file")
	timeline := flag.String("timeline", "", "write the Fig-2-style worker-timeline SVG (the recorded fan-outs overlaid on the dataflow simulator's prediction for the same tasks) to this file")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	name := flag.Arg(0)

	env := experiments.NewEnv(*seed)
	env.Parallelism = *par
	trace := &exec.Trace{}
	if *stats != "" || *timeline != "" {
		// The default pool is implicit in the stages; a trace needs a
		// concrete pool to record into.
		pool := exec.NewPool(*par)
		pool.SetTrace(trace)
		env.Executor = pool
	}
	selected := runners
	if name != "all" {
		i := slices.IndexFunc(runners, func(r runner) bool { return r.name == name })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "afbench: unknown experiment %q\n\n", name)
			usage()
			os.Exit(2)
		}
		selected = runners[i : i+1]
	}
	for i, r := range selected {
		if i > 0 {
			fmt.Println()
		}
		start := time.Now()
		if err := r.run(env, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "afbench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %.1fs]\n", r.name, time.Since(start).Seconds())
	}
	if err := analysis.WriteTraceFiles(trace.Rows(), *stats, *timeline, "afbench "+name, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "afbench: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: afbench [-seed N] [-parallelism N] [-stats F] [-timeline F] <experiment>")
	fmt.Fprintln(os.Stderr, "experiments:")
	for _, r := range runners {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", r.name, r.desc)
	}
	fmt.Fprintln(os.Stderr, "  all          run everything")
}
