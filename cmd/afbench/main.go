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
	{"table1", "Table 1: preset benchmark (559 sequences, 4 presets)", func(e *experiments.Env, w io.Writer) error {
		r, err := experiments.Table1(e)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{"fig2", "Fig 2: worker timeline distribution (1200 workers)", func(e *experiments.Env, w io.Writer) error {
		r, err := experiments.Fig2(e)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{"fig3", "Fig 3: relaxation quality (TM / SPECS before vs after)", func(e *experiments.Env, w io.Writer) error {
		r, err := experiments.Fig3(e)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{"fig4", "Fig 4: relaxation time vs heavy atoms, speedups", func(e *experiments.Env, w io.Writer) error {
		r, err := experiments.Fig4(e)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{"features", "Sec 4.1: feature generation vs inference node-hours", func(e *experiments.Env, w io.Writer) error {
		r, err := experiments.FeatureGenExperiment(e)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{"recycles", "Sec 4.2: recycle-improvement distribution", func(e *experiments.Env, w io.Writer) error {
		r, err := experiments.RecycleGains(e)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{"sdivinum", "Sec 4.3.1: S. divinum proteome statistics", func(e *experiments.Env, w io.Writer) error {
		r, err := experiments.SDivinum(e)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{"violations", "Sec 4.4: clash/bump reduction across methods", func(e *experiments.Env, w io.Writer) error {
		r, err := experiments.Violations(e)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{"genomerelax", "Sec 4.5: genome-scale relaxation workflow", func(e *experiments.Env, w io.Writer) error {
		r, err := experiments.GenomeRelax(e)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{"annotate", "Sec 4.6: hypothetical-protein structural annotation", func(e *experiments.Env, w io.Writer) error {
		r, err := experiments.Annotation(e)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{"campaign", "Full 4-proteome campaign and node-hour budget", func(e *experiments.Env, w io.Writer) error {
		r, err := experiments.Campaign(e)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{"ablations", "Design-choice ablations (ordering, granularity, replicas, recycles)", func(e *experiments.Env, w io.Writer) error {
		r, err := experiments.Ablations(e)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{"gpusearch", "GPU-accelerated MSA search (conclusion's discussion)", func(e *experiments.Env, w io.Writer) error {
		r, err := experiments.GPUSearch(e)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
	{"complex", "AF2Complex extension: all-vs-all interaction screen", func(e *experiments.Env, w io.Writer) error {
		r, err := experiments.ComplexScreen(e)
		if err != nil {
			return err
		}
		return r.Render(w)
	}},
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
		selected = nil
		for _, r := range runners {
			if r.name == name {
				selected = []runner{r}
				break
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "afbench: unknown experiment %q\n\n", name)
			usage()
			os.Exit(2)
		}
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
