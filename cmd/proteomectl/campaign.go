package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/fold"
	"repro/internal/proteome"
)

func findPreset(name string) (fold.Preset, error) {
	for _, p := range fold.AllPresets() {
		if p.Name == name {
			return p, nil
		}
	}
	return fold.Preset{}, fmt.Errorf("unknown preset %q", name)
}

// campaignFlags is the flag block shared by `run` and `submit`: the same
// campaign must be expressible on the simulator and on a remote cluster so
// the two reports can be compared byte for byte.
type campaignFlags struct {
	species  string
	preset   string
	nodes    int
	seed     uint64
	limit    int
	par      int
	stats    string
	timeline string
}

func (c *campaignFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&c.species, "species", "DVU", "species code")
	fs.StringVar(&c.preset, "preset", "genome", "inference preset (reduced_dbs, genome, super, casp14)")
	fs.IntVar(&c.nodes, "nodes", 32, "Summit nodes for inference")
	fs.Uint64Var(&c.seed, "seed", experiments.DefaultSeed, "campaign seed")
	fs.IntVar(&c.limit, "limit", 0, "run only the first K proteins (0 = all); smoke-test and e2e knob")
	fs.StringVar(&c.stats, "stats", "", "write the per-task processing-times CSV (task → worker placement, queue/run timings, wire bytes) to this file")
	fs.StringVar(&c.timeline, "timeline", "", "write the Fig-2-style worker-timeline SVG (the recorded run overlaid on the dataflow simulator's prediction for the same tasks, plus queue depth) to this file")
	// -parallelism is registered by `run` only: `submit` computes on the
	// remote workers, so a host pool-size knob would be inert there.
}

// campaignRun is the resolved world a `run` or `submit` operates on.
type campaignRun struct {
	env      *experiments.Env
	sp       proteome.Species
	proteins []proteome.Protein
	cfg      core.Config
	// limited records that -limit truncated the protein set, so the
	// report header can say so instead of blaming the length exclusion.
	limited bool
}

// campaign resolves the flag block into the world the run operates on.
func (c *campaignFlags) campaign() (*campaignRun, error) {
	sp, err := findSpecies(c.species)
	if err != nil {
		return nil, err
	}
	preset, err := findPreset(c.preset)
	if err != nil {
		return nil, err
	}
	env := experiments.NewEnv(c.seed)
	env.Parallelism = c.par
	proteins := env.Proteome(sp).FilterMaxLen(2500)
	limited := c.limit > 0 && c.limit < len(proteins)
	if limited {
		proteins = proteins[:c.limit]
	}
	cfg := core.DefaultConfig()
	cfg.Preset = preset
	cfg.SummitNodes = c.nodes
	cfg.AndesNodes = 96
	cfg.Parallelism = c.par
	return &campaignRun{env: env, sp: sp, proteins: proteins, cfg: cfg, limited: limited}, nil
}

// run is the tail `run` and `submit` share: it runs the resolved campaign
// on x, prints the report (so a remote multi-process run is
// byte-comparable to a local one), and writes the recorded trace to the
// -stats and -timeline files, with the load-balance summary on stderr.
func (c *campaignFlags) run(cr *campaignRun, x interface {
	exec.Executor
	SetTrace(*exec.Trace)
}, stdout io.Writer) error {
	trace := &exec.Trace{}
	if c.stats != "" || c.timeline != "" {
		x.SetTrace(trace)
	}
	cr.cfg.Executor = x
	rep, err := core.RunCampaign(cr.env.Engine, cr.env.FeatureGen(), cr.proteins, cr.env.FS, core.ReducedDatabase(), cr.cfg)
	if err != nil {
		return err
	}
	printReport(stdout, cr, rep)
	return analysis.WriteTraceFiles(trace.Rows(), c.stats, c.timeline, c.species+" campaign", os.Stderr)
}

func printReport(w io.Writer, cr *campaignRun, rep *core.CampaignReport) {
	sp, cfg, preset := cr.sp, cr.cfg, cr.cfg.Preset
	if cr.limited {
		fmt.Fprintf(w, "%s: first %d proteins (of %d; -limit applied, ≥2500 AA excluded)\n", sp.Name, len(cr.proteins), sp.NumProteins)
	} else {
		fmt.Fprintf(w, "%s: %d proteins (of %d; ≥2500 AA excluded)\n", sp.Name, len(cr.proteins), sp.NumProteins)
	}
	fmt.Fprintf(w, "feature generation  %8.1f node-hours, wall %6.1f h on %d Andes workers\n",
		rep.Feature.NodeHours, rep.Feature.WalltimeSec/3600, cfg.AndesNodes)
	fmt.Fprintf(w, "inference (%s)  %8.1f node-hours, wall %6.1f h on %d Summit nodes (%d completed, %d OOM-dropped)\n",
		preset.Name, rep.Inference.NodeHours, rep.Inference.WalltimeSec/3600, cfg.SummitNodes,
		rep.Inference.Completed, rep.Inference.OOMDropped)
	fmt.Fprintf(w, "relaxation          %8.1f node-hours, wall %6.1f min on %d nodes\n",
		rep.Relax.NodeHours, rep.Relax.WalltimeSec/60, cfg.RelaxNodes)
	for _, m := range rep.Ledger.Machines() {
		fmt.Fprintf(w, "ledger[%s] = %.1f node-hours\n", m, rep.Ledger.Total(m))
	}
}

func runCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var cf campaignFlags
	cf.register(fs)
	fs.IntVar(&cf.par, "parallelism", 0, "host worker-pool size (0 = GOMAXPROCS, 1 = serial); results are identical at any value")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cr, err := cf.campaign()
	if err != nil {
		return err
	}
	// The default pool is materialized here (instead of letting the
	// stages resolve one) so a trace can be attached to it.
	pool := exec.NewPool(cf.par)
	cr.env.Executor = pool
	return cf.run(cr, pool, stdout)
}

// submitOptions is the `submit` flag block: the shared connection flags,
// the campaign definition, and the submit-only result handling knobs.
type submitOptions struct {
	conn          connFlags
	cf            campaignFlags
	resultTimeout time.Duration
	resume        string
	campaign      string
}

func (o *submitOptions) register(fs *flag.FlagSet) {
	o.cf.register(fs)
	o.conn.register(fs, 10*time.Second)
	fs.DurationVar(&o.resultTimeout, "result-timeout", flow.DefaultResultTimeout,
		"fail when no result arrives for this long (0 disables); raise it when individual tasks run long")
	fs.StringVar(&o.resume, "resume", "", "resume an interrupted campaign from a scheduler event log (sched -event-log): a task the log records done is not dispatched again, its result is read back from the log; the report is byte-identical to an uninterrupted run. A result is reused only for the same spec bytes, which lead with the kernel's name and epoch (campaign/infer@2), so what a build of another kernel epoch logged is dropped, and stderr counts it")
	fs.StringVar(&o.campaign, "campaign", "", "campaign name stamped on every submitted task: the fair-share lane and admission-quota namespace on a shared scheduler (sched -policy fair / -quota), and the monitor -campaign filter key; empty keeps single-tenant behavior")
}

// submitCmd runs the campaign against a remote cluster — terminal 3, the
// driving script. Every stage ships named-job specs to the workers; the
// printed report is byte-identical to `run` with the same flags.
func submitCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	var o submitOptions
	o.register(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := o.conn.validate("submit"); err != nil {
		return err
	}
	cr, err := o.cf.campaign()
	if err != nil {
		return err
	}
	if o.resume != "" {
		f, err := os.Open(o.resume)
		if err != nil {
			return err
		}
		done, note, err := resumeResults(f)
		f.Close()
		if err != nil {
			return err
		}
		// Stderr, so the stdout report stays byte-identical to an
		// uninterrupted run.
		fmt.Fprintln(os.Stderr, note)
		cr.cfg.Resume = done
	}
	fl, err := exec.Connect(o.conn.dialOptions())
	if err != nil {
		return err
	}
	defer fl.Close()
	fl.SetResultTimeout(o.resultTimeout)
	if o.campaign != "" {
		fl.SetCampaign(o.campaign)
	}
	cr.cfg.Remote = &core.RemoteCampaign{Seed: o.cf.seed, Species: cr.sp.Code}
	return o.cf.run(cr, fl, stdout)
}

// resumeResults reads the finished tasks (spec → result) of a scheduler
// event log and keeps those of the kernels this build runs. A kernel name
// carries its epoch, so a logged spec of any other name, another epoch of
// one of ours included, could never match a spec this build submits; note
// is the stderr line saying how many results were read, and how many were
// dropped for which kernels.
func resumeResults(r io.Reader) (done map[string][]byte, note string, err error) {
	if done, err = events.CompletedFromLog(r); err != nil {
		return nil, "", err
	}
	read := len(done)
	stale := map[string]bool{}
	for key := range done {
		kernel := "(no spec envelope)"
		if spec, err := flow.DecodeSpec([]byte(key)); err == nil {
			kernel = spec.Kernel
		}
		switch kernel {
		case core.KernelFeature, core.KernelInfer, core.KernelRelax:
			continue
		}
		stale[kernel] = true
		delete(done, key)
	}
	note = fmt.Sprintf("resume: %d task results read from the log", read)
	if len(stale) > 0 {
		note += fmt.Sprintf(", %d for kernels this build does not run: %s",
			read-len(done), strings.Join(slices.Sorted(maps.Keys(stale)), ", "))
	}
	return done, note + "; dispatching only the remainder", nil
}
