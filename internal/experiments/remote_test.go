package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/flow"
	"repro/internal/fold"
	"repro/internal/msa"
	"repro/internal/proteome"
	"repro/internal/relax"
)

// remoteExecutor builds the multi-process topology inside the test
// process: standalone scheduler, spec-serving workers, client-only remote
// executor. The campaign kernels resolve against the process-wide
// registry, exactly as in a `proteomectl worker` process.
func remoteExecutor(t *testing.T, workers int) *exec.Flow {
	f, _ := remoteCluster(t, workers)
	return f
}

// remoteCluster is remoteExecutor that also returns the scheduler, whose
// event stream a resume test reads results back from.
func remoteCluster(t *testing.T, workers int) (*exec.Flow, *flow.Scheduler) {
	t.Helper()
	RegisterCampaignKernels()
	sched := flow.NewScheduler()
	addr, err := sched.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	for i := 0; i < workers; i++ {
		w := flow.NewWorker(fmt.Sprintf("remote-w%d", i), flow.SpecHandler())
		if err := w.Connect(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
	}
	f, err := exec.Connect(flow.DialOptions{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, sched
}

// onRemote is cfg on a remote executor.
func onRemote(cfg core.Config, x exec.Executor) core.Config {
	cfg.Executor = x
	cfg.Remote = &core.RemoteCampaign{Seed: DefaultSeed, Species: proteome.DVulgaris.Code}
	return cfg
}

// loggedRun runs the campaign once on a fresh remote cluster and returns
// what a resume reads from its scheduler's event log: the stream is
// written as the JSONL log `sched -event-log` keeps and read back by
// events.CompletedFromLog.
func loggedRun(t *testing.T, env *Env, proteins []proteome.Protein, cfg core.Config) map[string][]byte {
	t.Helper()
	f, sched := remoteCluster(t, 2)
	if _, err := core.RunCampaign(env.Engine, env.FeatureGen(), proteins, env.FS, core.ReducedDatabase(), onRemote(cfg, f)); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	sink := events.LogSink(&log)
	for _, e := range sched.Events().Snapshot() {
		sink(e)
	}
	done, err := events.CompletedFromLog(&log)
	if err != nil {
		t.Fatal(err)
	}
	return done
}

// resumedRun runs the campaign on a fresh remote cluster resumed from
// done, and returns its report and the tasks it dispatched.
func resumedRun(t *testing.T, engine *fold.Engine, gen core.FeatureGen, env *Env, proteins []proteome.Protein, cfg core.Config, done map[string][]byte) (*core.CampaignReport, []exec.TaskStats) {
	t.Helper()
	f := remoteExecutor(t, 2)
	tr := &exec.Trace{}
	f.SetTrace(tr)
	cfg = onRemote(cfg, f)
	cfg.Resume = done
	rep, err := core.RunCampaign(engine, gen, proteins, env.FS, core.ReducedDatabase(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep, tr.Rows()
}

// loggedInfer decodes one key of a resume map as an inference spec; ok
// is false for another kernel's spec.
func loggedInfer(t *testing.T, key string) (in core.InferSpec, ok bool) {
	t.Helper()
	spec, err := flow.DecodeSpec([]byte(key))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kernel != core.KernelInfer {
		return in, false
	}
	if err := in.UnmarshalBinary(spec.Args); err != nil {
		t.Fatal(err)
	}
	return in, true
}

// TestCampaignRemoteSpecDispatch runs the full three-stage campaign
// through remote spec dispatch — no closure crosses the executor — and
// requires the report to match the pool executor's at two worker counts:
// the feature stage's timings, and every decoded prediction, relax time
// and ledger entry deeply. (Remote feature tasks leave their features on
// the worker, so FeatureReport.Features is the one field that differs.)
func TestCampaignRemoteSpecDispatch(t *testing.T) {
	env := NewEnv(DefaultSeed)
	proteins := env.Proteome(proteome.DVulgaris).FilterMaxLen(2500)[:90]

	poolCfg := core.DefaultConfig()
	want, err := core.RunCampaign(env.Engine, env.FeatureGen(), proteins, env.FS, core.ReducedDatabase(), poolCfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rf := remoteExecutor(t, workers)
			cfg := core.DefaultConfig()
			cfg.Executor = rf
			cfg.Remote = &core.RemoteCampaign{Seed: DefaultSeed, Species: proteome.DVulgaris.Code}
			got, err := core.RunCampaign(env.Engine, env.FeatureGen(), proteins, env.FS, core.ReducedDatabase(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkRemoteReport(t, got, want)
		})
	}
}

// checkRemoteReport requires a remote campaign report to equal the pool's
// in everything a remote run carries back.
func checkRemoteReport(t *testing.T, got, want *core.CampaignReport) {
	t.Helper()
	if got.Feature.WalltimeSec != want.Feature.WalltimeSec ||
		got.Feature.NodeHours != want.Feature.NodeHours ||
		got.Feature.Jobs != want.Feature.Jobs {
		t.Error("remote feature timings differ from pool")
	}
	if !reflect.DeepEqual(got.Inference, want.Inference) {
		t.Error("remote inference report differs from pool")
	}
	if !reflect.DeepEqual(got.Relax, want.Relax) {
		t.Error("remote relax report differs from pool")
	}
	if !reflect.DeepEqual(got.Ledger, want.Ledger) {
		t.Error("remote ledger differs from pool")
	}
}

// TestCampaignRemoteResumeDispatchedFeatures resumes a remote campaign
// from a log that holds X/m0's result for five targets but none of their
// feature tasks. Those feature tasks run remotely in this run, so X's
// features never reach the client; X/m0 must still come from the log,
// never be inferred from nil features, and the report must equal the
// pool's.
func TestCampaignRemoteResumeDispatchedFeatures(t *testing.T) {
	env := NewEnv(DefaultSeed)
	proteins := env.Proteome(proteome.DVulgaris).FilterMaxLen(2500)[:20]
	want, err := core.RunCampaign(env.Engine, env.FeatureGen(), proteins, env.FS, core.ReducedDatabase(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	full := loggedRun(t, env, proteins, core.DefaultConfig())
	resumed := map[string]bool{}
	for _, p := range proteins[:5] {
		resumed[p.Seq.ID] = true
	}
	done := map[string][]byte{}
	for key, res := range full {
		if in, ok := loggedInfer(t, key); ok && resumed[in.ID] && in.Model == 0 {
			done[key] = res
		}
	}
	if len(done) != 5 {
		t.Fatalf("log holds %d of the five X/m0 results", len(done))
	}
	got, rows := resumedRun(t, env.Engine, env.FeatureGen(), env, proteins, core.DefaultConfig(), done)
	checkRemoteReport(t, got, want)
	for _, row := range rows {
		if id, ok := strings.CutSuffix(row.TaskID, "/m0"); ok && resumed[id] {
			t.Errorf("logged task %s was dispatched", row.TaskID)
		}
	}
	if wantRows := 20 + 20*fold.NumModels - 5 + want.Relax.Structures; len(rows) < wantRows {
		t.Errorf("resumed run dispatched %d tasks, want at least %d", len(rows), wantRows)
	}
}

// failingGen is a feature generator that must never run.
type failingGen struct{}

func (failingGen) Features(proteome.Protein) (*msa.Features, error) {
	return nil, errors.New("feature generator called on a resumed campaign")
}

// TestCampaignRemoteResumeComputesNothing resumes from the log of a run
// that finished every task. The resume reads every result back: it has no
// engine and a feature generator that fails if called, dispatches no
// task, and still reports exactly what the pool does.
func TestCampaignRemoteResumeComputesNothing(t *testing.T) {
	env := NewEnv(DefaultSeed)
	proteins := env.Proteome(proteome.DVulgaris).FilterMaxLen(2500)[:30]
	want, err := core.RunCampaign(env.Engine, env.FeatureGen(), proteins, env.FS, core.ReducedDatabase(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	got, rows := resumedRun(t, nil, failingGen{}, env, proteins, cfg, loggedRun(t, env, proteins, cfg))
	checkRemoteReport(t, got, want)
	if len(rows) != 0 {
		t.Fatalf("a fully logged campaign dispatched %d tasks (first: %+v)", len(rows), rows[0])
	}
}

// TestCampaignRemoteResumeFeatureIsNotRelax: a target's feature and relax
// tasks share its ID. A log in which X's feature task finished but its
// relax task did not must still send X's relax to the cluster.
func TestCampaignRemoteResumeFeatureIsNotRelax(t *testing.T) {
	env := NewEnv(DefaultSeed)
	proteins := env.Proteome(proteome.DVulgaris).FilterMaxLen(2500)[:10]
	want, err := core.RunCampaign(env.Engine, env.FeatureGen(), proteins, env.FS, core.ReducedDatabase(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := proteins[3]
	relaxOfX, err := flow.EncodeSpec(flow.JobSpec{Kernel: core.KernelRelax,
		Args: mustAppend(t, core.RelaxSpec{Length: x.Seq.Len(), Platform: int(relax.PlatformGPU)})})
	if err != nil {
		t.Fatal(err)
	}
	done := loggedRun(t, env, proteins, core.DefaultConfig())
	if _, ok := done[string(relaxOfX)]; !ok {
		t.Fatal("the full run's log holds no result for X's relax spec")
	}
	delete(done, string(relaxOfX))

	got, rows := resumedRun(t, nil, failingGen{}, env, proteins, core.DefaultConfig(), done)
	checkRemoteReport(t, got, want)
	dispatched := false
	for _, row := range rows {
		if row.Kernel != core.KernelRelax {
			t.Errorf("logged %s task %s was dispatched", row.Kernel, row.TaskID)
		}
		dispatched = dispatched || row.TaskID == x.Seq.ID
	}
	if !dispatched {
		t.Fatalf("X's relax was not dispatched; rows %+v", rows)
	}
}

// TestCampaignRemoteResumeHighMemory: the high-memory wave reuses an
// OOM'd task's trace identity X/mN with another spec. A log holding X/mN's
// OOM-tagged 16 GB result but not its 64 GB one must still send the 64 GB
// spec to the high-memory wave. The casp14 preset's eight ensembles put
// long targets over 16 GB.
func TestCampaignRemoteResumeHighMemory(t *testing.T) {
	env := NewEnv(DefaultSeed)
	cfg := core.DefaultConfig()
	cfg.Preset = fold.CASP14
	var proteins []proteome.Protein
	oom := 0
	for _, p := range env.Proteome(proteome.DVulgaris).FilterMaxLen(2500) {
		mem := env.Engine.PeakMemGB(cfg.Preset, p.Seq.Len())
		switch {
		case mem > 16 && mem <= 64 && oom < 2:
			oom++
		case mem <= 16 && len(proteins) < 10:
		default:
			continue
		}
		proteins = append(proteins, p)
	}
	if oom == 0 {
		t.Fatal("no D. vulgaris target needs the high-memory partition")
	}
	want, err := core.RunCampaign(env.Engine, env.FeatureGen(), proteins, env.FS, core.ReducedDatabase(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Inference.HighMemSim == nil {
		t.Fatal("the pool ran no high-memory wave")
	}

	done := loggedRun(t, env, proteins, cfg)
	highMem := 0
	for key := range done {
		if in, ok := loggedInfer(t, key); ok && in.NodeMemGB > 16 {
			delete(done, key)
			highMem++
		}
	}
	if highMem != oom*fold.NumModels {
		t.Fatalf("log holds %d high-memory results, want %d", highMem, oom*fold.NumModels)
	}

	got, rows := resumedRun(t, nil, failingGen{}, env, proteins, cfg, done)
	checkRemoteReport(t, got, want)
	if len(rows) != highMem {
		t.Fatalf("resumed run dispatched %d tasks, want the %d high-memory ones", len(rows), highMem)
	}
	for _, row := range rows {
		if row.Kernel != core.KernelInfer {
			t.Errorf("logged %s task %s was dispatched", row.Kernel, row.TaskID)
		}
	}
}

// staleEpoch is a campaign kernel's name at epoch 0, the epoch before
// every kernel's first.
func staleEpoch(kernel string) string {
	name, _, _ := strings.Cut(kernel, "@")
	return name + "@0"
}

// TestCampaignRemoteResumeOtherEpoch resumes from a log whose every spec
// names its kernel at another epoch, as a build before a kernel changed
// its answer would have logged it. Nothing of it may be reused: the
// resume dispatches every task a fresh run does and reports what the
// fresh run reports.
func TestCampaignRemoteResumeOtherEpoch(t *testing.T) {
	env := NewEnv(DefaultSeed)
	proteins := env.Proteome(proteome.DVulgaris).FilterMaxLen(2500)[:10]
	cfg := core.DefaultConfig()
	fresh, freshRows := resumedRun(t, env.Engine, env.FeatureGen(), env, proteins, cfg, nil)

	stale := map[string][]byte{}
	for key, res := range loggedRun(t, env, proteins, cfg) {
		spec, err := flow.DecodeSpec([]byte(key))
		if err != nil {
			t.Fatal(err)
		}
		spec.Kernel = staleEpoch(spec.Kernel)
		restamped, err := flow.EncodeSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		stale[string(restamped)] = res
	}
	if len(stale) == 0 {
		t.Fatal("the logged run's log holds no results")
	}
	got, rows := resumedRun(t, env.Engine, env.FeatureGen(), env, proteins, cfg, stale)
	checkRemoteReport(t, got, fresh)
	if len(rows) != len(freshRows) {
		t.Fatalf("resume from another epoch's log dispatched %d tasks, a fresh run %d", len(rows), len(freshRows))
	}
}

// TestCampaignRemoteStaleWorkerRefuses: a worker whose kernels are
// registered at another epoch must fail every task it is handed with
// flow's unknown-kernel error, naming the kernel asked for and the ones
// it has, and never answer one.
func TestCampaignRemoteStaleWorkerRefuses(t *testing.T) {
	reg := flow.NewRegistry()
	for kernel, fn := range map[string]flow.KernelFunc{
		core.KernelFeature: featureKernel, core.KernelInfer: inferKernel, core.KernelRelax: relaxKernel,
	} {
		if err := reg.Register(staleEpoch(kernel), fn); err != nil {
			t.Fatal(err)
		}
	}
	sched := flow.NewScheduler()
	addr, err := sched.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	w := flow.NewWorker("stale-w0", reg.Handler())
	if err := w.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	f, err := exec.Connect(flow.DialOptions{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })

	env := NewEnv(DefaultSeed)
	proteins := env.Proteome(proteome.DVulgaris).FilterMaxLen(2500)[:3]
	rep, err := core.RunCampaign(env.Engine, env.FeatureGen(), proteins, env.FS, core.ReducedDatabase(), onRemote(core.DefaultConfig(), f))
	if err == nil || rep != nil {
		t.Fatalf("campaign on a stale-epoch worker returned report %v, err %v", rep, err)
	}
	want := fmt.Sprintf("unknown kernel %q (registered: %v)", core.KernelFeature, reg.Names())
	if !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v\nwant it to contain %s", err, want)
	}
	for _, e := range sched.Events().Snapshot() {
		if e.Type == events.TaskDone {
			t.Errorf("the stale worker answered task %s", e.Task)
		}
	}
}

// TestCampaignKernelNames: each campaign kernel's name carries its epoch,
// and a worker registers exactly those names.
func TestCampaignKernelNames(t *testing.T) {
	named := regexp.MustCompile(`^campaign/[a-z]+@[1-9][0-9]*$`)
	want := []string{core.KernelFeature, core.KernelInfer, core.KernelRelax}
	for _, kernel := range want {
		if !named.MatchString(kernel) {
			t.Errorf("kernel name %q does not match %s", kernel, named)
		}
	}
	RegisterCampaignKernels()
	slices.Sort(want)
	if got := flow.DefaultRegistry().Names(); !slices.Equal(got, want) {
		t.Errorf("RegisterCampaignKernels registers %q, want %q", got, want)
	}
}

// mustAppend is a spec's binary layout.
func mustAppend(t *testing.T, a flow.BinaryAppender) []byte {
	t.Helper()
	b, err := a.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestKernelWorldCacheBounded: a worker serving many distinct seeds must
// not pin every campaign world it ever built.
func TestKernelWorldCacheBounded(t *testing.T) {
	for seed := uint64(9000); seed < 9000+2*maxKernelWorlds; seed++ {
		worldFor(seed)
	}
	kernelWorldsMu.Lock()
	defer kernelWorldsMu.Unlock()
	if len(kernelWorlds) > maxKernelWorlds {
		t.Fatalf("kernel world cache holds %d worlds, cap is %d", len(kernelWorlds), maxKernelWorlds)
	}
	if len(kernelWorldsOrder) != len(kernelWorlds) {
		t.Fatalf("eviction order list (%d) out of sync with cache (%d)", len(kernelWorldsOrder), len(kernelWorlds))
	}
}

// TestRemoteGuardRequiresCampaignIdentity: a spec-dispatching executor without
// Config.Remote must fail loudly, not fall back to closures.
func TestRemoteGuardRequiresCampaignIdentity(t *testing.T) {
	env := NewEnv(DefaultSeed)
	proteins := env.Proteome(proteome.DVulgaris).FilterMaxLen(2500)[:3]
	rf := remoteExecutor(t, 1)
	cfg := core.DefaultConfig()
	cfg.Executor = rf // Remote left nil
	_, err := core.RunCampaign(env.Engine, env.FeatureGen(), proteins, env.FS, core.ReducedDatabase(), cfg)
	if err == nil {
		t.Fatal("campaign with spec-dispatching executor and nil Remote succeeded")
	}
}

// TestRemoteKernelUnknownWorld: specs naming an unknown species fail with
// a task error surfaced through the batch.
func TestRemoteKernelUnknownWorld(t *testing.T) {
	env := NewEnv(DefaultSeed)
	proteins := env.Proteome(proteome.DVulgaris).FilterMaxLen(2500)[:2]
	rf := remoteExecutor(t, 1)
	cfg := core.DefaultConfig()
	cfg.Executor = rf
	cfg.Remote = &core.RemoteCampaign{Seed: DefaultSeed, Species: "NOPE"}
	_, err := core.RunCampaign(env.Engine, env.FeatureGen(), proteins, env.FS, core.ReducedDatabase(), cfg)
	if err == nil {
		t.Fatal("campaign with unknown species in specs succeeded")
	}
}
