package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/flow"
	"repro/internal/proteome"
)

// remoteExecutor builds the multi-process topology inside the test
// process: standalone scheduler, spec-serving workers, client-only remote
// executor. The campaign kernels resolve against the process-wide
// registry, exactly as in a `proteomectl worker` process.
func remoteExecutor(t *testing.T, workers int) *exec.Flow {
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
	return f
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
// whose log marks X/m0 done for five targets but none of their feature
// tasks. Those feature tasks run remotely in this run, so X's features
// never reach the client; recomputing X/m0 locally would infer from nil
// features. The stage must dispatch such tasks again, and the report must
// equal the pool's.
func TestCampaignRemoteResumeDispatchedFeatures(t *testing.T) {
	env := NewEnv(DefaultSeed)
	proteins := env.Proteome(proteome.DVulgaris).FilterMaxLen(2500)[:20]
	want, err := core.RunCampaign(env.Engine, env.FeatureGen(), proteins, env.FS, core.ReducedDatabase(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	done := map[string]bool{}
	for _, p := range proteins[:5] {
		done[p.Seq.ID+"/m0"] = true
	}
	cfg := core.DefaultConfig()
	cfg.Executor = remoteExecutor(t, 2)
	cfg.Remote = &core.RemoteCampaign{Seed: DefaultSeed, Species: proteome.DVulgaris.Code}
	cfg.Resume = func(task string) bool { return done[task] }
	got, err := core.RunCampaign(env.Engine, env.FeatureGen(), proteins, env.FS, core.ReducedDatabase(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkRemoteReport(t, got, want)
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
