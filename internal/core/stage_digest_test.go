package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fold"
	"repro/internal/proteome"
)

// Digests of InferenceStage over the D. vulgaris campaign set at
// experiments.DefaultSeed under all four presets: every bit of every
// prediction, plus each report's wall time and node-hours, as the engine
// computes them with each sampled residue's mag^PLDDTShape taken from the
// draw record, every target-shared normal from rng's ziggurat sampler, and
// every exp, log and power through internal/fmath, so the constants hold
// on amd64 with and without FMA and on 386.
// The engine's contract with its per-residue Pow oracle (fold's
// TestInferContract) is wider: MeanPLDDT within a stated ulp bound, every
// other field bit for bit. A change that claims bit-identical output must
// leave both constants alone; one that moves pLDDT inside that contract
// re-records both and passes TestInferContract, and one that changes the
// streams re-records both and passes experiments' TestStreamEpochContract.
const (
	inferenceDigest      = "9dc4c758745a2ce1975f9128061563a10f6bfabd534ca56a952f32618f59a199"
	inferenceDigestShort = "c5c6175fe804a844ece137836790c5602cc306a8bf7a059e670d6da2ddc6b216" // first 300 targets only, under -short
)

func TestInferenceStageDigest(t *testing.T) {
	env := experiments.NewEnv(experiments.DefaultSeed)
	proteins := env.Proteome(proteome.DVulgaris).FilterMaxLen(2500)
	want := inferenceDigest
	if testing.Short() {
		proteins, want = proteins[:300], inferenceDigestShort
	}
	feats, err := env.FeaturesFor(proteins)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf []byte
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	str := func(s string) { u64(uint64(len(s))); buf = append(buf, s...) }
	flag := func(b bool) {
		if b {
			u64(1)
		} else {
			u64(0)
		}
	}
	for _, preset := range fold.AllPresets() {
		cfg := core.DefaultConfig()
		cfg.Preset = preset
		cfg.AndesNodes, cfg.SummitNodes, cfg.HighMemNodes = 96, 200, 4
		rep, err := core.InferenceStage(env.Engine, proteins, feats, cfg)
		if err != nil {
			t.Fatalf("%s: %v", preset.Name, err)
		}
		str(preset.Name)
		for _, tr := range rep.Targets {
			str(tr.ID)
			u64(uint64(tr.Length))
			flag(tr.OnHighMem)
			u64(uint64(len(tr.All)))
			for _, p := range tr.All {
				str(p.ID)
				u64(uint64(p.Model))
				u64(uint64(p.Length))
				u64(uint64(p.Recycles))
				flag(p.Converged)
				for _, v := range []float64{p.MeanPLDDT, p.PTMS, p.FracAbove70, p.FracAbove90, p.GPUSeconds, p.PeakMemGB} {
					f64(v)
				}
				flag(p == tr.Best)
			}
		}
		u64(uint64(rep.Completed))
		u64(uint64(rep.OOMDropped))
		f64(rep.WalltimeSec)
		f64(rep.NodeHours)
		h.Write(buf)
		buf = buf[:0]
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("InferenceStage digest over %d targets x 4 presets = %s, want %s", len(proteins), got, want)
	}
}

// BenchmarkInferenceStage is the one-proteome cut of BenchmarkFullCampaign:
// one op is InferenceStage over D. vulgaris's 3,205 targets (16,025
// inference tasks) as experiments.Campaign configures it, on the pool at
// Parallelism 2. Features are computed once, outside the timer, and every
// op runs on a new engine, whose pool of draw records starts empty.
func BenchmarkInferenceStage(b *testing.B) {
	env := experiments.NewEnv(experiments.DefaultSeed)
	proteins := env.Proteome(proteome.DVulgaris).FilterMaxLen(2500)
	feats, err := env.FeaturesFor(proteins)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.AndesNodes, cfg.SummitNodes, cfg.HighMemNodes = 96, 200, 4
	cfg.Parallelism = 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.InferenceStage(fold.NewEngine(env.GT, env.Engine.Seed), proteins, feats, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != len(proteins) {
			b.Fatalf("%d of %d targets completed", rep.Completed, len(proteins))
		}
	}
}
