package casp

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/relax"
)

func TestSetShape(t *testing.T) {
	s := NewSet(1)
	if len(s.Targets) != 32 {
		t.Errorf("targets = %d, want 32", len(s.Targets))
	}
	if len(s.Models) != 160 {
		t.Errorf("models = %d, paper analyses 160", len(s.Models))
	}
	crystals := 0
	for _, tg := range s.Targets {
		if tg.HasCrystal {
			crystals++
		}
	}
	if crystals != 19 {
		t.Errorf("crystal targets = %d, paper uses 19", crystals)
	}
	for _, m := range s.Models {
		if len(m.CA) == 0 || len(m.CA) != len(m.SC) {
			t.Fatalf("model %s-%d malformed", m.TargetID, m.ModelNum)
		}
		if m.HeavyAtoms <= 0 {
			t.Errorf("model %s-%d heavy atoms = %d", m.TargetID, m.ModelNum, m.HeavyAtoms)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := NewSet(5)
	b := NewSet(5)
	for i := range a.Models {
		if a.Models[i].CA[0] != b.Models[i].CA[0] {
			t.Fatal("same-seed sets differ")
		}
	}
}

func TestT1080Exists(t *testing.T) {
	s := NewSet(1)
	var tg *Target
	for i := range s.Targets {
		if s.Targets[i].ID == "T1080" {
			tg = &s.Targets[i]
		}
	}
	if tg == nil {
		t.Fatal("no target T1080")
	}
	if tg.Length < 1000 {
		t.Errorf("T1080 length = %d; must be the large outlier", tg.Length)
	}
	if len(s.ModelsOf("T1080")) != 5 {
		t.Errorf("T1080 models = %d", len(s.ModelsOf("T1080")))
	}
}

func TestViolationStatisticsMatchPaper(t *testing.T) {
	// Paper (Section 4.4): unrelaxed models had 0.22 ± 1.09 clashes (max 8)
	// and 3.76 ± 12.74 bumps (max 148).
	s := NewSet(1)
	var clashes, bumps []float64
	for _, m := range s.Models {
		v := relax.CountViolations(m.CA)
		clashes = append(clashes, float64(v.Clashes))
		bumps = append(bumps, float64(v.Bumps))
	}
	cs := metrics.Summarize(clashes)
	bs := metrics.Summarize(bumps)

	if cs.Mean < 0.05 || cs.Mean > 0.8 {
		t.Errorf("mean clashes = %v, paper 0.22", cs.Mean)
	}
	if cs.Max > 12 {
		t.Errorf("max clashes = %v, paper max 8", cs.Max)
	}
	if bs.Mean < 1.0 || bs.Mean > 9 {
		t.Errorf("mean bumps = %v, paper 3.76", bs.Mean)
	}
	if bs.Max < 30 || bs.Max > 200 {
		t.Errorf("max bumps = %v, paper max 148", bs.Max)
	}
	// Heavy tail: std must exceed the mean for both.
	if cs.Std < cs.Mean {
		t.Errorf("clash distribution not heavy-tailed: %v ± %v", cs.Mean, cs.Std)
	}
	if bs.Std < bs.Mean {
		t.Errorf("bump distribution not heavy-tailed: %v ± %v", bs.Mean, bs.Std)
	}
}

func TestModelsStayNearCrystal(t *testing.T) {
	// Models are predictions of their targets, not random chains: a model
	// must have bounded RMSD field against its crystal (the planted
	// violations are local).
	s := NewSet(1)
	for _, tg := range s.Targets {
		if !tg.HasCrystal || tg.Length > 500 {
			continue
		}
		for _, m := range s.ModelsOf(tg.ID) {
			var worst, sum float64
			for i := range m.CA {
				d := m.CA[i].Dist(tg.Crystal.CA[i])
				sum += d
				if d > worst {
					worst = d
				}
			}
			if worst > 30 {
				t.Errorf("%s model %d deviates %v Å at worst; too far from crystal",
					tg.ID, m.ModelNum, worst)
			}
			if mean := sum / float64(len(m.CA)); mean > 6 {
				t.Errorf("%s model %d mean deviation %v Å; models must track the crystal",
					tg.ID, m.ModelNum, mean)
			}
		}
	}
}

// setHash folds every model's CA and SC coordinate bits, in model order,
// into one FNV-64a.
func setHash(s *Set) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, m := range s.Models {
		for _, trace := range [2][]geom.Vec3{m.CA, m.SC} {
			for _, p := range trace {
				for _, f := range [3]float64{p.X, p.Y, p.Z} {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
					h.Write(b[:])
				}
			}
		}
	}
	return h.Sum64()
}

// TestSetPinned pins the generated set bit for bit: the published set
// (experiments.DefaultSeed ^ 0xCA5B) and one other seed, built on one
// goroutine and on four. plantViolations decides every accepted plant from
// measured violation counts, so any change to how or when it counts must
// reproduce these hashes; NewSet builds targets and models concurrently,
// so the width must not move them either. It runs under -short, so the
// race detector sees the fan-out.
func TestSetPinned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range []struct{ seed, want uint64 }{
			{20220125 ^ 0xCA5B, 0x737edfad11cf97c6},
			{7, 0x8ad2db15cc137d34},
		} {
			if got := setHash(NewSet(c.seed)); got != c.want {
				t.Errorf("GOMAXPROCS %d: NewSet(%d) hash = %#016x, want %#016x", procs, c.seed, got, c.want)
			}
		}
	}
}

// BenchmarkNewSet measures generating the whole benchmark set, which every
// relaxation experiment does before its pool starts. Target folds, then
// models, fan out over GOMAXPROCS; the folds and planting violations (pull,
// incremental recount, maybe revert) are most of it.
func BenchmarkNewSet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		setSink = NewSet(20220125 ^ 0xCA5B)
	}
}

var setSink *Set
