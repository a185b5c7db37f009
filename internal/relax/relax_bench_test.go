package relax

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// benchSystem builds a deterministic ~300-residue perturbed helix, the
// size class that dominates the genome-scale relaxation workload.
func benchSystem(b *testing.B, n int) *System {
	b.Helper()
	r := rng.New(0xbe7c)
	ca := make([]geom.Vec3, n)
	sc := make([]geom.Vec3, n)
	for i := 0; i < n; i++ {
		t := float64(i)
		ca[i] = geom.Vec3{
			X: 2.3*math.Cos(t) + 0.4*r.NormFloat64(),
			Y: 2.3*math.Sin(t) + 0.4*r.NormFloat64(),
			Z: 1.5*t + 0.4*r.NormFloat64(),
		}
		sc[i] = ca[i].Add(geom.Vec3{X: r.NormFloat64(), Y: r.NormFloat64(), Z: r.NormFloat64()}.Unit().Scale(2.4))
	}
	s, err := NewSystem(ca, sc, DefaultForceField())
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkEnergyForces measures the inner-loop kernel of the minimizer:
// one full energy + gradient evaluation (bonds, restraints, and the
// pair-list non-bonded pass).
func BenchmarkEnergyForces(b *testing.B) {
	s := benchSystem(b, 300)
	forces := make([]geom.Vec3, len(s.Pos))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EnergyForces(forces)
	}
}

// BenchmarkMinimize measures a full FIRE minimization of a fresh system,
// the per-structure unit of work of the relaxation stage.
func BenchmarkMinimize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := benchSystem(b, 300)
		b.StartTimer()
		Minimize(s)
	}
}

// BenchmarkCountViolations measures the violation count the AF2 protocol
// repeats every round, on a folded Cα trace the size of T1080 (1,400
// residues), the CASP set's largest target.
func BenchmarkCountViolations(b *testing.B) {
	ca := cleanChain(0xbe7c, 1400).CA
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		violationsSink = CountViolations(ca)
	}
}

var violationsSink Violations
