package relax

import "repro/internal/geom"

// Platform is where a relaxation runs; it selects the execution-time model
// of Fig. 4.
type Platform int

const (
	// PlatformAF2 is the original AlphaFold relaxation: OpenMM on CPU with
	// the violation-check/retry loop, as run on the PACE cluster.
	PlatformAF2 Platform = iota
	// PlatformCPU is the paper's optimized single-pass protocol on an
	// Andes CPU node (2× EPYC 7302, OpenMM default threading).
	PlatformCPU
	// PlatformGPU is the optimized protocol on a Summit V100 (1 core +
	// 1 GPU per task), the production configuration.
	PlatformGPU
)

func (p Platform) String() string {
	switch p {
	case PlatformAF2:
		return "af2-original"
	case PlatformCPU:
		return "openmm-cpu"
	case PlatformGPU:
		return "openmm-gpu"
	}
	return "unknown"
}

// Result is the outcome of relaxing one structure.
type Result struct {
	CA, SC []geom.Vec3
	// After is the violation count of CA, taken by the protocol loop's
	// last round. Relax does not count its input; a caller that reports
	// a before-count calls CountViolations itself.
	After  Violations
	Rounds int // minimization rounds (1 for the optimized protocol)
	Steps  int // total minimizer steps
	Energy float64
	// Seconds is the modeled wall time on the chosen platform, the
	// quantity Fig. 4 plots against heavy-atom count.
	Seconds float64
}

// Options select the platform of a relaxation run; the force field and the
// minimizer's constants are the paper's and are not options. A zero Options
// is the AF2 protocol with the heavy-atom count estimated from the length.
type Options struct {
	Platform Platform
	// HeavyAtoms is the all-atom size of the system for the time model; if
	// zero it is estimated by HeavyAtoms.
	HeavyAtoms int
}

// af2MaxRounds bounds the AF2 violation-retry loop.
const af2MaxRounds = 10

// HeavyAtoms estimates the all-atom size of a chain of the given length,
// 7.8 heavy atoms per residue.
func HeavyAtoms(residues int) int { return int(7.8 * float64(residues)) }

// DefaultOptions returns the paper-faithful configuration for a platform:
// Options{Platform: p}.
func DefaultOptions(p Platform) Options {
	return Options{Platform: p}
}

// Relax runs the paper's protocol loop under DefaultForceField: minimize,
// count the violations of the result, and minimize again from there while
// any remain, for at most ten rounds on PlatformAF2 (the AF2 original) and
// one round on the other platforms (the optimized single-minimization
// protocol). The loop also stops after a retry round of at most one
// minimizer step.
func Relax(ca, sc []geom.Vec3, opt Options) (*Result, error) {
	sys, err := NewSystem(ca, sc, DefaultForceField())
	if err != nil {
		return nil, err
	}
	heavy := opt.HeavyAtoms
	if heavy == 0 {
		heavy = HeavyAtoms(len(ca))
	}
	maxRounds := 1
	if opt.Platform == PlatformAF2 {
		maxRounds = af2MaxRounds
	}

	res := &Result{}
	for {
		res.Rounds++
		mr := Minimize(sys)
		res.Steps += mr.Steps
		res.Energy = mr.FinalEnergy
		// The Cα trace is extracted into one buffer reused across rounds.
		// Every exit below follows this count, so it is the final
		// coordinates' count.
		res.CA = sys.CAInto(res.CA)
		res.After = CountViolations(res.CA)
		if res.After == (Violations{}) || res.Rounds >= maxRounds {
			break
		}
		// AF2 restarts minimization from the current coordinates with the
		// same restraints; with a deterministic minimizer extra rounds add
		// time but converge quickly.
		if res.Rounds > 1 && mr.Steps <= 1 {
			break // fully converged; more rounds cannot help
		}
	}
	res.SC = sys.SC()
	res.Seconds = ModelTime(opt.Platform, heavy, res.Rounds)
	return res, nil
}

// ModelTime returns the modeled wall-clock seconds for relaxing a system of
// the given heavy-atom count on a platform, calibrated to the paper:
//
//   - PlatformGPU: ~20 s for a 2,500-atom system, so the 3,205 D. vulgaris
//     structures finish in ~23 minutes on 48 workers (Section 4.5);
//   - PlatformAF2: ~14× the GPU time at genome-typical sizes (Fig. 4), and
//     it multiplies with the violation-retry rounds, which is what produces
//     outliers like T1080's 4.5 hours;
//   - PlatformCPU: in between (a full Andes node per task).
func ModelTime(p Platform, heavyAtoms, rounds int) float64 {
	n := float64(heavyAtoms)
	if rounds < 1 {
		rounds = 1
	}
	switch p {
	case PlatformGPU:
		// GPU launch overhead dominates small systems; scaling is mild.
		return 4.5 + 0.0062*n
	case PlatformCPU:
		return 9.0 + 0.030*n
	default:
		// AF2 original: CPU-bound with violation bookkeeping per round.
		return float64(rounds) * (18.0 + 0.092*n)
	}
}
