package relax

import (
	"fmt"

	"repro/internal/geom"
)

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
	Before Violations
	After  Violations
	Rounds int // minimization rounds (1 for the optimized protocol)
	Steps  int // total minimizer steps
	Energy float64
	// Seconds is the modeled wall time on the chosen platform, the
	// quantity Fig. 4 plots against heavy-atom count.
	Seconds float64
}

// Options configure a relaxation run.
type Options struct {
	FF       ForceField
	Min      MinimizeOptions
	Platform Platform
	// HeavyAtoms is the all-atom size of the system for the time model; if
	// zero it is estimated by HeavyAtoms.
	HeavyAtoms int
	// MaxRounds bounds the AF2 violation-retry loop.
	MaxRounds int
}

// HeavyAtoms estimates the all-atom size of a chain of the given length,
// 7.8 heavy atoms per residue.
func HeavyAtoms(residues int) int { return int(7.8 * float64(residues)) }

// DefaultOptions returns the paper-faithful configuration for a platform.
func DefaultOptions(p Platform) Options {
	return Options{
		FF:        DefaultForceField(),
		Min:       DefaultMinimizeOptions(),
		Platform:  p,
		MaxRounds: 10,
	}
}

// Relax runs the appropriate protocol for the platform: the AF2 original
// (minimize; while violations remain, minimize again) on PlatformAF2, and
// the optimized single-minimization protocol otherwise.
func Relax(ca, sc []geom.Vec3, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	sys, err := NewSystem(ca, sc, opt.FF)
	if err != nil {
		return nil, err
	}
	heavy := opt.HeavyAtoms
	if heavy == 0 {
		heavy = HeavyAtoms(len(ca))
	}

	res := &Result{Before: CountViolations(ca)}
	rounds := 0
	totalSteps := 0
	for {
		rounds++
		mr := Minimize(sys, opt.Min)
		totalSteps += mr.Steps
		res.Energy = mr.FinalEnergy
		if opt.Platform != PlatformAF2 {
			break // optimized protocol: exactly one minimization
		}
		// AF2 original protocol: re-minimize while any violation remains.
		// The Cα trace is extracted into system-owned scratch, not a fresh
		// copy per round. Every exit below follows this count, so it is
		// the final coordinates' count too.
		sys.ca = sys.CAInto(sys.ca)
		res.After = CountViolations(sys.ca)
		if (res.After.Clashes == 0 && res.After.Bumps == 0) || rounds >= opt.MaxRounds {
			break
		}
		// AF2 restarts minimization from the current coordinates with the
		// same restraints; with a deterministic minimizer extra rounds add
		// time but converge quickly.
		if rounds > 1 && mr.Steps <= 1 {
			break // fully converged; more rounds cannot help
		}
	}

	res.CA = sys.CA()
	res.SC = sys.SC()
	if opt.Platform != PlatformAF2 {
		res.After = CountViolations(res.CA)
	}
	res.Rounds = rounds
	res.Steps = totalSteps
	res.Seconds = ModelTime(opt.Platform, heavy, rounds)
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

// Validate sanity-checks an Options value.
func (o *Options) Validate() error {
	if o.Min.MaxSteps <= 0 {
		return fmt.Errorf("relax: MaxSteps must be positive")
	}
	if o.Min.ConvergeDE <= 0 {
		return fmt.Errorf("relax: ConvergeDE must be positive")
	}
	if o.MaxRounds <= 0 {
		return fmt.Errorf("relax: MaxRounds must be positive")
	}
	return nil
}
