package relax

import (
	"math"

	"repro/internal/geom"
)

// The minimizer's stopping rule, the paper's protocol.
const (
	// convergeDE stops a minimization when the energy decrease between
	// consecutive accepted steps falls below it: 2.39 kcal/mol, i.e.
	// 10 kJ/mol.
	convergeDE = 2.39
	// maxSteps bounds a minimization ("unlimited" in the paper; a large
	// bound keeps every run finite).
	maxSteps = 5000
)

// MinimizeResult summarizes one energy minimization.
type MinimizeResult struct {
	InitialEnergy float64
	FinalEnergy   float64
	Steps         int
	Converged     bool
}

// Minimize runs a FIRE (fast inertial relaxation engine) minimization of
// the system in place, until the energy decrease between accepted steps
// falls below 2.39 kcal/mol or after 5,000 steps. FIRE is the standard
// choice for removing bad contacts: steepest-descent-like robustness with
// adaptive acceleration.
func Minimize(s *System) MinimizeResult {
	n := len(s.Pos)
	// Force/velocity buffers are system-owned scratch, reused across the
	// protocol's minimization rounds. Velocities start at zero each round,
	// matching the fresh-allocation behaviour.
	if cap(s.forces) < n {
		s.forces = make([]geom.Vec3, n)
		s.vel = make([]geom.Vec3, n)
	}
	forces := s.forces[:n]
	vel := s.vel[:n]
	for i := range vel {
		vel[i] = geom.Vec3{}
	}

	const (
		dtInit = 0.002
		dtMax  = 0.02
		alpha0 = 0.1
		fInc   = 1.1
		fDec   = 0.5
		fAlpha = 0.99
		nMinUp = 5
	)
	dt := dtInit
	alpha := alpha0
	upCount := 0

	e := s.EnergyForces(forces)
	res := MinimizeResult{InitialEnergy: e, FinalEnergy: e}
	prevAccepted := e

	for step := 1; step <= maxSteps; step++ {
		// Velocity Verlet half-kick + drift with force mixing (FIRE).
		var p float64
		for i := 0; i < n; i++ {
			vel[i] = vel[i].Add(forces[i].Scale(dt))
			p += forces[i].Dot(vel[i])
		}
		if p > 0 {
			// Mix velocity toward the force direction.
			var vNorm, fNorm float64
			for i := 0; i < n; i++ {
				vNorm += vel[i].Norm2()
				fNorm += forces[i].Norm2()
			}
			vNorm = math.Sqrt(vNorm)
			fNorm = math.Sqrt(fNorm)
			if fNorm > 1e-12 {
				scale := alpha * vNorm / fNorm
				for i := 0; i < n; i++ {
					vel[i] = vel[i].Scale(1 - alpha).Add(forces[i].Scale(scale))
				}
			}
			upCount++
			if upCount > nMinUp {
				dt = math.Min(dt*fInc, dtMax)
				alpha *= fAlpha
			}
		} else {
			// Uphill: freeze and restart descent.
			for i := 0; i < n; i++ {
				vel[i] = geom.Vec3{}
			}
			dt *= fDec
			alpha = alpha0
			upCount = 0
		}
		for i := 0; i < n; i++ {
			s.Pos[i] = s.Pos[i].Add(vel[i].Scale(dt))
		}

		e = s.EnergyForces(forces)
		res.Steps = step
		res.FinalEnergy = e

		// Convergence: energy change between accepted steps below
		// threshold, checked only while descending so the first uphill
		// fluctuation does not end the run prematurely.
		if p > 0 && prevAccepted-e >= 0 && prevAccepted-e < convergeDE {
			res.Converged = true
			break
		}
		if p > 0 {
			prevAccepted = e
		}
	}
	return res
}
