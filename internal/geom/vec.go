// Package geom implements the geometric and structural-comparison machinery
// used by the reproduction: 3-vectors and 3x3 rotations, Kabsch optimal
// superposition (Horn's quaternion method), RMSD, the TM-score of Zhang &
// Skolnick (Proteins 2004), and a SPECS-like score that also rewards
// side-chain placement (Alapati et al., PLoS ONE 2020).
//
// These are real implementations, not stubs: Fig. 3 of the paper compares
// relaxation protocols using TM-score and SPECS-score, and Section 4.6 uses
// TM-score alignments for functional annotation, so the metrics must behave
// like the published ones (monotone under perturbation, correct d0 scaling,
// invariance to rigid motion).
package geom

import "math"

// Vec3 is a point or direction in 3-space.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the dot product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns |v|^2.
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Unit returns v/|v|. It returns the zero vector if |v| == 0.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return Vec3{}
	}
	return v.Scale(1 / n)
}

// Dist returns |v - w|.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Dist2 returns |v - w|^2.
func (v Vec3) Dist2(w Vec3) float64 { return v.Sub(w).Norm2() }

// Centroid returns the mean of the points. It returns the zero vector for an
// empty slice.
func Centroid(pts []Vec3) Vec3 {
	if len(pts) == 0 {
		return Vec3{}
	}
	var c Vec3
	for _, p := range pts {
		c = c.Add(p)
	}
	return c.Scale(1 / float64(len(pts)))
}

// Clone returns a deep copy of the point slice.
func Clone(pts []Vec3) []Vec3 {
	out := make([]Vec3, len(pts))
	copy(out, pts)
	return out
}
