package geom

import (
	"fmt"
	"math"
)

// Superposition is the result of an optimal rigid-body superposition of a
// mobile point set onto a target point set: apply as
//
//	x' = R·(x - MobileCenter) + TargetCenter
type Superposition struct {
	R            Mat3
	MobileCenter Vec3
	TargetCenter Vec3
	RMSD         float64
}

// Apply maps a point through the superposition.
func (s *Superposition) Apply(p Vec3) Vec3 {
	return s.R.MulVec(p.Sub(s.MobileCenter)).Add(s.TargetCenter)
}

// Superpose computes the least-squares optimal rigid superposition of mobile
// onto target (Kabsch problem) using Horn's quaternion method, which always
// yields a proper rotation (no reflections). The two slices must have equal,
// non-zero length.
func Superpose(mobile, target []Vec3) (*Superposition, error) {
	if len(mobile) != len(target) {
		return nil, fmt.Errorf("geom: superpose length mismatch %d vs %d", len(mobile), len(target))
	}
	if len(mobile) == 0 {
		return nil, fmt.Errorf("geom: superpose of empty point sets")
	}
	cm := Centroid(mobile)
	ct := Centroid(target)

	// Covariance S[a][b] = sum_i p_a q_b over centered coordinates,
	// p = mobile, q = target.
	var s Mat3
	for i := range mobile {
		p := mobile[i].Sub(cm)
		q := target[i].Sub(ct)
		s[0][0] += p.X * q.X
		s[0][1] += p.X * q.Y
		s[0][2] += p.X * q.Z
		s[1][0] += p.Y * q.X
		s[1][1] += p.Y * q.Y
		s[1][2] += p.Y * q.Z
		s[2][0] += p.Z * q.X
		s[2][1] += p.Z * q.Y
		s[2][2] += p.Z * q.Z
	}

	// Horn's 4x4 key matrix; its top eigenvector is the unit quaternion of
	// the optimal rotation.
	n := [4][4]float64{
		{s[0][0] + s[1][1] + s[2][2], s[1][2] - s[2][1], s[2][0] - s[0][2], s[0][1] - s[1][0]},
		{s[1][2] - s[2][1], s[0][0] - s[1][1] - s[2][2], s[0][1] + s[1][0], s[2][0] + s[0][2]},
		{s[2][0] - s[0][2], s[0][1] + s[1][0], -s[0][0] + s[1][1] - s[2][2], s[1][2] + s[2][1]},
		{s[0][1] - s[1][0], s[2][0] + s[0][2], s[1][2] + s[2][1], -s[0][0] - s[1][1] + s[2][2]},
	}
	q := topEigenvector4(n)
	r := quatToRot(q)

	sp := &Superposition{R: r, MobileCenter: cm, TargetCenter: ct}
	var sum float64
	for i := range mobile {
		sum += sp.Apply(mobile[i]).Dist2(target[i])
	}
	sp.RMSD = math.Sqrt(sum / float64(len(mobile)))
	return sp, nil
}

// quatToRot converts a unit quaternion (w, x, y, z) to a rotation matrix.
func quatToRot(q [4]float64) Mat3 {
	w, x, y, z := q[0], q[1], q[2], q[3]
	return Mat3{
		{1 - 2*(y*y+z*z), 2 * (x*y - w*z), 2 * (x*z + w*y)},
		{2 * (x*y + w*z), 1 - 2*(x*x+z*z), 2 * (y*z - w*x)},
		{2 * (x*z - w*y), 2 * (y*z + w*x), 1 - 2*(x*x+y*y)},
	}
}

// topEigenvector4 returns the unit eigenvector of the largest eigenvalue of
// a symmetric 4x4 matrix, via cyclic Jacobi.
func topEigenvector4(a [4][4]float64) [4]float64 {
	var v [4][4]float64
	for i := 0; i < 4; i++ {
		v[i][i] = 1
	}
	for sweep := 0; sweep < 64; sweep++ {
		var off float64
		for p := 0; p < 3; p++ {
			for q := p + 1; q < 4; q++ {
				off += a[p][q] * a[p][q]
			}
		}
		if off < 1e-28 {
			break
		}
		for p := 0; p < 3; p++ {
			for q := p + 1; q < 4; q++ {
				if math.Abs(a[p][q]) < 1e-300 {
					continue
				}
				theta := (a[q][q] - a[p][p]) / (2 * a[p][q])
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				app, aqq, apq := a[p][p], a[q][q], a[p][q]
				a[p][p] = c*c*app - 2*s*c*apq + s*s*aqq
				a[q][q] = s*s*app + 2*s*c*apq + c*c*aqq
				a[p][q], a[q][p] = 0, 0
				for k := 0; k < 4; k++ {
					if k != p && k != q {
						akp, akq := a[k][p], a[k][q]
						a[k][p] = c*akp - s*akq
						a[p][k] = a[k][p]
						a[k][q] = s*akp + c*akq
						a[q][k] = a[k][q]
					}
				}
				for k := 0; k < 4; k++ {
					vkp, vkq := v[k][p], v[k][q]
					v[k][p] = c*vkp - s*vkq
					v[k][q] = s*vkp + c*vkq
				}
			}
		}
	}
	best := 0
	for i := 1; i < 4; i++ {
		if a[i][i] > a[best][best] {
			best = i
		}
	}
	var q [4]float64
	var norm float64
	for k := 0; k < 4; k++ {
		q[k] = v[k][best]
		norm += q[k] * q[k]
	}
	norm = math.Sqrt(norm)
	for k := 0; k < 4; k++ {
		q[k] /= norm
	}
	return q
}

// RMSD returns the root-mean-square deviation between two equal-length point
// sets without superposing them.
func RMSD(a, b []Vec3) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("geom: rmsd length mismatch %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, fmt.Errorf("geom: rmsd of empty point sets")
	}
	var sum float64
	for i := range a {
		sum += a[i].Dist2(b[i])
	}
	return math.Sqrt(sum / float64(len(a))), nil
}

// SuperposedRMSD superposes mobile onto target and returns the minimal RMSD.
func SuperposedRMSD(mobile, target []Vec3) (float64, error) {
	sp, err := Superpose(mobile, target)
	if err != nil {
		return 0, err
	}
	return sp.RMSD, nil
}
