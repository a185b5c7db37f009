package geom

import "math"

// Mat3 is a 3x3 matrix in row-major order: m[row][col].
type Mat3 [3][3]float64

// MulVec returns m·v.
func (m Mat3) MulVec(v Vec3) Vec3 {
	return Vec3{
		m[0][0]*v.X + m[0][1]*v.Y + m[0][2]*v.Z,
		m[1][0]*v.X + m[1][1]*v.Y + m[1][2]*v.Z,
		m[2][0]*v.X + m[2][1]*v.Y + m[2][2]*v.Z,
	}
}

// Det returns the determinant of m.
func (m Mat3) Det() float64 {
	return m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
		m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
		m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
}

// RotationAboutAxis returns the rotation matrix for a rotation of theta
// radians about the given (not necessarily unit) axis, via Rodrigues'
// formula.
func RotationAboutAxis(axis Vec3, theta float64) Mat3 {
	u := axis.Unit()
	c := math.Cos(theta)
	s := math.Sin(theta)
	t := 1 - c
	return Mat3{
		{c + u.X*u.X*t, u.X*u.Y*t - u.Z*s, u.X*u.Z*t + u.Y*s},
		{u.Y*u.X*t + u.Z*s, c + u.Y*u.Y*t, u.Y*u.Z*t - u.X*s},
		{u.Z*u.X*t - u.Y*s, u.Z*u.Y*t + u.X*s, c + u.Z*u.Z*t},
	}
}
