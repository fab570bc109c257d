//go:build !amd64

package rng

import "math"

// boxMuller replaces each z[i], a u1 of Norm, by
// math.Sqrt(-2*math.Log(z[i]))*cosTurn(u2[i]): Norm's formula, one
// value at a time. u2 must be at least as long as z.
func boxMuller(z, u2 []float64) {
	for i, u1 := range z {
		z[i] = math.Sqrt(-2*math.Log(u1)) * cosTurn(u2[i])
	}
}
