package rng

// boxMuller replaces each z[i], a u1 of Norm, by
// math.Sqrt(-2*math.Log(z[i]))*cosTurn(u2[i]) with the bits Norm
// computes, two lanes at a time in SSE2 (boxmuller_amd64.s). u2 must
// be at least as long as z; every z[i] must be in (0, 1) and every
// u2[i] in [0, 1), as Float64 draws them.
//
//go:noescape
func boxMuller(z, u2 []float64)
