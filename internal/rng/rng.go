// Package rng provides small, deterministic pseudo-random number
// generators used throughout the simulator and the statistical
// experiment harness.
//
// Everything in this repository must be reproducible bit-for-bit, so no
// package in this module may use math/rand global state or wall-clock
// seeding. Instead, components receive an explicit *rng.Rand (or derive
// one with Split) whose entire state is a single uint64 seed.
package rng

import "math"

// Rand is a deterministic pseudo-random number generator based on
// splitmix64 (Steele, Lea, Flood: "Fast Splittable Pseudorandom Number
// Generators", OOPSLA 2014). It is tiny, fast, passes BigCrush when
// used as a 64-bit generator, and — crucially for this project — allows
// cheap, collision-resistant derivation of independent child streams.
//
// The zero value is a valid generator seeded with 0.
type Rand struct {
	seed  uint64 // initial seed, frozen for Split derivation
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{seed: seed, state: seed}
}

// Split derives an independent child generator from r and a label.
// Calling Split with the same label always yields the same child
// stream, regardless of how many values have been drawn from r.
// This is used to give each (workload, frequency, run) tuple its own
// stable noise stream.
func (r *Rand) Split(label uint64) *Rand {
	// Mix the label into the *initial* seed rather than the current
	// state so that Split is insensitive to draw order.
	return New(mix64(r.seed ^ mix64(label^0x9e3779b97f4a7c15)))
}

// Stream derives the RNG stream of task i of a campaign seeded with
// seed: New(seed ^ splitmix64(i)). It is the index-based counterpart
// of Split for parallel fan-outs — every task gets an independent,
// collision-resistant stream that depends only on (seed, i), never on
// which goroutine runs the task or in what order tasks execute. This
// is what keeps parallel acquisition noise bit-identical to the
// serial schedule.
func Stream(seed uint64, i uint64) *Rand {
	return New(seed ^ mix64(i+0x9e3779b97f4a7c15))
}

// golden is splitmix64's increment: each draw adds it to the state.
const golden = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += golden
	return mix64(r.state)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *Rand) Float64() float64 {
	// 53 high bits -> [0,1) with full double precision.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed int in [0, n). It panics if
// n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation would be
	// overkill here; modulo bias is negligible for the small n used
	// in fold shuffling (n << 2^64).
	return int(r.Uint64() % uint64(n))
}

// Norm returns a normally distributed value with mean 0 and standard
// deviation 1, using the Box–Muller transform. Two uniforms are drawn
// per call; the second variate is intentionally discarded to keep the
// generator stateless beyond its seed counter. The cosine is cosTurn,
// which has math.Cos(2*math.Pi*u2)'s bits without its octant branches.
func (r *Rand) Norm() float64 {
	// Guard against u1 == 0 (log(0) = -Inf).
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * cosTurn(u2)
}

// NormScaled returns a normal variate with the given mean and standard
// deviation.
func (r *Rand) NormScaled(mean, stddev float64) float64 {
	return mean + stddev*r.Norm()
}

// Jitter returns 1 + eps where eps is normally distributed with the
// given relative standard deviation, clamped to [1-4*rel, 1+4*rel] so a
// single extreme draw cannot produce a negative multiplier.
func (r *Rand) Jitter(rel float64) float64 {
	if rel == 0 {
		return 1
	}
	return jitter(r.Norm(), rel)
}

// JitterInto sets dst to the values len(dst) successive Jitter(rel)
// calls would return, in order, and leaves r where those calls would.
// It draws the normals in blocks (normBlock), which on amd64 with AVX2
// draws and transforms four at a time with the same bits.
func (r *Rand) JitterInto(dst []float64, rel float64) {
	if rel == 0 {
		for i := range dst {
			dst[i] = 1
		}
		return
	}
	r.normBlock(dst)
	for i, n := range dst {
		dst[i] = jitter(n, rel)
	}
}

// jitter scales the standard normal n by rel and clamps it as Jitter
// documents.
func jitter(n, rel float64) float64 {
	j := n * rel
	if j > 4*rel {
		j = 4 * rel
	} else if j < -4*rel {
		j = -4 * rel
	}
	return 1 + j
}

// normBlock sets dst to the values len(dst) successive Norm calls
// would return and leaves r where they would. With the AVX2 kernel
// (haveNormKernel) it hands the state to normPairs, which draws and
// transforms four pairs at a time; a pair whose u1 is 0 is drawn by
// Norm, which draws that u1 again. Without it, it calls Norm.
func (r *Rand) normBlock(dst []float64) {
	if !haveNormKernel {
		for i := range dst {
			dst[i] = r.Norm()
		}
		return
	}
	for {
		n := normPairs(dst, r.state)
		r.state += uint64(2*n) * golden
		if n == len(dst) {
			return
		}
		dst[n] = r.Norm()
		dst = dst[n+1:]
	}
}

// Perm returns a random permutation of [0, n) using Fisher–Yates.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// HashString maps a string to a stable 64-bit value (FNV-1a followed by
// a finalizing mix). Used to derive per-workload seeds from names.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return mix64(h)
}
