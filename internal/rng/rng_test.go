package rng

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d diverged: %d vs %d", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 100", same)
	}
}

func TestSplitOrderInsensitive(t *testing.T) {
	a := New(7)
	childBefore := a.Split(99)
	a.Uint64() // advance parent
	a.Uint64()
	childAfter := a.Split(99)
	for i := 0; i < 10; i++ {
		if childBefore.Uint64() != childAfter.Uint64() {
			t.Fatal("Split must be insensitive to parent draw position")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	a := New(7)
	c1 := a.Split(1)
	c2 := a.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("children of different labels collided %d/100 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean far from 0.5: %v", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]int)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) returned %d", v)
		}
		seen[v]++
	}
	for k := 0; k < 7; k++ {
		if seen[k] == 0 {
			t.Fatalf("Intn(7) never produced %d", k)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(123)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean far from 0: %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance far from 1: %v", variance)
	}
}

func TestJitterClamp(t *testing.T) {
	r := New(9)
	const rel = 0.05
	for i := 0; i < 100000; i++ {
		j := r.Jitter(rel)
		if j < 1-4*rel-1e-12 || j > 1+4*rel+1e-12 {
			t.Fatalf("Jitter out of clamp range: %v", j)
		}
	}
	if j := r.Jitter(0); j != 1 {
		t.Fatalf("Jitter(0) = %v, want exactly 1", j)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(77)
	for _, n := range []int{1, 2, 5, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) returned %d elements", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermProperty(t *testing.T) {
	// Property: any seed yields a valid permutation of any size 1..50.
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashStringStable(t *testing.T) {
	if HashString("compute") != HashString("compute") {
		t.Fatal("HashString must be deterministic")
	}
	if HashString("compute") == HashString("compute2") {
		t.Fatal("distinct strings should hash differently")
	}
	if HashString("") == HashString("a") {
		t.Fatal("empty string hash collided")
	}
}

func TestStreamDeterministicPerTask(t *testing.T) {
	a := Stream(42, 3)
	b := Stream(42, 3)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Stream(seed, i) must be deterministic")
		}
	}
}

func TestStreamIndependentTasks(t *testing.T) {
	// Distinct task indices (and distinct seeds) must yield distinct
	// streams, and the base generator must not collide with task 0.
	seen := map[uint64]uint64{}
	record := func(label string, r *Rand) {
		v := r.Uint64()
		if prev, ok := seen[v]; ok {
			t.Fatalf("stream %s collides with stream index %d", label, prev)
		}
		seen[v] = uint64(len(seen))
	}
	record("base", New(42))
	for i := uint64(0); i < 64; i++ {
		record("task", Stream(42, i))
	}
	record("other-seed", Stream(43, 0))
}

func TestStreamOrderInsensitive(t *testing.T) {
	// Drawing from one task's stream must not perturb another's —
	// unlike sharing a single generator across tasks.
	r0 := Stream(7, 0)
	for i := 0; i < 100; i++ {
		r0.Uint64()
	}
	fresh := Stream(7, 1)
	ref := Stream(7, 1)
	if fresh.Uint64() != ref.Uint64() {
		t.Fatal("task streams must be independent of other tasks' draw counts")
	}
}

// TestCosTurnMatchesMathCos: Norm's cosine must have
// math.Cos(2*math.Pi*u)'s bits wherever Norm can call it, or every
// seeded measurement moves. It checks 10^7 seeded uniforms, each
// octant boundary k/8 with both of its neighbours inside [0, 1), and
// the ends of the range.
func TestCosTurnMatchesMathCos(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The identity is what the linux/amd64 golden digests rest on.
		// s390x has an assembly math.Cos, and other targets may fuse
		// the two copies' multiply-adds differently.
		t.Skipf("cosTurn is pinned to math.Cos on amd64; GOARCH is %s", runtime.GOARCH)
	}
	check := func(u float64) {
		if got, want := cosTurn(u), math.Cos(2*math.Pi*u); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cosTurn(%v) = %v (%#016x), math.Cos = %v (%#016x)",
				u, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, u := range cosTurnEdges() {
		check(u)
	}
	r := New(20261019)
	for i := 0; i < 10_000_000; i++ {
		check(r.Float64())
	}
}

// cosTurnEdges returns the u2 values where cosTurn is most likely to
// go wrong: 0, 2^-53, the largest float below 1, and each octant
// boundary k/8 with both of its neighbours inside [0, 1).
func cosTurnEdges() []float64 {
	edges := []float64{0, 0x1p-53, math.Nextafter(1, 0)}
	for k := 0; k <= 8; k++ {
		b := float64(k) / 8
		for _, u := range []float64{math.Nextafter(b, -1), b, math.Nextafter(b, 2)} {
			if 0 <= u && u < 1 {
				edges = append(edges, u)
			}
		}
	}
	return edges
}

// blockLens are the block lengths the block-draw tests cycle through:
// empty, each tail of the kernel's four-pair chunks alone and after one
// or two full chunks, and the lengths the campaign draws: the core
// shares (24), the per-tick read-out block of earlier versions (25), a
// step's voltages (480) and a step's PMC read-outs (2000).
var blockLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 24, 25, 31, 480, 2000}

// eachPath runs f on every path normBlock can take on this machine:
// the AVX2 kernel where the CPU has it, then the Go loop that every
// other machine runs.
func eachPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	kernel := haveNormKernel
	defer func() { haveNormKernel = kernel }()
	if kernel {
		t.Run("avx2", f)
	}
	haveNormKernel = false
	t.Run("go", f)
}

// checkBlocks fills blocks of every blockLens length from one
// generator with block and compares them, bit for bit, with the values
// scalar returns from a second generator of the same seed, until at
// least draws values have been compared. After every block the two
// generators' next Uint64 must agree.
func checkBlocks(t *testing.T, seed uint64, draws int, block func(*Rand, []float64), scalar func(*Rand) float64) {
	t.Helper()
	a, b := New(seed), New(seed)
	buf := make([]float64, 2000)
	for done, k := 0, 0; done < draws; k++ {
		dst := buf[:blockLens[k%len(blockLens)]]
		block(a, dst)
		for i, got := range dst {
			if want := scalar(b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d, block %d (length %d), value %d: %v (%#016x), want %v (%#016x)",
					seed, k, len(dst), i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		if ga, gb := a.Uint64(), b.Uint64(); ga != gb {
			t.Fatalf("seed %d, after block %d (length %d): next Uint64 %#x, want %#x", seed, k, len(dst), ga, gb)
		}
		done += max(len(dst), 1)
	}
}

// TestJitterIntoMatchesJitter: JitterInto must write what successive
// Jitter calls return and leave the generator where they would, at the
// plugins' three read-out widths and at 0, which draws nothing. With
// TestNormBlockMatchesNorm it compares 10^7 draws on each path.
func TestJitterIntoMatchesJitter(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		for i, rel := range []float64{0.012, 0.0008, 0.04, 0} {
			draws := 2_500_000
			if rel == 0 {
				draws = 100_000
			}
			checkBlocks(t, 7001+uint64(i), draws,
				func(r *Rand, dst []float64) { r.JitterInto(dst, rel) },
				func(r *Rand) float64 { return r.Jitter(rel) })
		}
	})
}

// TestNormBlockMatchesNorm: the normal block under JitterInto must
// write what successive Norm calls return, u1 == 0 redraws included
// (a seeded run meets none, so TestNormBlockRedrawsZero forces them).
func TestNormBlockMatchesNorm(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		checkBlocks(t, 7101, 2_500_000, (*Rand).normBlock, (*Rand).Norm)
	})
}

// stateBefore returns the state from which normBlock's pair pos draws
// the uniform u, a multiple of 2^-53 in [0, 1), as its u1 (draw 0) or
// its u2 (draw 1): splitmix64's output mix is a bijection, so invert it
// for an output whose top 53 bits are u·2^53, then step back over the
// draws before it.
func stateBefore(u float64, pos, draw int) uint64 {
	x := uint64(u * 0x1p53)
	return unmix64(x<<11) - uint64(1+draw+2*pos)*golden
}

// craftedLens are the block lengths that put pair pos in each place
// of a four-pair chunk: last in the block, which is a masked tail unless
// pos ends a chunk; in a full chunk; and before a tail of three.
func craftedLens(pos int) []int {
	lens := []int{pos + 1, pos/4*4 + 4, 11}
	slices.Sort(lens)
	return slices.Compact(lens)
}

// checkFrom compares normBlock over n pairs from state with n Norm
// calls from the same state, bit for bit, and the generators' next
// Uint64. The block must leave the three values after it alone, which
// a masked tail's unstored lanes would overwrite.
func checkFrom(t *testing.T, what string, state uint64, n int) {
	t.Helper()
	a, b := &Rand{state: state}, &Rand{state: state}
	buf := make([]float64, n+3)
	for i := range buf {
		buf[i] = -1
	}
	dst := buf[:n]
	a.normBlock(dst)
	for i, v := range buf[n:] {
		if v != -1 {
			t.Fatalf("%s, length %d: the block wrote %v past its end, at %d", what, n, v, n+i)
		}
	}
	for i, got := range dst {
		if want := b.Norm(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s, length %d, value %d: %v (%#016x), want %v (%#016x)",
				what, n, i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if ga, gb := a.Uint64(), b.Uint64(); ga != gb {
		t.Fatalf("%s, length %d: next Uint64 %#x, want %#x", what, n, ga, gb)
	}
}

// TestBoxMullerCraftedUniforms drives the transform with the u1 values
// where archLog's reduction is most likely to go wrong and the u2
// values where cosTurn is, each at every position of two four-pair
// chunks and in tails of one to three pairs. The u1 values are 2^-53,
// the largest Float64 below 1 and, at every exponent from 2^-53 to
// 2^-1, the mantissas 0, all ones and √2/2's mantissa and its
// neighbours, as far as Float64's 53 bits reach. √2/2's own takes
// archLog's f1 <= √2/2 branch, where pure-Go log's < does not; below 1
// the two branches round to the same bits, so these inputs pin the
// kernel to archLog's result, not to its predicate. The u2 values are
// 0, 2^-53, the largest below 1 and each octant boundary k/8 with its
// neighbours 2^-53 away. Each pair's u1 and u2 come from consecutive
// states of one stream, so a crafted u1 meets the u2 its stream draws
// next, and a crafted u2 the u1 before it: the log and the cosine are
// separate lanes of arithmetic until their product.
func TestBoxMullerCraftedUniforms(t *testing.T) {
	const mant = 1<<52 - 1
	hSqrt2 := math.Float64bits(math.Sqrt2/2) & mant
	u1s := []float64{0x1p-53, 1 - 0x1p-53}
	for e := -53; e <= -1; e++ {
		// Float64 sets only the top 53+e+1 bits of a u1 below 2^(e+1).
		step := uint64(1) << (-e - 1)
		for _, m := range []uint64{0, mant &^ (step - 1), hSqrt2&^(step-1) - step, hSqrt2 &^ (step - 1), hSqrt2&^(step-1) + step} {
			if m <= mant {
				u1s = append(u1s, math.Float64frombits(uint64(e+1023)<<52|m))
			}
		}
	}
	u2s := []float64{0, 0x1p-53, 1 - 0x1p-53}
	for k := 1; k < 8; k++ {
		b := float64(k) / 8
		u2s = append(u2s, b-0x1p-53, b, b+0x1p-53)
	}
	eachPath(t, func(t *testing.T) {
		for draw, us := range [][]float64{u1s, u2s} {
			for _, u := range us {
				for pos := 0; pos < 8; pos++ {
					for _, n := range craftedLens(pos) {
						checkFrom(t, fmt.Sprintf("u%d %v (%#016x) at pair %d", draw+1, u, math.Float64bits(u), pos),
							stateBefore(u, pos, draw), n)
					}
				}
			}
		}
	})
}

// TestNormBlockRedrawsZero: a u1 of exactly 0 is drawn again, as Norm
// draws it again, before its u2 is drawn, whichever of a chunk's four
// lanes it falls in, in the first chunk or a later one, in a masked
// tail, and past the block's end, where it is not drawn.
func TestNormBlockRedrawsZero(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		for pos := 0; pos < 8; pos++ {
			state := stateBefore(0, pos, 0)
			r := &Rand{state: state + uint64(2*pos)*golden}
			if r.Float64() != 0 {
				t.Fatalf("crafted state does not draw a u1 of 0 at pair %d", pos)
			}
			for _, n := range append(craftedLens(pos), pos) {
				checkFrom(t, fmt.Sprintf("u1 0 at pair %d", pos), state, n)
			}
		}
	})
}

// unmix64 inverts mix64.
func unmix64(z uint64) uint64 {
	z = unxorshift(z, 31) * 0x319642b2d24d8ec3 // inverse of 0x94d049bb133111eb
	z = unxorshift(z, 27) * 0x96de1b173f119089 // inverse of 0xbf58476d1ce4e5b9
	return unxorshift(z, 30)
}

// unxorshift inverts z ^= z >> s.
func unxorshift(z uint64, s uint) uint64 {
	x := z
	for i := 0; i < 64/int(s)+1; i++ {
		x = z ^ x>>s
	}
	return x
}

// BenchmarkJitterInto times one block of jitters at each length the
// campaign draws: a step's core shares (24), the per-tick read-out
// block of earlier versions (25), a step's voltages (480) and a step's
// PMC read-outs (2000). ns/draw divides by the block length, for
// comparison with BenchmarkNorm. The name says which path normBlock
// took: BenchmarkJitterInto/avx2/24 or BenchmarkJitterInto/go/24.
func BenchmarkJitterInto(b *testing.B) {
	path := "go"
	if haveNormKernel {
		path = "avx2"
	}
	for _, n := range []int{24, 25, 480, 2000} {
		b.Run(fmt.Sprintf("%s/%d", path, n), func(b *testing.B) {
			r := New(1)
			dst := make([]float64, n)
			for i := 0; i < b.N; i++ {
				r.JitterInto(dst, 0.012)
			}
			normSink = dst[n-1]
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/draw")
		})
	}
}

// BenchmarkNorm times one standard normal draw.
func BenchmarkNorm(b *testing.B) {
	r := New(1)
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += r.Norm()
	}
	normSink = sum
}

var normSink float64
