package rng

import (
	"math"
	"runtime"
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
	check(0)
	check(0x1p-53)
	check(math.Nextafter(1, 0))
	for k := 0; k <= 8; k++ {
		b := float64(k) / 8
		for _, u := range []float64{math.Nextafter(b, -1), b, math.Nextafter(b, 2)} {
			if 0 <= u && u < 1 {
				check(u)
			}
		}
	}
	r := New(20261019)
	for i := 0; i < 10_000_000; i++ {
		check(r.Float64())
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
