//go:build !amd64

package rng

// normPaths holds the Go loop alone: only amd64 has kernels, so
// normBlock runs its Go loop. The kernels are listed for the tests,
// which skip them here.
var normPaths = []normPath{
	{name: "avx512", missing: "amd64"},
	{name: "avx2", missing: "amd64"},
	{name: "go"},
}

// clampJitters is never called here: no kernel runs. The Go loop
// keeps its contract.
func clampJitters(dst []float64, rel float64) {
	for i, n := range dst {
		dst[i] = jitter(n, rel)
	}
}
