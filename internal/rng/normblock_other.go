//go:build !amd64

package rng

// haveNormKernel is false: only amd64 has a normPairs kernel, so
// normBlock runs its Go loop.
var haveNormKernel = false

// normPairs is never called here. Writing no pair keeps its contract:
// normBlock would draw every pair with Norm.
func normPairs([]float64, uint64) int { return 0 }
