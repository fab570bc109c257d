package rng

// haveNormKernel reports whether normBlock runs normPairs: the CPU has
// AVX2 and the operating system saves its registers. It is decided
// once, at start-up.
var haveNormKernel = hasAVX2()

// normPairs writes to dst the values len(dst) successive Norm calls
// would return from a generator at state, four at a time in AVX2
// (normblock_amd64.s), and returns how many it wrote. It stops short
// only before a chunk of four pairs with a u1 of 0 in a pair it was to
// write, which Norm draws again: the caller draws that pair with Norm.
// It leaves state to the caller, which advances it by two draws per
// pair written.
//
//go:noescape
func normPairs(dst []float64, state uint64) int

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX2 reports AVX2 (CPUID leaf 7, EBX bit 5) on a CPU whose
// operating system saves the YMM registers: leaf 1 reports OSXSAVE and
// AVX, and XCR0 enables the XMM and YMM state (bits 1 and 2).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
