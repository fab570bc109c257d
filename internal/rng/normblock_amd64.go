package rng

// normPaths are normBlock's paths, fastest first: the AVX-512 kernel,
// the AVX2 kernel and the Go loop. Each CPU check runs once, at
// start-up. The AVX2 kernel stays for the amd64 CPUs without AVX-512.
var normPaths = []normPath{
	{name: "avx512", pairs: normPairs512, missing: lacks(hasAVX512(), "AVX-512F and AVX-512DQ")},
	{name: "avx2", pairs: normPairs, missing: lacks(hasAVX2(), "AVX2")},
	{name: "go"},
}

// lacks returns "" when the CPU has what feature names, else feature.
func lacks(has bool, feature string) string {
	if has {
		return ""
	}
	return feature
}

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

// normPairs512 is normPairs eight pairs at a time, in AVX-512F and
// AVX-512DQ (normblock512_amd64.s): it stops short only before a chunk
// of eight pairs with a u1 of 0 in a pair it was to write.
//
//go:noescape
func normPairs512(dst []float64, state uint64) int

// clampJitters sets each normal n in dst to jitter(n, rel), four at a
// time in AVX (normblock_amd64.s). rel must be positive, and only a
// CPU that runs a kernel may call it.
//
//go:noescape
func clampJitters(dst []float64, rel float64)

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

// hasAVX512 reports AVX-512F and AVX-512DQ (CPUID leaf 7, EBX bits 16
// and 17) on a CPU with AVX2 whose operating system also saves the
// opmask and ZMM registers: XCR0 bits 5 to 7 besides bits 1 and 2.
func hasAVX512() bool {
	if !hasAVX2() {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xE6 != 0xE6 {
		return false
	}
	const avx512f, avx512dq = 1 << 16, 1 << 17
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(avx512f|avx512dq) == avx512f|avx512dq
}
