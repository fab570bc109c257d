package workloads

// roco2-style synthetic workload kernels. Each kernel exercises one
// corner of the machine with a steady, narrow profile, and is run at a
// sweep of thread counts (the roco2 workload generator steps through
// thread placements). Mirrors the kernels referenced by the paper:
// sqrt and compute are named explicitly; the memory kernels provide
// the bandwidth corner; addpd/mulpd the AVX corner; idle the baseline.

// roco2Sweep is the thread-count ladder used by the synthetic kernels
// on the 24-core node.
var roco2Sweep = []int{1, 2, 4, 8, 12, 16, 20, 24}

// idle sits in deep C-states with only housekeeping activity.
var idle = register(&Workload{
	Name:        "idle",
	Class:       Synthetic,
	ThreadSweep: roco2Sweep,
	Description: "busy-waiting-free idle loop; cores in deep C-states",
	Phases: []Phase{{
		Name:     "idle",
		Weight:   1,
		LoadFrac: 0.15, StoreFrac: 0.08,
		CondBranchFrac: 0.18, UncondBranchFrac: 0.03,
		TakenFrac: 0.6, MispFrac: 0.02,
		L1DMissPKI: 2, L2DMissPKI: 0.8, L3MissPKI: 0.3,
		L1IMissPKI: 1.5, L2IMissPKI: 0.4,
		TLBDMissPKI: 0.05, TLBIMissPKI: 0.03,
		PrefPKI: 0.5, PrefMissPKI: 0.2,
		BaseIPC: 0.8, FullIssueFrac: 0.02, FullRetireFrac: 0.02,
		MLP: 1.5, SnoopPKI: 0.05, SnoopThreadScale: 0.002,
		ParallelEff: 1.0,
		DutyCycle:   0.015,
	}},
})

// compute is a register-resident integer ALU loop with a
// data-dependent conditional, giving it the highest branch
// misprediction rate of the synthetic kernels (the paper notes BR_MSP
// "has relatively high values" for compute and md).
var compute = register(&Workload{
	Name:        "compute",
	Class:       Synthetic,
	ThreadSweep: roco2Sweep,
	Description: "register-resident integer arithmetic with data-dependent branches",
	Phases: []Phase{{
		Name:     "alu",
		Weight:   1,
		LoadFrac: 0.04, StoreFrac: 0.02,
		CondBranchFrac: 0.16, UncondBranchFrac: 0.01,
		TakenFrac: 0.48, MispFrac: 0.075,
		L1DMissPKI: 0.05, L2DMissPKI: 0.02, L3MissPKI: 0.01,
		L1IMissPKI: 0.01, L2IMissPKI: 0.003,
		TLBDMissPKI: 0.001, TLBIMissPKI: 0.0005,
		PrefPKI: 0.02, PrefMissPKI: 0.005,
		BaseIPC: 3.4, FullIssueFrac: 0.62, FullRetireFrac: 0.55,
		MLP: 1, SnoopPKI: 0.01, SnoopThreadScale: 0.0005,
		ParallelEff: 1.0,
	}},
})

// sqrt chains scalar double-precision square roots; the divider unit
// serializes the pipeline, so IPC — and power — is low. The paper
// observes the minimum model error on this kernel.
var sqrt = register(&Workload{
	Name:        "sqrt",
	Class:       Synthetic,
	ThreadSweep: roco2Sweep,
	Description: "dependent scalar DP square-root chain (divider-bound)",
	Phases: []Phase{{
		Name:     "sqrt",
		Weight:   1,
		LoadFrac: 0.02, StoreFrac: 0.01,
		CondBranchFrac: 0.05, UncondBranchFrac: 0.005,
		FPScalarDPFrac: 0.55,
		TakenFrac:      0.95, MispFrac: 0.001,
		L1DMissPKI: 0.02, L2DMissPKI: 0.008, L3MissPKI: 0.003,
		L1IMissPKI: 0.005, L2IMissPKI: 0.001,
		TLBDMissPKI: 0.0005, TLBIMissPKI: 0.0003,
		PrefPKI: 0.01, PrefMissPKI: 0.002,
		BaseIPC: 0.28, FullIssueFrac: 0.01, FullRetireFrac: 0.01,
		MLP: 1, SnoopPKI: 0.005, SnoopThreadScale: 0.0002,
		ParallelEff: 1.0,
	}},
})

// matmul is a blocked DGEMM: AVX-heavy with good cache blocking.
var matmul = register(&Workload{
	Name:        "matmul",
	Class:       Synthetic,
	ThreadSweep: roco2Sweep,
	Description: "blocked double-precision matrix multiply (AVX, cache-blocked)",
	Phases: []Phase{{
		Name:     "dgemm",
		Weight:   1,
		LoadFrac: 0.28, StoreFrac: 0.06,
		CondBranchFrac: 0.04, UncondBranchFrac: 0.005,
		VecDPFrac: 0.46, VecWidthDP: 4,
		TakenFrac: 0.92, MispFrac: 0.002,
		L1DMissPKI: 9, L2DMissPKI: 2.2, L3MissPKI: 0.6,
		L1IMissPKI: 0.02, L2IMissPKI: 0.004,
		TLBDMissPKI: 0.06, TLBIMissPKI: 0.0008,
		PrefPKI: 6, PrefMissPKI: 1.2,
		BaseIPC: 3.1, FullIssueFrac: 0.68, FullRetireFrac: 0.6,
		MLP: 4, SnoopPKI: 0.05, SnoopThreadScale: 0.004,
		ParallelEff: 0.97,
	}},
})

// sinus evaluates sin(x) in a loop — a libm-style polynomial kernel.
var sinus = register(&Workload{
	Name:        "sinus",
	Class:       Synthetic,
	ThreadSweep: roco2Sweep,
	Description: "scalar sine evaluation loop (polynomial + range reduction)",
	Phases: []Phase{{
		Name:     "sin",
		Weight:   1,
		LoadFrac: 0.12, StoreFrac: 0.04,
		CondBranchFrac: 0.11, UncondBranchFrac: 0.02,
		FPScalarDPFrac: 0.42, FPScalarSPFrac: 0.02,
		TakenFrac: 0.7, MispFrac: 0.008,
		L1DMissPKI: 0.3, L2DMissPKI: 0.08, L3MissPKI: 0.02,
		L1IMissPKI: 0.05, L2IMissPKI: 0.01,
		TLBDMissPKI: 0.002, TLBIMissPKI: 0.001,
		PrefPKI: 0.1, PrefMissPKI: 0.02,
		BaseIPC: 1.9, FullIssueFrac: 0.22, FullRetireFrac: 0.18,
		MLP: 1.2, SnoopPKI: 0.01, SnoopThreadScale: 0.0005,
		ParallelEff: 1.0,
	}},
})

// memoryRead streams reads over a working set far beyond the LLC.
var memoryRead = register(&Workload{
	Name:        "memory_read",
	Class:       Synthetic,
	ThreadSweep: roco2Sweep,
	Description: "streaming reads over a 4 GiB buffer (DRAM-bandwidth-bound)",
	Phases: []Phase{{
		Name:     "stream-read",
		Weight:   1,
		LoadFrac: 0.55, StoreFrac: 0.02,
		CondBranchFrac: 0.06, UncondBranchFrac: 0.005,
		TakenFrac: 0.97, MispFrac: 0.0008,
		L1DMissPKI: 68, L2DMissPKI: 62, L3MissPKI: 58,
		L1IMissPKI: 0.01, L2IMissPKI: 0.002,
		TLBDMissPKI: 1.1, TLBIMissPKI: 0.0005,
		PrefPKI: 66, PrefMissPKI: 52,
		BaseIPC: 2.6, FullIssueFrac: 0.12, FullRetireFrac: 0.1,
		MLP: 9, SnoopPKI: 0.3, SnoopThreadScale: 0.02,
		ParallelEff: 0.92,
	}},
})

// memoryReadL3 streams reads over a working set that fits the shared
// L3 but not L2: heavy L2-miss traffic that is satisfied on-chip, with
// almost no DRAM accesses. Separates ring/L3 activity from memory
// controller activity.
var memoryReadL3 = register(&Workload{
	Name:        "memory_read_l3",
	Class:       Synthetic,
	ThreadSweep: roco2Sweep,
	Description: "streaming reads over an L3-resident buffer (ring-bound, no DRAM)",
	Phases: []Phase{{
		Name:     "stream-l3",
		Weight:   1,
		LoadFrac: 0.55, StoreFrac: 0.02,
		CondBranchFrac: 0.06, UncondBranchFrac: 0.005,
		TakenFrac: 0.97, MispFrac: 0.0008,
		L1DMissPKI: 66, L2DMissPKI: 58, L3MissPKI: 1.5,
		L1IMissPKI: 0.01, L2IMissPKI: 0.002,
		TLBDMissPKI: 0.25, TLBIMissPKI: 0.0005,
		PrefPKI: 60, PrefMissPKI: 40,
		BaseIPC: 2.6, FullIssueFrac: 0.14, FullRetireFrac: 0.12,
		MLP: 9, SnoopPKI: 0.4, SnoopThreadScale: 0.03,
		ParallelEff: 0.95,
	}},
})

// memoryWrite streams non-temporal-free stores (RFO traffic).
var memoryWrite = register(&Workload{
	Name:        "memory_write",
	Class:       Synthetic,
	ThreadSweep: roco2Sweep,
	Description: "streaming stores over a 4 GiB buffer (write-bandwidth-bound)",
	Phases: []Phase{{
		Name:     "stream-write",
		Weight:   1,
		LoadFrac: 0.06, StoreFrac: 0.5,
		CondBranchFrac: 0.06, UncondBranchFrac: 0.005,
		TakenFrac: 0.97, MispFrac: 0.0008,
		L1DMissPKI: 64, L2DMissPKI: 58, L3MissPKI: 54,
		StoreMissShare: 0.92,
		L1IMissPKI:     0.01, L2IMissPKI: 0.002,
		TLBDMissPKI: 1.0, TLBIMissPKI: 0.0005,
		PrefPKI: 30, PrefMissPKI: 22,
		BaseIPC: 2.2, FullIssueFrac: 0.1, FullRetireFrac: 0.08,
		MLP: 7, MemWriteCycFrac: 0.3,
		SnoopPKI: 0.5, SnoopThreadScale: 0.03,
		ParallelEff: 0.9,
	}},
})

// memoryCopy combines the two streams.
var memoryCopy = register(&Workload{
	Name:        "memory_copy",
	Class:       Synthetic,
	ThreadSweep: roco2Sweep,
	Description: "memcpy-style copy between two 2 GiB buffers",
	Phases: []Phase{{
		Name:     "copy",
		Weight:   1,
		LoadFrac: 0.3, StoreFrac: 0.28,
		CondBranchFrac: 0.06, UncondBranchFrac: 0.005,
		TakenFrac: 0.97, MispFrac: 0.0008,
		L1DMissPKI: 66, L2DMissPKI: 60, L3MissPKI: 55,
		StoreMissShare: 0.5,
		L1IMissPKI:     0.01, L2IMissPKI: 0.002,
		TLBDMissPKI: 1.05, TLBIMissPKI: 0.0005,
		PrefPKI: 50, PrefMissPKI: 40,
		BaseIPC: 2.4, FullIssueFrac: 0.11, FullRetireFrac: 0.09,
		MLP: 8, MemWriteCycFrac: 0.15,
		SnoopPKI: 0.4, SnoopThreadScale: 0.025,
		ParallelEff: 0.9,
	}},
})

// addpd saturates the AVX add pipes from L1-resident data.
var addpd = register(&Workload{
	Name:        "addpd",
	Class:       Synthetic,
	ThreadSweep: roco2Sweep,
	Description: "256-bit packed DP add loop on L1-resident data",
	Phases: []Phase{{
		Name:     "addpd",
		Weight:   1,
		LoadFrac: 0.22, StoreFrac: 0.1,
		CondBranchFrac: 0.03, UncondBranchFrac: 0.003,
		VecDPFrac: 0.58, VecWidthDP: 4,
		TakenFrac: 0.97, MispFrac: 0.0005,
		L1DMissPKI: 0.1, L2DMissPKI: 0.03, L3MissPKI: 0.01,
		L1IMissPKI: 0.005, L2IMissPKI: 0.001,
		TLBDMissPKI: 0.001, TLBIMissPKI: 0.0003,
		PrefPKI: 0.05, PrefMissPKI: 0.01,
		BaseIPC: 3.8, FullIssueFrac: 0.88, FullRetireFrac: 0.82,
		MLP: 1, SnoopPKI: 0.005, SnoopThreadScale: 0.0002,
		ParallelEff: 1.0,
	}},
})

// mulpd saturates the AVX multiply pipes; slightly hotter than addpd.
var mulpd = register(&Workload{
	Name:        "mulpd",
	Class:       Synthetic,
	ThreadSweep: roco2Sweep,
	Description: "256-bit packed DP multiply loop on L1-resident data",
	Phases: []Phase{{
		Name:     "mulpd",
		Weight:   1,
		LoadFrac: 0.22, StoreFrac: 0.1,
		CondBranchFrac: 0.03, UncondBranchFrac: 0.003,
		VecDPFrac: 0.6, VecWidthDP: 4,
		TakenFrac: 0.97, MispFrac: 0.0005,
		L1DMissPKI: 0.1, L2DMissPKI: 0.03, L3MissPKI: 0.01,
		L1IMissPKI: 0.005, L2IMissPKI: 0.001,
		TLBDMissPKI: 0.001, TLBIMissPKI: 0.0003,
		PrefPKI: 0.05, PrefMissPKI: 0.01,
		BaseIPC: 3.75, FullIssueFrac: 0.86, FullRetireFrac: 0.8,
		MLP: 1, SnoopPKI: 0.005, SnoopThreadScale: 0.0002,
		ParallelEff: 1.0,
	}},
})
