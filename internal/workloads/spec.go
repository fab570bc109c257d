package workloads

// SPEC OMP2012 proxy applications. Each proxy reproduces the
// macroscopic micro-architectural character of the corresponding SPEC
// application at the level of the phase-profile statistics the paper's
// workflow consumes — multi-phase behaviour, substantially wider
// dynamic ranges than the roco2 kernels (instruction footprints, TLB
// pressure, coherence traffic), and imperfect parallel scaling at 24
// threads.
//
// The four applications the paper excluded because they "failed to
// build or crashed on our test system" (kdtree, imagick, smithwa,
// botsspar) are registered with Excluded=true and skipped by the
// experiment harness, mirroring the paper's evaluated set.

// specThreads: SPEC OMP2012 runs use all cores of the node.
var specThreads = []int{24}

// md — 350.md, molecular dynamics (Fortran). Compute-dominated with
// data-dependent neighbor-list branches; the paper singles out md (with
// compute) as a kernel where BR_MSP carries real information, and notes
// md is consistently overestimated by a synthetic-only model.
var md = register(&Workload{
	Name:        "md",
	Class:       SPEC,
	ThreadSweep: specThreads,
	Description: "350.md proxy: molecular dynamics, FP-heavy with branchy neighbor lists",
	Phases: []Phase{
		{
			Name: "force", Weight: 0.7,
			LoadFrac: 0.26, StoreFrac: 0.08,
			CondBranchFrac: 0.09, UncondBranchFrac: 0.015,
			FPScalarDPFrac: 0.22, VecDPFrac: 0.18, VecWidthDP: 4,
			TakenFrac: 0.55, MispFrac: 0.052,
			L1DMissPKI: 6, L2DMissPKI: 1.4, L3MissPKI: 0.4,
			L1IMissPKI: 0.8, L2IMissPKI: 0.15,
			TLBDMissPKI: 0.12, TLBIMissPKI: 0.05,
			PrefPKI: 3, PrefMissPKI: 0.8,
			BaseIPC: 2.4, FullIssueFrac: 0.4, FullRetireFrac: 0.34,
			MLP: 2.5, SnoopPKI: 0.6, SnoopThreadScale: 0.05,
			ParallelEff: 0.93,
		},
		{
			Name: "neighbor", Weight: 0.3,
			LoadFrac: 0.34, StoreFrac: 0.1,
			CondBranchFrac: 0.17, UncondBranchFrac: 0.02,
			FPScalarDPFrac: 0.08,
			TakenFrac:      0.5, MispFrac: 0.085,
			L1DMissPKI: 14, L2DMissPKI: 4, L3MissPKI: 1.2,
			L1IMissPKI: 1.2, L2IMissPKI: 0.25,
			TLBDMissPKI: 0.5, TLBIMissPKI: 0.08,
			PrefPKI: 2, PrefMissPKI: 0.6,
			BaseIPC: 1.6, FullIssueFrac: 0.12, FullRetireFrac: 0.1,
			MLP: 2, SnoopPKI: 1.2, SnoopThreadScale: 0.09,
			ParallelEff: 0.88,
		},
	},
})

// bwaves — 351.bwaves, blast-wave CFD. Stencil sweeps over large grids:
// bandwidth-bound, prefetch-friendly.
var bwaves = register(&Workload{
	Name:        "bwaves",
	Class:       SPEC,
	ThreadSweep: specThreads,
	Description: "351.bwaves proxy: CFD stencil sweeps, DRAM-bandwidth-bound",
	Phases: []Phase{
		{
			Name: "sweep", Weight: 0.8,
			LoadFrac: 0.38, StoreFrac: 0.12,
			CondBranchFrac: 0.05, UncondBranchFrac: 0.01,
			VecDPFrac: 0.26, VecWidthDP: 4,
			TakenFrac: 0.9, MispFrac: 0.004,
			L1DMissPKI: 42, L2DMissPKI: 30, L3MissPKI: 24,
			L1IMissPKI: 0.5, L2IMissPKI: 0.1,
			TLBDMissPKI: 1.6, TLBIMissPKI: 0.04,
			PrefPKI: 38, PrefMissPKI: 26,
			BaseIPC: 2.5, FullIssueFrac: 0.2, FullRetireFrac: 0.16,
			MLP: 6, SnoopPKI: 1.5, SnoopThreadScale: 0.12,
			ParallelEff: 0.82,
		},
		{
			Name: "solve", Weight: 0.2,
			LoadFrac: 0.3, StoreFrac: 0.1,
			CondBranchFrac: 0.07, UncondBranchFrac: 0.012,
			FPScalarDPFrac: 0.2, VecDPFrac: 0.12, VecWidthDP: 4,
			TakenFrac: 0.8, MispFrac: 0.012,
			L1DMissPKI: 16, L2DMissPKI: 7, L3MissPKI: 3.5,
			L1IMissPKI: 0.6, L2IMissPKI: 0.12,
			TLBDMissPKI: 0.7, TLBIMissPKI: 0.05,
			PrefPKI: 10, PrefMissPKI: 4,
			BaseIPC: 2.1, FullIssueFrac: 0.25, FullRetireFrac: 0.2,
			MLP: 3.5, SnoopPKI: 1.0, SnoopThreadScale: 0.08,
			ParallelEff: 0.85,
		},
	},
})

// nab — 352.nab, molecular modeling in C. Mixed compute with pointer
// chasing; the paper notes nab (with md) is overestimated by
// synthetic-only training.
var nab = register(&Workload{
	Name:        "nab",
	Class:       SPEC,
	ThreadSweep: specThreads,
	Description: "352.nab proxy: molecular modeling, mixed FP and pointer-chasing",
	Phases: []Phase{
		{
			Name: "mme", Weight: 0.6,
			LoadFrac: 0.3, StoreFrac: 0.09,
			CondBranchFrac: 0.11, UncondBranchFrac: 0.025,
			FPScalarDPFrac: 0.24,
			TakenFrac:      0.58, MispFrac: 0.04,
			L1DMissPKI: 9, L2DMissPKI: 2.6, L3MissPKI: 0.9,
			L1IMissPKI: 2.5, L2IMissPKI: 0.5,
			TLBDMissPKI: 0.35, TLBIMissPKI: 0.12,
			PrefPKI: 3, PrefMissPKI: 0.9,
			BaseIPC: 1.9, FullIssueFrac: 0.22, FullRetireFrac: 0.18,
			MLP: 2.2, SnoopPKI: 0.8, SnoopThreadScale: 0.06,
			ParallelEff: 0.9,
		},
		{
			Name: "pairlist", Weight: 0.4,
			LoadFrac: 0.36, StoreFrac: 0.07,
			CondBranchFrac: 0.15, UncondBranchFrac: 0.03,
			FPScalarDPFrac: 0.06,
			TakenFrac:      0.52, MispFrac: 0.06,
			L1DMissPKI: 18, L2DMissPKI: 6, L3MissPKI: 2.2,
			L1IMissPKI: 3, L2IMissPKI: 0.6,
			TLBDMissPKI: 0.9, TLBIMissPKI: 0.15,
			PrefPKI: 2, PrefMissPKI: 0.7,
			BaseIPC: 1.4, FullIssueFrac: 0.09, FullRetireFrac: 0.07,
			MLP: 1.8, SnoopPKI: 1.4, SnoopThreadScale: 0.1,
			ParallelEff: 0.86,
		},
	},
})

// bt331 — 357.bt331, NAS BT block-tridiagonal solver.
var bt331 = register(&Workload{
	Name:        "bt331",
	Class:       SPEC,
	ThreadSweep: specThreads,
	Description: "357.bt331 proxy: block-tridiagonal CFD solver",
	Phases: []Phase{
		{
			Name: "rhs", Weight: 0.5,
			LoadFrac: 0.34, StoreFrac: 0.13,
			CondBranchFrac: 0.05, UncondBranchFrac: 0.01,
			VecDPFrac: 0.2, VecWidthDP: 4, FPScalarDPFrac: 0.1,
			TakenFrac: 0.88, MispFrac: 0.006,
			L1DMissPKI: 22, L2DMissPKI: 11, L3MissPKI: 6,
			L1IMissPKI: 1.8, L2IMissPKI: 0.35,
			TLBDMissPKI: 0.8, TLBIMissPKI: 0.1,
			PrefPKI: 16, PrefMissPKI: 7,
			BaseIPC: 2.3, FullIssueFrac: 0.3, FullRetireFrac: 0.25,
			MLP: 4, SnoopPKI: 1.1, SnoopThreadScale: 0.09,
			ParallelEff: 0.87,
		},
		{
			Name: "solve", Weight: 0.5,
			LoadFrac: 0.3, StoreFrac: 0.11,
			CondBranchFrac: 0.06, UncondBranchFrac: 0.012,
			FPScalarDPFrac: 0.26, VecDPFrac: 0.08, VecWidthDP: 4,
			TakenFrac: 0.85, MispFrac: 0.01,
			L1DMissPKI: 10, L2DMissPKI: 3.5, L3MissPKI: 1.4,
			L1IMissPKI: 2.2, L2IMissPKI: 0.4,
			TLBDMissPKI: 0.4, TLBIMissPKI: 0.12,
			PrefPKI: 6, PrefMissPKI: 1.8,
			BaseIPC: 2.0, FullIssueFrac: 0.26, FullRetireFrac: 0.21,
			MLP: 2.8, SnoopPKI: 0.9, SnoopThreadScale: 0.07,
			ParallelEff: 0.88,
		},
	},
})

// botsalgn — 358.botsalgn, protein alignment with OpenMP tasks.
// Integer- and branch-heavy with significant instruction footprint.
var botsalgn = register(&Workload{
	Name:        "botsalgn",
	Class:       SPEC,
	ThreadSweep: specThreads,
	Description: "358.botsalgn proxy: task-parallel protein alignment, integer/branch heavy",
	Phases: []Phase{{
		Name: "align", Weight: 1,
		LoadFrac: 0.32, StoreFrac: 0.1,
		CondBranchFrac: 0.19, UncondBranchFrac: 0.04,
		FPScalarSPFrac: 0.04, VecSPFrac: 0.02, VecWidthSP: 8,
		TakenFrac: 0.45, MispFrac: 0.032,
		L1DMissPKI: 5, L2DMissPKI: 1.2, L3MissPKI: 0.3,
		L1IMissPKI: 4, L2IMissPKI: 0.9,
		TLBDMissPKI: 0.2, TLBIMissPKI: 0.25,
		PrefPKI: 1.5, PrefMissPKI: 0.4,
		BaseIPC: 2.2, FullIssueFrac: 0.3, FullRetireFrac: 0.26,
		MLP: 1.6, SnoopPKI: 0.7, SnoopThreadScale: 0.06,
		ParallelEff: 0.94,
	}},
})

// ilbdc — 360.ilbdc, lattice-Boltzmann flow solver. The most
// bandwidth-hungry SPEC workload with irregular (list-based) access —
// high data TLB pressure. The paper observes its *maximum* model error
// on ilbdc.
var ilbdc = register(&Workload{
	Name:        "ilbdc",
	Class:       SPEC,
	ThreadSweep: specThreads,
	Description: "360.ilbdc proxy: lattice-Boltzmann kernel, extreme bandwidth + dTLB pressure",
	Phases: []Phase{{
		Name: "stream-collide", Weight: 1,
		LoadFrac: 0.42, StoreFrac: 0.2,
		CondBranchFrac: 0.04, UncondBranchFrac: 0.008,
		FPScalarDPFrac: 0.18,
		TakenFrac:      0.93, MispFrac: 0.003,
		L1DMissPKI: 58, L2DMissPKI: 46, L3MissPKI: 40,
		StoreMissShare: 0.35,
		L1IMissPKI:     0.4, L2IMissPKI: 0.08,
		TLBDMissPKI: 3.2, TLBIMissPKI: 0.03,
		PrefPKI: 30, PrefMissPKI: 18,
		BaseIPC: 2.2, FullIssueFrac: 0.1, FullRetireFrac: 0.08,
		MLP: 5, MemWriteCycFrac: 0.12,
		SnoopPKI: 2.2, SnoopThreadScale: 0.16,
		ParallelEff: 0.75,
	}},
})

// fma3d — 362.fma3d, finite-element crash simulation. Enormous code
// footprint: the instruction-side caches and iTLB dominate its
// character.
var fma3d = register(&Workload{
	Name:        "fma3d",
	Class:       SPEC,
	ThreadSweep: specThreads,
	Description: "362.fma3d proxy: FEM crash simulation, large instruction footprint",
	Phases: []Phase{
		{
			Name: "element", Weight: 0.65,
			LoadFrac: 0.3, StoreFrac: 0.12,
			CondBranchFrac: 0.1, UncondBranchFrac: 0.05,
			FPScalarDPFrac: 0.2,
			TakenFrac:      0.6, MispFrac: 0.025,
			L1DMissPKI: 12, L2DMissPKI: 4, L3MissPKI: 1.6,
			L1IMissPKI: 14, L2IMissPKI: 3.5,
			TLBDMissPKI: 0.6, TLBIMissPKI: 0.9,
			PrefPKI: 5, PrefMissPKI: 1.5,
			BaseIPC: 1.5, FullIssueFrac: 0.1, FullRetireFrac: 0.08,
			MLP: 2, SnoopPKI: 1.0, SnoopThreadScale: 0.08,
			ParallelEff: 0.84,
		},
		{
			Name: "assembly", Weight: 0.35,
			LoadFrac: 0.34, StoreFrac: 0.16,
			CondBranchFrac: 0.12, UncondBranchFrac: 0.06,
			FPScalarDPFrac: 0.1,
			TakenFrac:      0.55, MispFrac: 0.035,
			L1DMissPKI: 20, L2DMissPKI: 8, L3MissPKI: 3.2,
			L1IMissPKI: 18, L2IMissPKI: 4.5,
			TLBDMissPKI: 1.0, TLBIMissPKI: 1.3,
			PrefPKI: 4, PrefMissPKI: 1.2,
			BaseIPC: 1.2, FullIssueFrac: 0.06, FullRetireFrac: 0.05,
			MLP: 1.8, SnoopPKI: 1.6, SnoopThreadScale: 0.12,
			ParallelEff: 0.8,
		},
	},
})

// swim — 363.swim, shallow-water modeling. Classic streaming triad
// style loops: second most bandwidth-bound after ilbdc.
var swim = register(&Workload{
	Name:        "swim",
	Class:       SPEC,
	ThreadSweep: specThreads,
	Description: "363.swim proxy: shallow-water stencils, streaming bandwidth-bound",
	Phases: []Phase{{
		Name: "calc", Weight: 1,
		LoadFrac: 0.4, StoreFrac: 0.16,
		CondBranchFrac: 0.04, UncondBranchFrac: 0.006,
		VecDPFrac: 0.22, VecWidthDP: 4,
		TakenFrac: 0.95, MispFrac: 0.002,
		L1DMissPKI: 50, L2DMissPKI: 38, L3MissPKI: 32,
		StoreMissShare: 0.3,
		L1IMissPKI:     0.2, L2IMissPKI: 0.04,
		TLBDMissPKI: 1.9, TLBIMissPKI: 0.02,
		PrefPKI: 44, PrefMissPKI: 30,
		BaseIPC: 2.4, FullIssueFrac: 0.14, FullRetireFrac: 0.11,
		MLP: 6, MemWriteCycFrac: 0.1,
		SnoopPKI: 1.8, SnoopThreadScale: 0.14,
		ParallelEff: 0.78,
	}},
})

// mgrid331 — 370.mgrid331, multigrid solver. Alternates between
// bandwidth-bound fine grids and cache-resident coarse grids.
var mgrid331 = register(&Workload{
	Name:        "mgrid331",
	Class:       SPEC,
	ThreadSweep: specThreads,
	Description: "370.mgrid331 proxy: multigrid V-cycles, alternating locality",
	Phases: []Phase{
		{
			Name: "fine", Weight: 0.6,
			LoadFrac: 0.38, StoreFrac: 0.12,
			CondBranchFrac: 0.04, UncondBranchFrac: 0.008,
			VecDPFrac: 0.24, VecWidthDP: 4,
			TakenFrac: 0.93, MispFrac: 0.003,
			L1DMissPKI: 36, L2DMissPKI: 24, L3MissPKI: 18,
			L1IMissPKI: 0.3, L2IMissPKI: 0.06,
			TLBDMissPKI: 1.2, TLBIMissPKI: 0.03,
			PrefPKI: 30, PrefMissPKI: 18,
			BaseIPC: 2.4, FullIssueFrac: 0.18, FullRetireFrac: 0.15,
			MLP: 5, SnoopPKI: 1.2, SnoopThreadScale: 0.1,
			ParallelEff: 0.8,
		},
		{
			Name: "coarse", Weight: 0.4,
			LoadFrac: 0.34, StoreFrac: 0.1,
			CondBranchFrac: 0.07, UncondBranchFrac: 0.015,
			VecDPFrac: 0.18, VecWidthDP: 4, FPScalarDPFrac: 0.08,
			TakenFrac: 0.85, MispFrac: 0.012,
			L1DMissPKI: 8, L2DMissPKI: 2, L3MissPKI: 0.5,
			L1IMissPKI: 0.4, L2IMissPKI: 0.08,
			TLBDMissPKI: 0.2, TLBIMissPKI: 0.04,
			PrefPKI: 5, PrefMissPKI: 1.2,
			BaseIPC: 2.6, FullIssueFrac: 0.35, FullRetireFrac: 0.3,
			MLP: 3, SnoopPKI: 0.8, SnoopThreadScale: 0.06,
			ParallelEff: 0.86,
		},
	},
})

// applu331 — 371.applu331, SSOR solver with wavefront parallelism.
var applu331 = register(&Workload{
	Name:        "applu331",
	Class:       SPEC,
	ThreadSweep: specThreads,
	Description: "371.applu331 proxy: SSOR wavefront solver",
	Phases: []Phase{
		{
			Name: "jacld-blts", Weight: 0.55,
			LoadFrac: 0.33, StoreFrac: 0.12,
			CondBranchFrac: 0.06, UncondBranchFrac: 0.012,
			FPScalarDPFrac: 0.22, VecDPFrac: 0.1, VecWidthDP: 4,
			TakenFrac: 0.82, MispFrac: 0.009,
			L1DMissPKI: 18, L2DMissPKI: 8, L3MissPKI: 4,
			L1IMissPKI: 1.6, L2IMissPKI: 0.3,
			TLBDMissPKI: 0.7, TLBIMissPKI: 0.09,
			PrefPKI: 12, PrefMissPKI: 5,
			BaseIPC: 1.9, FullIssueFrac: 0.2, FullRetireFrac: 0.16,
			MLP: 3, SnoopPKI: 1.3, SnoopThreadScale: 0.11,
			ParallelEff: 0.74,
		},
		{
			Name: "rhs", Weight: 0.45,
			LoadFrac: 0.36, StoreFrac: 0.13,
			CondBranchFrac: 0.05, UncondBranchFrac: 0.01,
			VecDPFrac: 0.2, VecWidthDP: 4,
			TakenFrac: 0.9, MispFrac: 0.005,
			L1DMissPKI: 26, L2DMissPKI: 14, L3MissPKI: 9,
			L1IMissPKI: 1.0, L2IMissPKI: 0.2,
			TLBDMissPKI: 0.9, TLBIMissPKI: 0.06,
			PrefPKI: 20, PrefMissPKI: 10,
			BaseIPC: 2.2, FullIssueFrac: 0.22, FullRetireFrac: 0.18,
			MLP: 4.5, SnoopPKI: 1.1, SnoopThreadScale: 0.09,
			ParallelEff: 0.8,
		},
	},
})

// --- Excluded applications (paper §IV: failed to build or crashed) ---

// kdtree — 376.kdtree, excluded by the paper.
var kdtree = register(&Workload{
	Name:        "kdtree",
	Class:       SPEC,
	Excluded:    true,
	ThreadSweep: specThreads,
	Description: "376.kdtree proxy (excluded: failed to build on the paper's system)",
	Phases: []Phase{{
		Name: "search", Weight: 1,
		LoadFrac: 0.4, StoreFrac: 0.05,
		CondBranchFrac: 0.2, UncondBranchFrac: 0.05,
		TakenFrac: 0.5, MispFrac: 0.09,
		L1DMissPKI: 25, L2DMissPKI: 12, L3MissPKI: 6,
		L1IMissPKI: 2, L2IMissPKI: 0.4,
		TLBDMissPKI: 2.5, TLBIMissPKI: 0.1,
		PrefPKI: 1, PrefMissPKI: 0.3,
		BaseIPC: 1.1, FullIssueFrac: 0.04, FullRetireFrac: 0.03,
		MLP: 1.5, SnoopPKI: 1.5, SnoopThreadScale: 0.12,
		ParallelEff: 0.85,
	}},
})

// imagick — 367.imagick, excluded by the paper.
var imagick = register(&Workload{
	Name:        "imagick",
	Class:       SPEC,
	Excluded:    true,
	ThreadSweep: specThreads,
	Description: "367.imagick proxy (excluded: crashed on the paper's system)",
	Phases: []Phase{{
		Name: "convolve", Weight: 1,
		LoadFrac: 0.35, StoreFrac: 0.12,
		CondBranchFrac: 0.08, UncondBranchFrac: 0.02,
		VecSPFrac: 0.25, VecWidthSP: 8,
		TakenFrac: 0.8, MispFrac: 0.01,
		L1DMissPKI: 10, L2DMissPKI: 3, L3MissPKI: 1,
		L1IMissPKI: 1.5, L2IMissPKI: 0.3,
		TLBDMissPKI: 0.3, TLBIMissPKI: 0.08,
		PrefPKI: 6, PrefMissPKI: 1.5,
		BaseIPC: 2.6, FullIssueFrac: 0.4, FullRetireFrac: 0.34,
		MLP: 3, SnoopPKI: 0.6, SnoopThreadScale: 0.05,
		ParallelEff: 0.92,
	}},
})

// smithwa — 372.smithwa, excluded by the paper.
var smithwa = register(&Workload{
	Name:        "smithwa",
	Class:       SPEC,
	Excluded:    true,
	ThreadSweep: specThreads,
	Description: "372.smithwa proxy (excluded: failed to build on the paper's system)",
	Phases: []Phase{{
		Name: "sw", Weight: 1,
		LoadFrac: 0.3, StoreFrac: 0.14,
		CondBranchFrac: 0.18, UncondBranchFrac: 0.03,
		TakenFrac: 0.55, MispFrac: 0.02,
		L1DMissPKI: 7, L2DMissPKI: 2, L3MissPKI: 0.6,
		L1IMissPKI: 1, L2IMissPKI: 0.2,
		TLBDMissPKI: 0.25, TLBIMissPKI: 0.06,
		PrefPKI: 3, PrefMissPKI: 0.8,
		BaseIPC: 2.3, FullIssueFrac: 0.32, FullRetireFrac: 0.28,
		MLP: 2, SnoopPKI: 0.9, SnoopThreadScale: 0.07,
		ParallelEff: 0.9,
	}},
})

// botsspar — 359.botsspar, excluded by the paper.
var botsspar = register(&Workload{
	Name:        "botsspar",
	Class:       SPEC,
	Excluded:    true,
	ThreadSweep: specThreads,
	Description: "359.botsspar proxy (excluded: crashed on the paper's system)",
	Phases: []Phase{{
		Name: "lu", Weight: 1,
		LoadFrac: 0.33, StoreFrac: 0.13,
		CondBranchFrac: 0.07, UncondBranchFrac: 0.02,
		FPScalarDPFrac: 0.2,
		TakenFrac:      0.75, MispFrac: 0.015,
		L1DMissPKI: 15, L2DMissPKI: 6, L3MissPKI: 2.5,
		L1IMissPKI: 2, L2IMissPKI: 0.4,
		TLBDMissPKI: 0.6, TLBIMissPKI: 0.1,
		PrefPKI: 8, PrefMissPKI: 3,
		BaseIPC: 1.8, FullIssueFrac: 0.18, FullRetireFrac: 0.15,
		MLP: 2.5, SnoopPKI: 1.2, SnoopThreadScale: 0.1,
		ParallelEff: 0.82,
	}},
})
