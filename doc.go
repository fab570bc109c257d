// Package pmcpower reproduces "A Statistical Approach to Power
// Estimation for x86 Processors" (Chadha, Ilsche, Bielert, Nagel —
// IPDPSW 2017): a statistically rigorous workflow for building
// run-time CPU power models from performance monitoring counters.
//
// The repository contains the full system the paper describes, built
// from scratch in Go with the real hardware replaced by a calibrated
// simulator:
//
//   - internal/cpusim + internal/power: the dual-socket Haswell-EP
//     platform, its PMU-visible behaviour and its ground-truth power;
//   - internal/pmu: the 54 standardized PAPI preset counters and the
//     hardware multiplexing constraints;
//   - internal/workloads: roco2 synthetic kernels and SPEC OMP2012
//     proxy applications;
//   - internal/trace, internal/metricplugin, internal/phaseprofile,
//     internal/acquisition: the Score-P/OTF2-style acquisition
//     pipeline, from metric plugins through trace archives to phase
//     profiles and regression datasets;
//   - internal/mat + internal/stats: the linear algebra and statistics
//     (OLS, HC0–HC3, VIF, PCC, k-fold CV) the workflow needs;
//   - internal/core: the paper's contribution — Equation-1 feature
//     construction, Algorithm-1 counter selection, model training and
//     the four validation scenarios;
//   - internal/experiments: one function per paper table and figure;
//   - internal/baselines: the related-work comparison models.
//
// See README.md for a quickstart, DESIGN.md for the system inventory
// and EXPERIMENTS.md for the paper-vs-measured comparison. The root
// package holds only tests: the end-to-end pipeline test, the
// pipeline-stage and fit-kernel benchmarks (bench_test.go) and the API
// gate (api_test.go).
package pmcpower
