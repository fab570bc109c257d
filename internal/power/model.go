// Package power implements the ground-truth power behaviour of the
// simulated node and the calibrated measurement instrumentation that
// observes it.
//
// It stands in for the paper's custom energy measurement setup:
// "The system under test is instrumented with calibrated high
// resolution power sensors at the 12 V inputs to each socket" [1].
//
// The ground truth is deliberately *richer* than any linear function
// of the 54 PAPI presets the modeling workflow can observe:
//
//   - several dynamic components key off hidden activity (DRAM traffic,
//     AVX datapath occupancy, ring transactions, bandwidth saturation);
//   - the AVX datapath contribution is mildly sub-linear;
//   - leakage has a temperature feedback (higher power → hotter silicon
//     → more leakage), solved by fixed-point iteration;
//   - the sensor adds calibration error and noise with a relative
//     component, so absolute error grows with power.
//
// Together these produce the realistic residual structure the paper
// reports: R² ≈ 0.98–0.99 rather than 1.0, MAPE in the mid-single
// digits, and heteroscedastic residuals that motivate the HC3
// estimator.
package power

import (
	"fmt"
	"math"

	"pmcpower/internal/cpusim"
	"pmcpower/internal/rng"
)

// Model is the ground-truth power model of the simulated node. The
// zero value is not usable; construct with DefaultModel.
type Model struct {
	// --- per-core dynamic coefficients, watts per (V² · GHz · rate) ---

	CoreBase      float64 // clock tree + front end, per active core
	CoreIssue     float64 // per issued µop (≈ per instruction)
	CoreFPS       float64 // per scalar FP instruction
	CoreVec       float64 // per vector instruction (see VecExponent)
	CoreL1        float64 // per L1 access (loads+stores)
	CoreL2        float64 // per L2 access
	CoreBranch    float64 // per branch instruction
	CoreMispFlush float64 // per mispredicted branch (flush energy)
	CoreTLBWalk   float64 // per data-TLB miss (page-walker activity)
	CoreFrontend  float64 // per L1I miss (front-end refill machinery)
	CorePeakIssue float64 // per full-width retirement cycle

	// GatingSave is the fraction of CoreBase saved by clock gating
	// during issue-stall cycles — stalled cores burn measurably less,
	// which is what makes stall-cycle counters informative regressors.
	GatingSave float64

	// VecExponent applies a sub-linear law to the vector activity
	// rate: power ∝ rate^VecExponent. Hidden nonlinearity.
	VecExponent float64

	// VRResistOhm models the socket voltage-regulator conversion loss
	// measured at the 12 V inputs: loss = R·(P/12V)² per socket. The
	// quadratic dependence is invisible to the linear model.
	VRResistOhm float64

	// --- uncore (fixed voltage/frequency domain), per socket ---

	UncoreBase  float64 // W, L3+ring idle at operating uncore clock
	UncoreRing  float64 // W per (ring transactions per uncore cycle)
	UncoreSnoop float64 // W per (snoop per uncore cycle)

	// --- memory controller, per socket ---

	IMCPerGBs float64 // W per GB/s of DRAM traffic
	// IMCWritePerGBs is the extra power of write traffic on top of
	// IMCPerGBs (RFO + write-back path costs more per byte).
	IMCWritePerGBs float64
	IMCSatW        float64 // extra W at full bandwidth saturation (×util²)

	// --- static / leakage, per socket ---

	LeakBase   float64 // W at V=1.0, T=TRef
	LeakTCoef  float64 // relative leakage increase per °C above TRef
	TRefC      float64 // reference die temperature
	TAmbientC  float64 // ambient/coolant temperature
	ThetaCperW float64 // thermal resistance die→ambient, °C per W

	// --- board-level constant (the paper's δ·Z term) ---

	SocketConstW float64 // VR base losses etc., per socket
	NodeConstW   float64 // fans/board share on the measured rails

	// SleepCoreW is the residual power of a core parked in a deep
	// C-state, per volt.
	SleepCoreW float64
}

// DefaultModel returns the calibrated ground-truth model for the
// simulated Haswell-EP node. Coefficients are chosen so the node spans
// ≈ 75 W (idle, 1.2 GHz) to ≈ 280 W (24-core AVX, 2.6 GHz), matching
// the magnitude of a real dual E5-2690v3 system at the socket inputs.
func DefaultModel() *Model {
	return &Model{
		CoreBase:      0.48,
		CoreIssue:     0.06,
		CoreFPS:       0.25,
		CoreVec:       0.55,
		CoreL1:        0.04,
		CoreL2:        0.60,
		CoreBranch:    0.08,
		CoreMispFlush: 16.0,
		CoreTLBWalk:   350,
		CoreFrontend:  10,
		CorePeakIssue: 1.00,
		GatingSave:    0.65,
		VecExponent:   0.85,
		VRResistOhm:   0.10,

		UncoreBase:  9.0,
		UncoreRing:  12.0,
		UncoreSnoop: 350.0,

		IMCPerGBs:      0.55,
		IMCWritePerGBs: 0.0,
		IMCSatW:        8.0,

		LeakBase:   7.5,
		LeakTCoef:  0.020,
		TRefC:      45,
		TAmbientC:  28,
		ThetaCperW: 0.45,

		SocketConstW: 7.0,
		NodeConstW:   10.0,

		SleepCoreW: 0.10,
	}
}

// EmbeddedModel returns the ground-truth power model of the simulated
// embedded ARM platform. Deliberately *simpler* than the Haswell
// model: no snoop/ring uncore structure, no quadratic VR losses, no
// temperature feedback, and a linear (not sub-linear) SIMD datapath —
// so the linear Equation-1 regression can capture almost everything,
// reproducing the accuracy gap between Walker et al.'s ARM results
// (MAPE 2.8–3.8 %) and the paper's x86 results (7.5 %).
func EmbeddedModel() *Model {
	return &Model{
		CoreBase:      0.55,
		CoreIssue:     0.25,
		CoreFPS:       0.35,
		CoreVec:       0.60,
		CoreL1:        0.10,
		CoreL2:        1.00,
		CoreBranch:    0.10,
		CoreMispFlush: 5.0,
		CoreTLBWalk:   50,
		CoreFrontend:  5,
		CorePeakIssue: 0.50,
		GatingSave:    0.12,
		VecExponent:   1.0, // linear — no hidden nonlinearity
		VRResistOhm:   0,   // no measurable conversion loss at board level

		UncoreBase:  0.6,
		UncoreRing:  4.0,
		UncoreSnoop: 0,

		IMCPerGBs: 0.30,
		IMCSatW:   0.25,

		LeakBase:   0.5,
		LeakTCoef:  0, // no thermal feedback at these power levels
		TRefC:      45,
		TAmbientC:  30,
		ThetaCperW: 2.0,

		SocketConstW: 1.2,
		NodeConstW:   0.8,

		SleepCoreW: 0.02,
	}
}

// Breakdown reports the ground-truth power decomposition of one
// activity interval, in watts.
type Breakdown struct {
	CoreDynW   float64
	UncoreDynW float64
	IMCW       float64
	StaticW    float64
	ConstW     float64
	TotalW     float64
	// DieTempC is the converged die temperature (hotter socket).
	DieTempC float64
}

// NodePower computes the ground-truth average power of the node over
// the activity interval described by a, executed on platform p. An
// activity whose operating frequency has no P-state on p is an error:
// the invariant "activity was produced by this platform" stops holding
// once activities from one backend can reach another backend's model
// (multi-backend cpusim, scenario replay), so a mismatch must degrade
// instead of panicking.
func (m *Model) NodePower(p *cpusim.Platform, a *cpusim.Activity) (Breakdown, error) {
	ps, err := p.PStateFor(a.FreqMHz)
	if err != nil {
		return Breakdown{}, fmt.Errorf("power: activity/platform mismatch: %w", err)
	}
	v := a.CoreVoltageV
	if v == 0 {
		v = ps.VoltageV
	}
	fGHz := float64(a.FreqMHz) / 1000
	v2f := v * v * fGHz

	totalActive := a.ActiveCores[0] + a.ActiveCores[1]
	if totalActive == 0 {
		totalActive = a.Threads
	}

	// Node-aggregate per-cycle activity rates. Cycles is the node
	// total, so rates are averages across active cores.
	cyc := math.Max(a.Cycles, 1)
	instrRate := a.Instructions / cyc
	fpsRate := (a.SPOps + a.DPOps - 8*a.VecSPIns - 4*a.VecDPIns) / cyc // scalar FLOPs
	if fpsRate < 0 {
		fpsRate = 0
	}
	vecRate := (a.VecSPIns + a.VecDPIns) / cyc
	l1Rate := (a.Loads + a.Stores) / cyc
	l2Rate := (a.L1DMiss() + a.L1IMiss) / cyc
	brRate := a.Branches() / cyc
	mispRate := a.MispCond / cyc
	tlbRate := a.TLBDMiss / cyc
	l1iRate := a.L1IMiss / cyc
	fullRate := a.FullCompleteCycles / cyc
	stallRate := a.StallIssueCycles / cyc
	if stallRate > 1 {
		stallRate = 1
	}

	// Sub-linear AVX datapath law — hidden from the linear model.
	vecTerm := 0.0
	if vecRate > 0 {
		vecTerm = m.CoreVec * math.Pow(vecRate, m.VecExponent)
	}

	perCoreDyn := v2f * (m.CoreBase*(1-m.GatingSave*stallRate) +
		m.CoreIssue*instrRate +
		m.CoreFPS*fpsRate +
		vecTerm +
		m.CoreL1*l1Rate +
		m.CoreL2*l2Rate +
		m.CoreBranch*brRate +
		m.CoreMispFlush*mispRate +
		m.CoreTLBWalk*tlbRate +
		m.CoreFrontend*l1iRate +
		m.CorePeakIssue*fullRate)

	// Duty cycle: cycles already embed it; perCoreDyn derives from
	// rates, so scale by unhalted share of wall time.
	unhaltedShare := cyc / (fGHz * 1e9 * a.DurationS * math.Max(float64(totalActive), 1))
	if unhaltedShare > 1 {
		unhaltedShare = 1
	}
	coreDyn := perCoreDyn * float64(totalActive) * unhaltedShare

	// Parked cores leak a trickle.
	parked := float64(p.TotalCores() - totalActive)
	coreDyn += parked * m.SleepCoreW * v

	// Uncore: both sockets' uncore domains are always powered.
	uncoreCyc := p.UncoreFreqGHz * 1e9 * a.DurationS * float64(p.Sockets)
	ringRate := a.RingTraffic / uncoreCyc
	snoopRate := a.Snoops / uncoreCyc
	uncoreDyn := float64(p.Sockets)*m.UncoreBase +
		m.UncoreRing*ringRate +
		m.UncoreSnoop*snoopRate

	// Memory controllers: linear in traffic plus a saturation knee.
	bwGBs := a.MemBandwidthGBs()
	writeGBs := 0.0
	if a.DurationS > 0 {
		writeGBs = a.MemWriteBytes / a.DurationS / 1e9
	}
	imc := m.IMCPerGBs*bwGBs + m.IMCWritePerGBs*writeGBs +
		m.IMCSatW*a.MemBWUtil*a.MemBWUtil*float64(p.Sockets)

	// Static power with temperature feedback, solved per node by
	// fixed-point iteration (3 rounds converge to < 0.1 W).
	constW := float64(p.Sockets)*m.SocketConstW + m.NodeConstW
	dyn := coreDyn + uncoreDyn + imc
	static := 0.0
	temp := m.TRefC
	vrLoss := 0.0
	for i := 0; i < 5; i++ {
		pkg := dyn + static
		// Hotter socket carries more than half the power; use the
		// node-mean temperature for leakage.
		temp = m.TAmbientC + m.ThetaCperW*(pkg+constW)/float64(p.Sockets)
		leakPerSocket := m.LeakBase * v * (1 + m.LeakTCoef*(temp-m.TRefC))
		static = leakPerSocket * float64(p.Sockets)
		// Quadratic VR conversion loss at the 12 V inputs, per socket.
		iSocket := (pkg / float64(p.Sockets)) / 12.0
		vrLoss = m.VRResistOhm * iSocket * iSocket * float64(p.Sockets)
	}

	return Breakdown{
		CoreDynW:   coreDyn,
		UncoreDynW: uncoreDyn,
		IMCW:       imc,
		StaticW:    static,
		ConstW:     constW + vrLoss,
		TotalW:     coreDyn + uncoreDyn + imc + static + constW + vrLoss,
		DieTempC:   temp,
	}, nil
}

// Sensor models the calibrated high-resolution instrumentation at the
// socket 12 V inputs. Readings carry a per-sensor calibration gain
// error (fixed at construction) and per-sample noise with absolute and
// relative components; averaging over a phase reduces noise with the
// square root of the sample count.
type Sensor struct {
	gain      float64
	offsetW   float64
	noiseAbsW float64
	noiseRel  float64
	rateHz    float64
}

// NewSensor builds a sensor whose calibration error is drawn once from
// rnd: gain within ±0.5 %, offset within ±0.3 W, matching the accuracy
// class of the paper's instrumentation [1].
func NewSensor(rnd *rng.Rand) *Sensor {
	return &Sensor{
		gain:      1 + rnd.NormScaled(0, 0.002),
		offsetW:   rnd.NormScaled(0, 0.15),
		noiseAbsW: 0.25,
		noiseRel:  0.004,
		rateHz:    1000,
	}
}

// PhaseAverage returns the average measured power over a phase of the
// given duration: the mean of duration×rate samples, with the noise
// variance reduced accordingly.
func (s *Sensor) PhaseAverage(trueW, durationS float64, rnd *rng.Rand) float64 {
	n := durationS * s.rateHz
	if n < 1 {
		n = 1
	}
	sigma := (s.noiseAbsW + s.noiseRel*trueW) / math.Sqrt(n)
	return trueW*s.gain + s.offsetW + rnd.NormScaled(0, sigma)
}
