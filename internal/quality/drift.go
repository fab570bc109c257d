package quality

// State is a model's drift state: the three-level verdict the fleet
// layer keys hot-swap and shedding decisions on. The numeric values
// are stable (they are exported as the pmcpowerd_quality_state
// gauge): 0 ok, 1 warn, 2 alert.
type State uint8

const (
	StateOK State = iota
	StateWarn
	StateAlert
)

// String renders the state as its status-endpoint label.
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateWarn:
		return "warn"
	case StateAlert:
		return "alert"
	}
	return "unknown"
}

// Thresholds configures the drift state machine's MAPE triggers. The
// zero value gets production defaults from withDefaults; a field set
// to a negative value disables that trigger entirely.
type Thresholds struct {
	// WarnMAPEPct and AlertMAPEPct are windowed-MAPE bounds in
	// percent. The paper's Table III/IV fits sit in the 1–5% band, so
	// the defaults (10, 20) flag a model that has lost meaningful
	// accuracy without tripping on workload noise.
	WarnMAPEPct  float64
	AlertMAPEPct float64
}

const (
	// warnBiasW and alertBiasW bound |windowed mean signed error| in
	// watts — a systematic offset signal that MAPE alone can hide on
	// high-power nodes.
	warnBiasW  = 5
	alertBiasW = 15
	// hysteresis is the de-escalation ratio: to leave a state, every
	// metric must drop below threshold×hysteresis, so a value
	// oscillating around a threshold cannot flap the state.
	hysteresis = 0.8
)

// MinSamples is the minimum window fill before the machine evaluates
// at all — a two-sample window must not page anyone. A quality window
// smaller than this never evaluates, so pmcpowerd refuses one.
const MinSamples = 32

func (t Thresholds) withDefaults() Thresholds {
	if t.WarnMAPEPct == 0 {
		t.WarnMAPEPct = 10
	}
	if t.AlertMAPEPct == 0 {
		t.AlertMAPEPct = 20
	}
	return t
}

// Machine is the ok → warn → alert drift state machine. Escalation is
// immediate when a windowed metric crosses its threshold;
// de-escalation requires the metrics to fall below the hysteresis
// band (threshold × hysteresis), and steps down one level per
// evaluation at most as far as the plain classification allows.
//
// Machine is not goroutine-safe; Monitor drives it under its lock.
type Machine struct {
	th    Thresholds
	state State
	// transitions counts entries into each state (the initial ok is
	// not an entry).
	transitions [3]uint64
}

// NewMachine returns a machine in StateOK with the given thresholds
// (zero fields defaulted).
func NewMachine(th Thresholds) *Machine {
	return &Machine{th: th.withDefaults()}
}

// State returns the current state.
func (m *Machine) State() State { return m.state }

// Transitions returns how many times the machine has entered s.
func (m *Machine) Transitions(s State) uint64 { return m.transitions[s] }

// classify maps windowed metrics to the severity they plainly
// indicate, with thresholds scaled by the given factor (1 for entry,
// hysteresis for the hold test). Disabled MAPE triggers (negative
// thresholds) never fire.
func (m *Machine) classify(mapePct, absBiasW, scale float64) State {
	t := m.th
	if (t.AlertMAPEPct > 0 && mapePct >= t.AlertMAPEPct*scale) || absBiasW >= alertBiasW*scale {
		return StateAlert
	}
	if (t.WarnMAPEPct > 0 && mapePct >= t.WarnMAPEPct*scale) || absBiasW >= warnBiasW*scale {
		return StateWarn
	}
	return StateOK
}

// Update evaluates the machine against a window snapshot and returns
// the transition it took (changed is false, and from == to, when the
// state held). Windows below MinSamples never change the state.
func (m *Machine) Update(snap WindowSnapshot) (from, to State, changed bool) {
	from, to = m.state, m.state
	if snap.N < MinSamples {
		return from, to, false
	}
	absBias := snap.BiasW
	if absBias < 0 {
		absBias = -absBias
	}
	enter := m.classify(snap.MAPEPct, absBias, 1)
	switch {
	case enter > m.state:
		to = enter
	case enter < m.state:
		// Leaving the current state needs the metrics clear of the
		// hysteresis band; classify with scaled-down thresholds says
		// which severity still holds.
		hold := m.classify(snap.MAPEPct, absBias, hysteresis)
		if hold < m.state {
			to = hold
		}
	}
	if to != from {
		m.state = to
		m.transitions[to]++
		return from, to, true
	}
	return from, to, false
}
