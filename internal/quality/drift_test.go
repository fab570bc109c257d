package quality

import "testing"

// snap builds a minimal window snapshot for machine tests.
func snap(n int, mapePct, biasW float64) WindowSnapshot {
	return WindowSnapshot{N: n, MAPEPct: mapePct, BiasW: biasW}
}

func TestMachineEscalationAndHysteresis(t *testing.T) {
	m := NewMachine(Thresholds{WarnMAPEPct: 10, AlertMAPEPct: 20})
	if m.State() != StateOK {
		t.Fatalf("initial state %v", m.State())
	}

	// Below 32 samples nothing moves, however bad the window looks.
	if _, _, changed := m.Update(snap(31, 99, 99)); changed || m.State() != StateOK {
		t.Fatalf("state moved on an underfilled window: %v", m.State())
	}

	// Healthy window: ok.
	m.Update(snap(32, 3, 0.5))
	if m.State() != StateOK {
		t.Fatalf("healthy window: %v", m.State())
	}

	// MAPE crosses warn.
	if from, to, changed := m.Update(snap(32, 12, 0.5)); !changed || from != StateOK || to != StateWarn {
		t.Fatalf("warn escalation = %v->%v changed=%v", from, to, changed)
	}
	// ... then alert.
	if _, to, changed := m.Update(snap(32, 25, 0.5)); !changed || to != StateAlert {
		t.Fatalf("alert escalation failed: %v", to)
	}
	if m.Transitions(StateWarn) != 1 || m.Transitions(StateAlert) != 1 {
		t.Fatalf("transition counts warn=%d alert=%d", m.Transitions(StateWarn), m.Transitions(StateAlert))
	}

	// Inside the hysteresis band (alert×0.8 = 16): alert holds.
	if _, _, changed := m.Update(snap(32, 17, 0.5)); changed || m.State() != StateAlert {
		t.Fatalf("hysteresis band did not hold alert: %v", m.State())
	}
	// Clear of the band but above warn×0.8: steps down to warn only.
	if from, to, changed := m.Update(snap(32, 12, 0.5)); !changed || from != StateAlert || to != StateWarn {
		t.Fatalf("de-escalation = %v->%v changed=%v", from, to, changed)
	}
	// Warn holds inside its own band (warn×0.8 = 8).
	if _, _, changed := m.Update(snap(32, 9, 0.5)); changed || m.State() != StateWarn {
		t.Fatalf("hysteresis band did not hold warn: %v", m.State())
	}
	// Fully recovered.
	if _, to, changed := m.Update(snap(32, 3, 0.5)); !changed || to != StateOK {
		t.Fatalf("recovery failed: %v", to)
	}
	if m.Transitions(StateOK) != 1 {
		t.Fatalf("ok entries = %d, want 1", m.Transitions(StateOK))
	}
	// A full window exactly at the alert MAPE enters alert.
	if _, to, changed := m.Update(snap(MinSamples, 20, 0.5)); !changed || to != StateAlert {
		t.Fatalf("MAPE at the alert threshold: %v changed=%v, want alert", to, changed)
	}
}

func TestMachineBiasTrigger(t *testing.T) {
	m := NewMachine(Thresholds{})
	// Defaults applied.
	if th := m.th; th.WarnMAPEPct != 10 || th.AlertMAPEPct != 20 {
		t.Fatalf("defaults = %+v", th)
	}
	// A negative bias beyond the 15 W alert bound trips alert even with
	// a tiny MAPE (systematic underestimation on a high-power node).
	if _, to, changed := m.Update(snap(32, 1, -16)); !changed || to != StateAlert {
		t.Fatalf("bias alert = %v changed=%v", to, changed)
	}
}

func TestMachineDisabledTrigger(t *testing.T) {
	m := NewMachine(Thresholds{WarnMAPEPct: -1, AlertMAPEPct: -1}) // MAPE triggers off
	if _, _, changed := m.Update(snap(32, 99, 0)); changed {
		t.Fatalf("disabled MAPE trigger fired")
	}
	// Exactly the 5 W warn bias enters warn.
	if _, to, _ := m.Update(snap(MinSamples, 99, -5)); to != StateWarn {
		t.Fatalf("|bias| at the warn threshold: %v, want warn", to)
	}
	if _, to, _ := m.Update(snap(32, 99, 6)); to != StateWarn {
		t.Fatalf("bias trigger should still fire: %v", to)
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		StateOK: "ok", StateWarn: "warn", StateAlert: "alert", State(9): "unknown",
	} {
		if st.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
}
