package experiments

import (
	"context"
	"testing"
)

func TestRenderersRegistry(t *testing.T) {
	regs := testCtx(t).Renderers()
	if len(regs) != 18 {
		t.Fatalf("registry has %d entries, want 18 (E1–E17 + hetero)", len(regs))
	}
	seen := make(map[string]bool)
	for _, r := range regs {
		if r.ID == "" || r.Desc == "" || r.Render == nil {
			t.Fatalf("incomplete registry entry: %+v", r)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate renderer id %q", r.ID)
		}
		seen[r.ID] = true
	}
	for _, id := range []string{"table1", "fig2", "table2", "crossplatform"} {
		if !seen[id] {
			t.Fatalf("registry missing %q", id)
		}
	}
}

func TestExperimentsParallelismEquivalence(t *testing.T) {
	// The user-facing determinism contract: the rendered reports —
	// every digit of them — are byte-identical no matter the
	// Parallelism setting. Exercise the experiments that cover all
	// parallelized layers: acquisition (table1), candidate fits
	// (table1, table4), VIF (table1), CV folds (table2).
	serialCfg := DefaultConfig()
	serialCfg.Parallelism = 1
	parCfg := DefaultConfig()
	parCfg.Parallelism = 4
	serial, err := NewContext(context.Background(), serialCfg)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	par, err := NewContext(context.Background(), parCfg)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	for _, id := range []string{"table1", "table2", "table4"} {
		var sOut, pOut string
		for _, r := range serial.Renderers() {
			if r.ID == id {
				sOut, err = r.Render()
			}
		}
		if err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		for _, r := range par.Renderers() {
			if r.ID == id {
				pOut, err = r.Render()
			}
		}
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if sOut == "" || sOut != pOut {
			t.Fatalf("%s differs between Parallelism 1 and 4:\n--- serial ---\n%s\n--- parallel ---\n%s", id, sOut, pOut)
		}
	}
}
