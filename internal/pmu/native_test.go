package pmu

import "testing"

func TestNativeTableConsistency(t *testing.T) {
	// Every programmable preset maps to exactly NativeSlots named
	// natives; fixed presets to none (init panics otherwise, but assert
	// the table directly).
	for _, e := range presets {
		nat := presetNatives[e.Short]
		switch e.Kind {
		case Fixed:
			if len(nat) != 0 {
				t.Fatalf("fixed preset %s has natives %v", e.Short, nat)
			}
		case Programmable:
			if len(nat) != e.NativeSlots {
				t.Fatalf("preset %s: %d natives for %d slots", e.Short, len(nat), e.NativeSlots)
			}
			for _, n := range nat {
				if n == "" {
					t.Fatalf("preset %s has unnamed native", e.Short)
				}
			}
		}
	}
	if n := len(NativeUnion(AllIDs())); n < 30 || n > 80 {
		t.Fatalf("native table has %d events — implausible", n)
	}
}

func TestNativeSharingExists(t *testing.T) {
	// The branch family must share BR_INST_RETIRED.CONDITIONAL — the
	// structural fact EventSet.Schedulable accounts for.
	cn := NativeUnion([]EventID{MustByName("BR_CN").ID})
	prc := NativeUnion([]EventID{MustByName("BR_PRC").ID})
	both := NativeUnion([]EventID{MustByName("BR_CN").ID, MustByName("BR_PRC").ID})
	if len(cn) != 1 || len(prc) != 2 {
		t.Fatalf("unexpected native counts: BR_CN=%d BR_PRC=%d", len(cn), len(prc))
	}
	if len(both) != 2 {
		t.Fatalf("BR_CN ∪ BR_PRC = %d natives, want 2 (shared register)", len(both))
	}
	// BR_MSP + BR_CN together cover everything BR_PRC needs.
	msp := NativeUnion([]EventID{MustByName("BR_CN").ID, MustByName("BR_MSP").ID, MustByName("BR_PRC").ID})
	if len(msp) != 2 {
		t.Fatalf("branch trio needs %d natives, want 2", len(msp))
	}
}

func TestNativeUnionDeterministic(t *testing.T) {
	ids := []EventID{MustByName("LST_INS").ID, MustByName("LD_INS").ID, MustByName("SR_INS").ID}
	a := NativeUnion(ids)
	b := NativeUnion([]EventID{ids[2], ids[0], ids[1]})
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("LST/LD/SR union = %d natives, want 2", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("NativeUnion must be order-independent and sorted")
		}
	}
}
