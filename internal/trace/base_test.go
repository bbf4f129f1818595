package trace

import (
	"encoding/json"
	"testing"

	"repro/internal/spec"
)

// basedTestTrace builds the trace of cycles [base, end), with cycles 10..12
// restricted: one completed reconfiguration when base <= 10.
func basedTestTrace(t *testing.T, base, end int64) *Trace {
	t.Helper()
	tr := &Trace{System: "base-test", Base: base}
	for c := base; c < end; c++ {
		status := StatusNormal
		if c >= 10 && c < 13 {
			status = StatusHalting
		}
		err := tr.Append(SysState{
			Cycle:  c,
			Config: "full",
			Apps:   map[spec.AppID]AppState{"a": {Status: status, Spec: "s", PreOK: true}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// TestBaseKeepsAbsoluteCycles: a trace that starts after cycle 0, as a view
// over a bounded flight-recorder ring does, addresses and reports cycles
// absolutely.
func TestBaseKeepsAbsoluteCycles(t *testing.T) {
	full := basedTestTrace(t, 0, 40).Reconfigs()
	if len(full) != 1 || full[0].StartC != 10 || full[0].EndC != 13 {
		t.Fatalf("whole-execution reconfigs = %+v", full)
	}

	tr := basedTestTrace(t, 8, 40)
	if tr.Base != 8 || tr.Len() != 32 || tr.End() != 40 {
		t.Fatalf("base=%d len=%d end=%d, want 8/32/40", tr.Base, tr.Len(), tr.End())
	}
	if _, ok := tr.At(7); ok {
		t.Fatal("At(7) visible before base")
	}
	s, ok := tr.At(10)
	if !ok || s.Cycle != 10 {
		t.Fatalf("At(10) = %+v, %v", s, ok)
	}
	if got := tr.Reconfigs(); len(got) != 1 || got[0] != full[0] {
		t.Fatalf("based reconfigs = %+v, want %+v", got, full)
	}

	// Append continues at the absolute cycle.
	if err := tr.Append(SysState{Cycle: 40, Config: "full",
		Apps: map[spec.AppID]AppState{"a": {Status: StatusNormal, Spec: "s", PreOK: true}}}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append(SysState{Cycle: 40}); err == nil {
		t.Fatal("non-contiguous append accepted")
	}
	if err := new(Trace).Append(SysState{Cycle: 3}); err == nil {
		t.Fatal("append of cycle 3 to an empty trace at base 0 accepted")
	}
}

func TestBasedTraceJSONRoundTrip(t *testing.T) {
	raw, err := json.Marshal(basedTestTrace(t, 5, 20))
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Base != 5 || back.Len() != 15 {
		t.Fatalf("round trip: base=%d len=%d", back.Base, back.Len())
	}
	// A tampered cycle fails validation against Base.
	back.States[0].Cycle = 99
	raw2, _ := json.Marshal(&back)
	if err := new(Trace).UnmarshalJSON(raw2); err == nil {
		t.Fatal("tampered based trace decoded")
	}
}
