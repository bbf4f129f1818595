package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/envmon"
	"repro/internal/spectest"
)

// driveArtifacts JSON-encodes the trace and the flight-recorder ring of a
// finished run.
func driveArtifacts(t *testing.T, s *System) (tr, ring []byte) {
	t.Helper()
	enc := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	_, rec := s.Telemetry()
	return enc(s.Trace()), enc(rec.Events())
}

// TestInjectFactorMatchesScript holds the drive API to its determinism
// contract: InjectFactor called between frames when Frame() == f produces a
// run byte-identical to a scripted envmon.Event{Frame: f}.
func TestInjectFactorMatchesScript(t *testing.T) {
	scripted, _, _ := buildSystem(t, func(o *Options) {
		o.TraceSeed = 77
		o.Script = []envmon.Event{
			{Frame: 10, Factor: "alt1", Value: "failed"},
			{Frame: 40, Factor: "alt1", Value: "ok"},
		}
	})
	if err := scripted.Run(80); err != nil {
		t.Fatal(err)
	}

	driven, _, _ := buildSystem(t, func(o *Options) { o.TraceSeed = 77 })
	for driven.Frame() < 80 {
		switch driven.Frame() {
		case 10:
			driven.InjectFactor("alt1", "failed")
		case 40:
			driven.InjectFactor("alt1", "ok")
		}
		if err := driven.Step(); err != nil {
			t.Fatal(err)
		}
	}

	sTr, sRing := driveArtifacts(t, scripted)
	dTr, dRing := driveArtifacts(t, driven)
	if !bytes.Equal(sTr, dTr) {
		t.Errorf("trace differs between scripted and driven run:\n scripted: %.400s\n driven:   %.400s", sTr, dTr)
	}
	if !bytes.Equal(sRing, dRing) {
		t.Errorf("flight-recorder ring differs between scripted and driven run")
	}
}

// TestScheduleProcEventMatchesOptions proves runtime-scheduled processor
// events replay identically to the same events declared in Options.
func TestScheduleProcEventMatchesOptions(t *testing.T) {
	events := []ProcEvent{
		{Frame: 15, Proc: "p2", Kind: ProcFail},
		{Frame: 35, Proc: "p2", Kind: ProcRepair},
	}
	scripted, _, _ := buildSystem(t, func(o *Options) {
		o.TraceSeed = 5
		o.Classifier = powerClassifier(true)
		o.ProcEvents = events
	})
	if err := scripted.Run(80); err != nil {
		t.Fatal(err)
	}

	driven, _, _ := buildSystem(t, func(o *Options) {
		o.TraceSeed = 5
		o.Classifier = powerClassifier(true)
	})
	for _, ev := range events {
		if err := driven.ScheduleProcEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := driven.Run(80); err != nil {
		t.Fatal(err)
	}

	sTr, sRing := driveArtifacts(t, scripted)
	dTr, dRing := driveArtifacts(t, driven)
	if !bytes.Equal(sTr, dTr) {
		t.Errorf("trace differs between Options events and ScheduleProcEvent:\n scripted: %.400s\n driven:   %.400s", sTr, dTr)
	}
	if !bytes.Equal(sRing, dRing) {
		t.Errorf("flight-recorder ring differs between Options events and ScheduleProcEvent")
	}
}

func TestScheduleProcEventValidation(t *testing.T) {
	s, _, _ := buildSystem(t, nil)
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleProcEvent(ProcEvent{Frame: 20, Proc: "nope", Kind: ProcFail}); err == nil {
		t.Error("unknown processor accepted")
	}
	if err := s.ScheduleProcEvent(ProcEvent{Frame: 5, Proc: "p2", Kind: ProcFail}); err == nil {
		t.Error("past failure accepted")
	}
	if err := s.ScheduleProcEvent(ProcEvent{Frame: 10, Proc: "p2", Kind: ProcRepair}); err == nil {
		t.Error("repair at the next frame accepted (its application point has passed)")
	}
	if err := s.ScheduleProcEvent(ProcEvent{Frame: 20, Proc: "p2", Kind: 0}); err == nil {
		t.Error("unknown event kind accepted")
	}
	if err := s.ScheduleProcEvent(ProcEvent{Frame: 10, Proc: "p2", Kind: ProcFail}); err != nil {
		t.Errorf("failure at the next frame rejected: %v", err)
	}
}

// TestInjectStorageFault verifies the between-frame storage-fault injection:
// the target halts with the injected fault attributed, its committed storage
// stays pollable, and the system reconfigures around the loss.
func TestInjectStorageFault(t *testing.T) {
	s, _, _ := buildSystem(t, func(o *Options) {
		o.Classifier = powerClassifier(true)
	})
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	if err := s.InjectStorageFault("p2"); err != nil {
		t.Fatal(err)
	}
	if s.ProcAlive("p2") {
		t.Fatal("p2 alive after injected storage fault")
	}
	p, err := s.Pool().Proc("p2")
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(p.StorageFault(), ErrInjectedStorageFault) {
		t.Errorf("storage fault = %v, want ErrInjectedStorageFault", p.StorageFault())
	}
	// Double injection and unknown processors are rejected.
	if err := s.InjectStorageFault("p2"); err == nil {
		t.Error("second injection on a down processor accepted")
	}
	if err := s.InjectStorageFault("nope"); err == nil {
		t.Error("unknown processor accepted")
	}
	// Committed storage is still pollable after the halt.
	if _, err := s.Pool().PollStable("p2"); err != nil {
		t.Errorf("PollStable after storage fault: %v", err)
	}
	// The system detects the halt and keeps running.
	if err := s.Run(40); err != nil {
		t.Fatal(err)
	}
	mustNoViolations(t, s)
	if got := s.Kernel().Current(); got == spectest.CfgFull {
		t.Errorf("system still in full service after losing p2")
	}
}
