package core

import (
	"reflect"
	"testing"

	"repro/internal/frame"
	"repro/internal/spec"
	"repro/internal/spectest"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// viewOptions is the trace-view tests' system: the environment changes
// every churnEvery frames, and processor p2 fails at frame 125 and is
// repaired at frame 175.
func viewOptions(telemetryCapacity int, churnEvery int64) Options {
	opts := benchOptions(telemetryCapacity, churnEvery)
	opts.Classifier = powerClassifier(true)
	opts.ProcEvents = []ProcEvent{
		{Frame: 125, Proc: "p2", Kind: ProcFail},
		{Frame: 175, Proc: "p2", Kind: ProcRepair},
	}
	return opts
}

// TestTraceViewSameWithTelemetryOff: the trace is a view over the ring's
// frame-state samples, and a system with telemetry disabled keeps a private
// ring of samples, so both arms of the overhead benchmark record the same
// trace and reach the same SP1-SP4 verdict. The script changes the
// environment every 20 frames and fails and repairs a processor.
func TestTraceViewSameWithTelemetryOff(t *testing.T) {
	const frames = 300
	run := func(telemetryCapacity int) *System {
		t.Helper()
		s, err := NewSystem(viewOptions(telemetryCapacity, 20))
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		t.Cleanup(s.Close)
		if err := s.Run(frames); err != nil {
			t.Fatal(err)
		}
		return s
	}
	off, on := run(-1), run(0)

	if reg, rec := off.Telemetry(); reg != nil || rec != nil {
		t.Fatalf("telemetry-off system exposes telemetry: registry %v, recorder %v", reg, rec)
	}
	offTr, onTr := off.Trace(), on.Trace()
	if offTr.Base != 0 || offTr.Len() != frames {
		t.Fatalf("telemetry-off trace covers [%d,%d), want [0,%d)", offTr.Base, offTr.End(), frames)
	}
	if !reflect.DeepEqual(offTr, onTr) {
		t.Fatal("telemetry-off trace differs from the telemetry-on trace")
	}
	if st, _ := offTr.At(125); st.Apps[spectest.AppFCS].Status != trace.StatusInterrupted {
		t.Fatalf("fcs at the p2 failure frame is %v, want interrupted", st.Apps[spectest.AppFCS].Status)
	}
	if n := len(offTr.Reconfigs()); n < 10 {
		t.Fatalf("trace holds %d reconfigurations, want the churn's", n)
	}
	offV, onV := off.CheckProperties(), on.CheckProperties()
	if !reflect.DeepEqual(offV, onV) || len(offV) != 0 {
		t.Fatalf("SP1-SP4 verdicts: telemetry off %v, on %v; want both empty", offV, onV)
	}
}

// TestTraceViewMatchesPerFrameState: the view re-expands run-length-encoded
// samples, so it must reproduce the state recordHook computes every frame.
// A user hook, which runs after every built-in hook, records that scratch
// state frame by frame through a processor failure and repair and through
// churn fast enough that the dwell guard defers some changes, so the
// environment alone changes in some frames; the view must equal the record
// on both telemetry arms.
func TestTraceViewMatchesPerFrameState(t *testing.T) {
	const frames = 300
	for _, telemetryCapacity := range []int{0, -1} {
		s, err := NewSystem(viewOptions(telemetryCapacity, 8))
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		t.Cleanup(s.Close)
		var want []trace.SysState
		s.AddCommitHook(func(ctx frame.Context) error {
			apps := make(map[spec.AppID]trace.AppState, len(s.curApps))
			for i, decl := range s.rs.Apps {
				a := s.curApps[i]
				apps[decl.ID] = trace.AppState{Status: a.Status, Spec: a.Spec, PreOK: a.PreOK}
			}
			want = append(want, trace.SysState{Cycle: ctx.Frame, Config: s.curCfg, Env: s.curEnv, Apps: apps})
			return nil
		})
		if err := s.Run(frames); err != nil {
			t.Fatal(err)
		}
		got := s.Trace()
		if got.Base != 0 || !reflect.DeepEqual(got.States, want) {
			t.Fatalf("capacity %d: view [%d,%d) differs from the %d per-frame states recordHook computed",
				telemetryCapacity, got.Base, got.End(), len(want))
		}
		envOnly := 0
		for c := 1; c < len(want); c++ {
			prev, cur := want[c-1], want[c]
			if cur.Env != prev.Env && cur.Config == prev.Config && reflect.DeepEqual(cur.Apps, prev.Apps) {
				envOnly++
			}
		}
		if envOnly == 0 {
			t.Fatalf("capacity %d: no frame changed the environment alone", telemetryCapacity)
		}
	}
}

// TestTraceViewCapacityWindow: without retention the view covers what the
// default ring holds, which on viewOptions' system first evicts a
// frame-state sample at about frame 3.4k. At every frame count from 3455 to
// 3555 the view still ends at the last executed frame and starts after
// cycle 0, at an all-normal state even where the oldest surviving sample
// lies inside a reconfiguration, so SP1-SP4 hold over it; and from its Base
// on it equals the view of a same-script run whose ring never evicts.
func TestTraceViewCapacityWindow(t *testing.T) {
	const first, last = 3455, 3555
	build := func(telemetryCapacity int) *System {
		t.Helper()
		s, err := NewSystem(viewOptions(telemetryCapacity, 20))
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		t.Cleanup(s.Close)
		if tr := s.Trace(); tr.Len() != 0 || tr.End() != 0 {
			t.Fatalf("fresh system's trace covers [%d,%d), want empty", tr.Base, tr.End())
		}
		return s
	}
	allNormal := func(st trace.SysState) bool {
		for _, a := range st.Apps {
			if !a.Status.Normal() {
				return false
			}
		}
		return true
	}

	unevicted := build(1 << 20)
	if err := unevicted.Run(last); err != nil {
		t.Fatal(err)
	}
	full := unevicted.Trace()
	if full.Base != 0 || full.Len() != last {
		t.Fatalf("unevicted view covers [%d,%d), want [0,%d)", full.Base, full.End(), last)
	}

	bounded := build(0)
	if err := bounded.Run(first); err != nil {
		t.Fatal(err)
	}
	if _, rec := bounded.Telemetry(); rec.Dropped() == 0 {
		t.Fatalf("default ring (%d events) evicted nothing in %d frames", telemetry.DefaultCapacity, first)
	}
	cut := 0 // views whose oldest surviving sample lies inside a reconfiguration
	for n := int64(first); n <= last; n++ {
		if n > first {
			if err := bounded.Step(); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range bounded.states.Events() {
			if e.Kind == telemetry.KindFrameState {
				if e.Frame > 0 && !allNormal(full.States[e.Frame-1]) {
					cut++
				}
				break
			}
		}
		view := bounded.Trace()
		if view.End() != n || view.Base <= 0 {
			t.Fatalf("after %d frames the view covers [%d,%d), want [>0,%d)", n, view.Base, view.End(), n)
		}
		if st, _ := view.At(view.Base); !allNormal(st) {
			t.Fatalf("after %d frames the view starts inside a reconfiguration at cycle %d: %v", n, view.Base, st.Apps)
		}
		if v := bounded.CheckProperties(); len(v) != 0 {
			t.Fatalf("after %d frames, view [%d,%d): %d violations, first %v", n, view.Base, view.End(), len(v), v[0])
		}
		if !reflect.DeepEqual(view.States, full.States[view.Base:n]) {
			t.Fatalf("after %d frames the bounded view differs from the unevicted view's tail", n)
		}
	}
	if cut == 0 {
		t.Fatalf("no ring between frames %d and %d lost the start of a reconfiguration: nothing tested", first, last)
	}
	t.Logf("%d of %d rings had lost the start of a reconfiguration", cut, last-first+1)
}
