package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bus"

	"repro/internal/envmon"
	"repro/internal/failstop"
	"repro/internal/frame"
	"repro/internal/scram"
	"repro/internal/spec"
	"repro/internal/spectest"
	"repro/internal/stable"
	"repro/internal/trace"
)

// testApp is a reference reconfigurable application: it counts work units in
// stable storage and completes every phase in one frame. Knobs seed
// deliberate misbehaviour for violation tests.
type testApp struct {
	id spec.AppID

	// breakPrecondition makes Precondition report false, seeding an SP4
	// violation.
	breakPrecondition bool

	steps, halts, preps, inits int
	halted                     bool
}

func (a *testApp) ID() spec.AppID { return a.id }

func (a *testApp) Step(env *FrameEnv) error {
	a.steps++
	a.halted = false
	n, _ := env.Store.GetInt64("count")
	env.Store.PutInt64("count", n+1)
	env.Store.PutString("spec", string(env.Spec))
	return nil
}

func (a *testApp) Halt(env *FrameEnv) (bool, error) {
	a.halts++
	a.halted = true
	env.Store.PutString("post", "established")
	return true, nil
}

func (a *testApp) Prepare(env *FrameEnv, target spec.SpecID) (bool, error) {
	a.preps++
	env.Store.PutString("prepared-for", string(target))
	return true, nil
}

func (a *testApp) Init(env *FrameEnv, target spec.SpecID) (bool, error) {
	a.inits++
	env.Store.PutString("spec", string(target))
	return true, nil
}

func (a *testApp) Postcondition() bool { return a.halted }

func (a *testApp) Precondition(spec.SpecID) bool { return !a.breakPrecondition }

// powerClassifier maps alternator health factors to the canonical power
// states. failedProcMeansReduced additionally treats a p2 failure as a
// reduced-power condition, so processor loss drives reconfiguration in the
// processor-failure tests.
func powerClassifier(failedProcMeansReduced bool) envmon.Classifier {
	return func(f map[envmon.Factor]string) spec.EnvState {
		ok := 0
		for _, alt := range []envmon.Factor{"alt1", "alt2"} {
			if f[alt] == "ok" {
				ok++
			}
		}
		state := spectest.EnvBattery
		switch ok {
		case 2:
			state = spectest.EnvFull
		case 1:
			state = spectest.EnvReduced
		}
		if failedProcMeansReduced && f[ProcHealthFactor("p2")] == ProcFailed && state == spectest.EnvFull {
			state = spectest.EnvReduced
		}
		return state
	}
}

// buildSystem wires the canonical system with test apps.
func buildSystem(t *testing.T, mutate func(*Options)) (*System, *testApp, *testApp) {
	t.Helper()
	ap := &testApp{id: spectest.AppAP}
	fcs := &testApp{id: spectest.AppFCS}
	opts := Options{
		Spec: spectest.ThreeConfig(),
		Apps: map[spec.AppID]App{
			spectest.AppAP:  ap,
			spectest.AppFCS: fcs,
		},
		Classifier: powerClassifier(false),
		InitialFactors: map[envmon.Factor]string{
			"alt1": "ok",
			"alt2": "ok",
		},
	}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := NewSystem(opts)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	t.Cleanup(s.Close)
	return s, ap, fcs
}

func mustNoViolations(t *testing.T, s *System) {
	t.Helper()
	if vs := s.CheckProperties(); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("violation: %s", v)
		}
		t.Fatal("properties violated")
	}
}

func TestSteadyStateNoReconfiguration(t *testing.T) {
	s, ap, fcs := buildSystem(t, nil)
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	if got := s.Kernel().Current(); got != spectest.CfgFull {
		t.Fatalf("current = %s", got)
	}
	if ap.steps != 20 || fcs.steps != 20 {
		t.Errorf("steps = %d/%d, want 20/20", ap.steps, fcs.steps)
	}
	if rcs := s.Trace().Reconfigs(); len(rcs) != 0 {
		t.Errorf("unexpected reconfigurations: %v", rcs)
	}
	mustNoViolations(t, s)
}

// TestAlternatorFailureDrivesReconfiguration is the paper's section 7.1
// scenario: an alternator fails in Full Service, the electrical system
// reports the reduced power state, and the SCRAM commands the change to
// Reduced Service using the Table 1 sequence.
func TestAlternatorFailureDrivesReconfiguration(t *testing.T) {
	s, ap, fcs := buildSystem(t, func(o *Options) {
		o.Script = []envmon.Event{{Frame: 5, Factor: "alt1", Value: "failed"}}
	})
	if err := s.Run(15); err != nil {
		t.Fatal(err)
	}
	if got := s.Kernel().Current(); got != spectest.CfgReduced {
		t.Fatalf("current = %s, want reduced", got)
	}
	rcs := s.Trace().Reconfigs()
	if len(rcs) != 1 {
		t.Fatalf("reconfigurations = %v, want exactly 1", rcs)
	}
	r := rcs[0]
	// Trigger at 5; halt 6; prepare 7; init 8 (fcs) and 9 (autopilot,
	// init dependency); all normal again at 9.
	if r.StartC != 5 || r.EndC != 9 || r.From != spectest.CfgFull || r.To != spectest.CfgReduced {
		t.Errorf("reconfiguration = %+v", r)
	}
	if ap.halts == 0 || ap.preps == 0 || ap.inits == 0 {
		t.Errorf("autopilot phases not exercised: %+v", ap)
	}
	if fcs.inits != 1 {
		t.Errorf("fcs inits = %d, want 1", fcs.inits)
	}
	mustNoViolations(t, s)

	// The trace records the monitor as the interrupted application at
	// start_c.
	st, _ := s.Trace().At(5)
	if st.Apps[spectest.AppMonitor].Status != trace.StatusInterrupted {
		t.Errorf("monitor status at start_c = %v", st.Apps[spectest.AppMonitor].Status)
	}
	// p2 hosts nothing in reduced service: orderly shutdown.
	p2, _ := s.Pool().Proc("p2")
	if p2.State() != failstop.StateOff {
		t.Errorf("p2 state = %v, want off", p2.State())
	}
}

// TestDegradationChain drives Full -> Reduced -> Minimal through two
// alternator losses, then repairs back up to Full, checking configuration,
// power modes, and all four properties along the way.
func TestDegradationChain(t *testing.T) {
	s, _, _ := buildSystem(t, func(o *Options) {
		o.Spec.DwellFrames = 2
		o.Script = []envmon.Event{
			{Frame: 5, Factor: "alt1", Value: "failed"},
			{Frame: 20, Factor: "alt2", Value: "failed"},
			{Frame: 40, Factor: "alt1", Value: "ok"},
			{Frame: 60, Factor: "alt2", Value: "ok"},
		}
	})
	if err := s.Run(80); err != nil {
		t.Fatal(err)
	}
	if got := s.Kernel().Current(); got != spectest.CfgFull {
		t.Fatalf("final configuration = %s, want full after repairs", got)
	}
	rcs := s.Trace().Reconfigs()
	if len(rcs) != 4 {
		t.Fatalf("reconfigurations = %d, want 4 (%v)", len(rcs), rcs)
	}
	wantSeq := [][2]spec.ConfigID{
		{spectest.CfgFull, spectest.CfgReduced},
		{spectest.CfgReduced, spectest.CfgMinimal},
		{spectest.CfgMinimal, spectest.CfgReduced},
		{spectest.CfgReduced, spectest.CfgFull},
	}
	for i, want := range wantSeq {
		if rcs[i].From != want[0] || rcs[i].To != want[1] {
			t.Errorf("reconfiguration %d = %s->%s, want %s->%s",
				i, rcs[i].From, rcs[i].To, want[0], want[1])
		}
	}
	mustNoViolations(t, s)

	// During minimal service the autopilot was off: find a cycle in
	// minimal and check.
	for _, st := range s.Trace().States {
		if st.Config == spectest.CfgMinimal && st.Apps[spectest.AppAP].Status == trace.StatusNormal {
			if st.Apps[spectest.AppAP].Spec != spec.SpecOff {
				t.Errorf("autopilot spec in minimal = %s, want off", st.Apps[spectest.AppAP].Spec)
			}
			break
		}
	}
}

// TestProcessorFailureMigratesState fails the FCS's processor and checks
// that the application is recorded interrupted, the system reconfigures,
// and the FCS resumes on p1 from the state last committed on p2 — the
// fail-stop stable-storage guarantee end to end.
func TestProcessorFailureMigratesState(t *testing.T) {
	s, _, fcs := buildSystem(t, func(o *Options) {
		o.Classifier = powerClassifier(true)
		o.ProcEvents = []ProcEvent{{Frame: 5, Proc: "p2", Kind: ProcFail}}
	})
	if err := s.Run(15); err != nil {
		t.Fatal(err)
	}
	if got := s.Kernel().Current(); got != spectest.CfgReduced {
		t.Fatalf("current = %s, want reduced", got)
	}
	mustNoViolations(t, s)

	// At the trigger frame the FCS (running on dead p2) is interrupted.
	st, _ := s.Trace().At(5)
	if st.Apps[spectest.AppFCS].Status != trace.StatusInterrupted {
		t.Errorf("fcs status at failure frame = %v", st.Apps[spectest.AppFCS].Status)
	}

	// The FCS stepped frames 0-4 committed (frame 5's write died with
	// p2), so the migrated counter is 5; post-reconfiguration steps
	// resume from there on p1.
	p1, _ := s.Pool().Proc("p1")
	region := p1.Stable().Region("app/" + string(spectest.AppFCS))
	n, err := region.GetInt64("count")
	if err != nil {
		t.Fatalf("migrated count: %v", err)
	}
	postSteps := int64(fcs.steps) - 6 // steps 0-5 ran pre-failure (frame 5 discarded)
	if want := 5 + postSteps; n != want {
		t.Errorf("count = %d, want %d (5 committed pre-failure + %d after)", n, want, postSteps)
	}
	if v, _ := region.GetString("spec"); v != "fcs-direct" {
		t.Errorf("spec on p1 = %q, want fcs-direct", v)
	}
}

// TestSCRAMStandbyTakeover fails the SCRAM's processor in the same frame a
// reconfiguration should trigger: the standby restores the kernel from the
// failed processor's stable storage and completes the protocol.
func TestSCRAMStandbyTakeover(t *testing.T) {
	s, _, _ := buildSystem(t, func(o *Options) {
		o.Classifier = powerClassifier(true)
		o.SCRAMProc = "p2"
		o.StandbyProc = "p1"
		o.ProcEvents = []ProcEvent{{Frame: 5, Proc: "p2", Kind: ProcFail}}
	})
	if err := s.Run(15); err != nil {
		t.Fatal(err)
	}
	at, ok := s.TookOverAt()
	if !ok || at != 5 {
		t.Fatalf("takeover = %d,%v; want frame 5", at, ok)
	}
	if got := s.Kernel().Current(); got != spectest.CfgReduced {
		t.Fatalf("current = %s, want reduced", got)
	}
	mustNoViolations(t, s)
}

// TestSCRAMDeathWithoutStandbyStallsVisibly removes the standby: the dead
// SCRAM writes no more commands, the interrupted FCS never recovers, and the
// open-window SP3 check reports the stall.
func TestSCRAMDeathWithoutStandbyStallsVisibly(t *testing.T) {
	s, _, _ := buildSystem(t, func(o *Options) {
		o.Classifier = powerClassifier(true)
		o.SCRAMProc = "p2"
		o.ProcEvents = []ProcEvent{{Frame: 5, Proc: "p2", Kind: ProcFail}}
	})
	if err := s.Run(30); err != nil {
		t.Fatal(err)
	}
	vs := s.CheckProperties()
	found := false
	for _, v := range vs {
		if v.Property == "SP3" {
			found = true
		}
	}
	if !found {
		t.Fatalf("stalled reconfiguration not reported; violations = %v", vs)
	}
}

// TestSeededSP4Violation breaks the autopilot's precondition: the
// reconfiguration completes on schedule but SP4 must catch the unsatisfied
// precondition.
func TestSeededSP4Violation(t *testing.T) {
	s, ap, _ := buildSystem(t, func(o *Options) {
		o.Script = []envmon.Event{{Frame: 5, Factor: "alt1", Value: "failed"}}
	})
	ap.breakPrecondition = true
	if err := s.Run(15); err != nil {
		t.Fatal(err)
	}
	vs := s.CheckProperties()
	if len(vs) == 0 {
		t.Fatal("broken precondition not detected")
	}
	for _, v := range vs {
		if v.Property != "SP4" {
			t.Errorf("unexpected violation: %s", v)
		}
	}
}

// TestSeededSP3Violation undersizes a transition bound (bypassing the
// static obligations, as the paper's framework would never allow): the
// runtime window exceeds it and SP3 reports the overrun.
func TestSeededSP3Violation(t *testing.T) {
	s, _, _ := buildSystem(t, func(o *Options) {
		o.Script = []envmon.Event{{Frame: 5, Factor: "alt1", Value: "failed"}}
		for i := range o.Spec.Transitions {
			tr := &o.Spec.Transitions[i]
			if tr.From == spectest.CfgFull && tr.To == spectest.CfgReduced {
				tr.MaxFrames = 3 // required window is 5
			}
		}
		o.SkipObligations = true
	})
	if err := s.Run(15); err != nil {
		t.Fatal(err)
	}
	vs := s.CheckProperties()
	found := false
	for _, v := range vs {
		if v.Property == "SP3" {
			found = true
		}
	}
	if !found {
		t.Fatalf("undersized bound not detected; violations = %v", vs)
	}
}

func TestObligationFailureRefusesConstruction(t *testing.T) {
	rs := spectest.ThreeConfig()
	rs.DwellFrames = 0 // transition graph has cycles: dwell_guard fails
	_, err := NewSystem(Options{
		Spec:       rs,
		Apps:       map[spec.AppID]App{spectest.AppAP: &testApp{id: spectest.AppAP}, spectest.AppFCS: &testApp{id: spectest.AppFCS}},
		Classifier: powerClassifier(false),
	})
	var oe *ObligationError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want ObligationError", err)
	}
	if len(oe.Report.Failures()) == 0 {
		t.Error("ObligationError carries no failures")
	}
}

func TestConstructionValidation(t *testing.T) {
	rs := spectest.ThreeConfig()
	apps := map[spec.AppID]App{
		spectest.AppAP:  &testApp{id: spectest.AppAP},
		spectest.AppFCS: &testApp{id: spectest.AppFCS},
	}
	classifier := powerClassifier(false)

	if _, err := NewSystem(Options{Apps: apps, Classifier: classifier}); err == nil {
		t.Error("nil spec accepted")
	}
	if _, err := NewSystem(Options{Spec: rs, Apps: apps}); err == nil {
		t.Error("nil classifier accepted")
	}
	missing := map[spec.AppID]App{spectest.AppAP: apps[spectest.AppAP]}
	if _, err := NewSystem(Options{Spec: rs, Apps: missing, Classifier: classifier}); err == nil {
		t.Error("missing app implementation accepted")
	}
	extra := map[spec.AppID]App{
		spectest.AppAP:  apps[spectest.AppAP],
		spectest.AppFCS: apps[spectest.AppFCS],
		"ghost":         &testApp{id: "ghost"},
	}
	if _, err := NewSystem(Options{Spec: rs, Apps: extra, Classifier: classifier}); err == nil {
		t.Error("extra app implementation accepted")
	}
	if _, err := NewSystem(Options{Spec: rs, Apps: apps, Classifier: classifier, SCRAMProc: "ghost"}); err == nil {
		t.Error("unknown SCRAM proc accepted")
	}
	if _, err := NewSystem(Options{Spec: rs, Apps: apps, Classifier: classifier, StandbyProc: "ghost"}); err == nil {
		t.Error("unknown standby proc accepted")
	}
	if _, err := NewSystem(Options{Spec: rs, Apps: apps, Classifier: classifier, SCRAMProc: "p1", StandbyProc: "p1"}); err == nil {
		t.Error("standby == primary accepted")
	}
}

func TestRunUntilAndFrame(t *testing.T) {
	s, _, _ := buildSystem(t, nil)
	fired, err := s.RunUntil(50, func() bool { return s.Frame() >= 7 })
	if err != nil || !fired {
		t.Fatalf("RunUntil = %v, %v", fired, err)
	}
	if s.Frame() != 7 {
		t.Errorf("Frame = %d", s.Frame())
	}
	if s.Report() == nil || !s.Report().AllDischarged() {
		t.Error("report missing or undischarged")
	}
	if s.Env() == nil || s.Pool() == nil || s.Trace() == nil {
		t.Error("accessor returned nil")
	}
}

// TestRetentionBoundsKernelLog: under churn the SCRAM kernel's protocol log
// follows the retention horizon — after every frame each entry lies within
// the last two windows, and what is left is exactly the tail of the
// complete log — while a system without retention keeps the whole log from
// the first signal on.
func TestRetentionBoundsKernelLog(t *testing.T) {
	const retain, frames = 64, 5000
	run := func(retainFrames int64) *System {
		t.Helper()
		opts := benchOptions(0, 20)
		opts.RetainFrames = retainFrames
		s, err := NewSystem(opts)
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		t.Cleanup(s.Close)
		for s.Frame() < frames {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
			if retainFrames == 0 {
				continue
			}
			for _, e := range s.Kernel().Events() {
				if e.Frame < s.Frame()-2*retain {
					t.Fatalf("after frame %d the kernel log still holds %v, older than 2x%d frames",
						s.Frame()-1, e, retain)
				}
			}
		}
		return s
	}

	full := run(0).Kernel().Events()
	if len(full) == 0 || full[0].Kind != scram.EventSignal || full[0].Frame != 10 {
		t.Fatalf("unretained log starts %v, want the first signal at frame 10", full[:min(1, len(full))])
	}
	kept := run(retain).Kernel().Events()
	if len(kept) == 0 || len(kept) >= len(full) {
		t.Fatalf("retained log holds %d of %d events", len(kept), len(full))
	}
	tail := full[len(full)-len(kept):]
	for i := range kept {
		if kept[i] != tail[i] {
			t.Fatalf("retained log[%d] = %v, want the complete log's %v", i, kept[i], tail[i])
		}
	}
}

// TestRepeatedCampaignDeterminism runs the same scripted scenario twice and
// requires identical traces — the determinism the barrier scheduler, the
// hook ordering, and the frame-boundary delivery are designed to give.
func TestRepeatedCampaignDeterminism(t *testing.T) {
	run := func() *trace.Trace {
		s, _, _ := buildSystem(t, func(o *Options) {
			o.Spec.DwellFrames = 2
			o.Script = []envmon.Event{
				{Frame: 4, Factor: "alt1", Value: "failed"},
				{Frame: 12, Factor: "alt2", Value: "failed"},
				{Frame: 25, Factor: "alt1", Value: "ok"},
			}
		})
		if err := s.Run(40); err != nil {
			t.Fatal(err)
		}
		return s.Trace()
	}
	t1, t2 := run(), run()
	if t1.Len() != t2.Len() {
		t.Fatalf("trace lengths differ: %d vs %d", t1.Len(), t2.Len())
	}
	for c := int64(0); c < t1.Len(); c++ {
		s1, _ := t1.At(c)
		s2, _ := t2.At(c)
		if s1.Config != s2.Config || s1.Env != s2.Env {
			t.Fatalf("cycle %d differs: %+v vs %+v", c, s1, s2)
		}
		for id, a1 := range s1.Apps {
			if a2 := s2.Apps[id]; a1 != a2 {
				t.Fatalf("cycle %d app %s differs: %+v vs %+v", c, id, a1, a2)
			}
		}
	}
}

// busApp publishes a heartbeat on the bus each step and counts what it
// hears from its peer.
type busApp struct {
	testApp
	topic    string
	peer     string
	received int
}

func (a *busApp) Step(env *FrameEnv) error {
	if env.Bus != nil {
		if err := env.Bus.Publish(a.topic, []byte("hb")); err != nil {
			return err
		}
		env.Bus.Subscribe(a.peer)
		a.received += len(env.Bus.Receive())
	}
	return a.testApp.Step(env)
}

func TestBusWiredIntoApps(t *testing.T) {
	ap := &busApp{testApp: testApp{id: spectest.AppAP}, topic: "ap/hb", peer: "fcs/hb"}
	fcs := &busApp{testApp: testApp{id: spectest.AppFCS}, topic: "fcs/hb", peer: "ap/hb"}
	s, err := NewSystem(Options{
		Spec: spectest.ThreeConfig(),
		Apps: map[spec.AppID]App{
			spectest.AppAP:  ap,
			spectest.AppFCS: fcs,
		},
		Classifier:     powerClassifier(false),
		InitialFactors: map[envmon.Factor]string{"alt1": "ok", "alt2": "ok"},
		BusSchedule: bus.Schedule{
			{Owner: bus.EndpointID(spectest.AppAP), MaxMessages: 2},
			{Owner: bus.EndpointID(spectest.AppFCS), MaxMessages: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	// One-frame TDMA latency: 10 frames of publishing deliver 9 rounds.
	if ap.received == 0 || fcs.received == 0 {
		t.Errorf("bus traffic not flowing: ap=%d fcs=%d", ap.received, fcs.received)
	}
	if s.Bus() == nil {
		t.Error("Bus() returned nil")
	}
	delivered, _ := s.Bus().Stats()
	if delivered == 0 {
		t.Error("bus delivered nothing")
	}
}

// TestHotStandbyMasksFailure exercises the section 5.1 hybrid: the FCS has a
// hot standby on p1, so losing p2 is masked — no reconfiguration, service
// continues from the last committed state on the spare.
func TestHotStandbyMasksFailure(t *testing.T) {
	s, _, fcs := buildSystem(t, func(o *Options) {
		// The classifier ignores processor health: with masking in
		// place, the failure need not drive a reconfiguration.
		o.ProcEvents = []ProcEvent{{Frame: 5, Proc: "p2", Kind: ProcFail}}
		o.HotStandby = map[spec.AppID]spec.ProcID{spectest.AppFCS: "p1"}
	})
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	if got := s.Kernel().Current(); got != spectest.CfgFull {
		t.Fatalf("configuration = %s, want full (failure masked)", got)
	}
	if rcs := s.Trace().Reconfigs(); len(rcs) != 0 {
		t.Fatalf("unexpected reconfigurations: %v", rcs)
	}
	mustNoViolations(t, s)
	// The FCS missed only the failure frame: frames 0-4 committed on p2,
	// frame 5's write died with p2, and work resumed on p1 from frame 6.
	if fcs.steps != 20 {
		t.Errorf("fcs steps = %d, want 20 (it kept running)", fcs.steps)
	}
	p1, _ := s.Pool().Proc("p1")
	n, err := p1.Stable().Region("app/" + string(spectest.AppFCS)).GetInt64("count")
	if err != nil {
		t.Fatal(err)
	}
	// 5 committed before the failure + frames 6..19 on the spare = 19.
	if n != 19 {
		t.Errorf("count = %d, want 19", n)
	}
	// The trace never marks the FCS interrupted (the failover happened
	// within the failure frame).
	for _, st := range s.Trace().States {
		if st.Apps[spectest.AppFCS].Status == trace.StatusInterrupted {
			t.Fatalf("fcs interrupted at cycle %d despite hot standby", st.Cycle)
		}
	}
}

func TestHotStandbyValidation(t *testing.T) {
	_, err := NewSystem(Options{
		Spec: spectest.ThreeConfig(),
		Apps: map[spec.AppID]App{
			spectest.AppAP:  &testApp{id: spectest.AppAP},
			spectest.AppFCS: &testApp{id: spectest.AppFCS},
		},
		Classifier: powerClassifier(false),
		HotStandby: map[spec.AppID]spec.ProcID{"ghost": "p1"},
	})
	if err == nil {
		t.Error("hot standby for unknown app accepted")
	}
	_, err = NewSystem(Options{
		Spec: spectest.ThreeConfig(),
		Apps: map[spec.AppID]App{
			spectest.AppAP:  &testApp{id: spectest.AppAP},
			spectest.AppFCS: &testApp{id: spectest.AppFCS},
		},
		Classifier: powerClassifier(false),
		HotStandby: map[spec.AppID]spec.ProcID{spectest.AppFCS: "ghost-proc"},
	})
	if err == nil {
		t.Error("hot standby on unknown processor accepted")
	}
}

// divergentApp runs a self-checking pair computation at a chosen frame with
// deliberately divergent replicas, halting its own processor — a spontaneous
// fail-stop failure raised inside the frame rather than scheduled from
// outside.
type divergentApp struct {
	testApp
	failAt int64
	pair   *failstop.SelfCheckingPair
}

func (a *divergentApp) Step(env *FrameEnv) error {
	if env.Frame == a.failAt && a.pair != nil {
		_, err := a.pair.Run(env.Frame,
			func() ([]byte, error) { return []byte("replica-a"), nil },
			func() ([]byte, error) { return []byte("replica-b"), nil },
		)
		if err == nil {
			return errors.New("divergent replicas agreed")
		}
		// Fail-stop: the processor has halted; this frame's work is
		// lost with it.
		return nil
	}
	return a.testApp.Step(env)
}

// TestSelfCheckingPairFailureDrivesReconfiguration closes the loop from the
// fail-stop detection mechanism to assured reconfiguration: a divergence
// halts the FCS's processor mid-frame, the hardware fault signal reaches the
// SCRAM in the same frame, and the system reconfigures with all properties
// intact.
func TestSelfCheckingPairFailureDrivesReconfiguration(t *testing.T) {
	ap := &testApp{id: spectest.AppAP}
	fcs := &divergentApp{testApp: testApp{id: spectest.AppFCS}, failAt: 40}
	s, err := NewSystem(Options{
		Spec: spectest.ThreeConfig(),
		Apps: map[spec.AppID]App{
			spectest.AppAP:  ap,
			spectest.AppFCS: fcs,
		},
		Classifier:     powerClassifier(true),
		InitialFactors: map[envmon.Factor]string{"alt1": "ok", "alt2": "ok"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p2, _ := s.Pool().Proc("p2")
	fcs.pair = failstop.NewSelfCheckingPair(p2)

	if err := s.Run(60); err != nil {
		t.Fatal(err)
	}
	if p2.State() != failstop.StateFailed {
		t.Fatalf("p2 state = %v, want failed from divergence", p2.State())
	}
	if got := s.Kernel().Current(); got != spectest.CfgReduced {
		t.Fatalf("configuration = %s, want reduced", got)
	}
	rcs := s.Trace().Reconfigs()
	if len(rcs) != 1 || rcs[0].StartC != 40 {
		t.Fatalf("reconfigurations = %v, want one starting at the divergence frame", rcs)
	}
	mustNoViolations(t, s)
}

// TestImmediateRetargetEndToEnd drives the full system under the immediate
// retarget policy: a second failure arrives while the first reconfiguration
// is still halting, the SCRAM re-chooses from the source configuration, and
// the single extended window lands directly on minimal service with all
// properties intact.
func TestImmediateRetargetEndToEnd(t *testing.T) {
	s, _, _ := buildSystem(t, func(o *Options) {
		o.Spec.Retarget = spec.RetargetImmediate
		o.Spec.DwellFrames = 1
		// The canonical spec already declares the self-transition
		// bounds the immediate policy obliges. Immediate policy
		// inflates required windows by the worst prepare; the
		// fixture's bounds of 8 still hold (required 6), so
		// obligations discharge.
		o.Script = []envmon.Event{
			{Frame: 5, Factor: "alt1", Value: "failed"},
			{Frame: 6, Factor: "alt2", Value: "failed"}, // during the halt frame
		}
	})
	if err := s.Run(30); err != nil {
		t.Fatal(err)
	}
	if got := s.Kernel().Current(); got != spectest.CfgMinimal {
		t.Fatalf("configuration = %s, want minimal via retarget", got)
	}
	rcs := s.Trace().Reconfigs()
	if len(rcs) != 1 {
		t.Fatalf("reconfigurations = %v, want exactly one (retargeted) window", rcs)
	}
	if rcs[0].From != spectest.CfgFull || rcs[0].To != spectest.CfgMinimal {
		t.Errorf("window = %s -> %s, want full -> minimal", rcs[0].From, rcs[0].To)
	}
	mustNoViolations(t, s)
	retargeted := false
	for _, e := range s.Kernel().Events() {
		if e.Kind == scram.EventRetarget {
			retargeted = true
		}
	}
	if !retargeted {
		t.Error("no retarget event logged")
	}
}

// TestMultiFramePhasesEndToEnd runs BasicApps whose phases take multiple
// frames, checking that the runtime drives each phase for its declared
// duration and the extended window still satisfies every property.
func TestMultiFramePhasesEndToEnd(t *testing.T) {
	rs := spectest.ThreeConfig()
	for i := range rs.Apps {
		for j := range rs.Apps[i].Specs {
			sp := &rs.Apps[i].Specs[j]
			sp.HaltFrames, sp.PrepareFrames, sp.InitFrames = 2, 2, 2
		}
	}
	// Window: 1 + 2 + 2 + 4 (chained 2-frame inits) = 9; bounds of 8 are
	// too tight, so resize.
	for i := range rs.Transitions {
		rs.Transitions[i].MaxFrames = 12
	}
	apps := map[spec.AppID]App{}
	basics := map[spec.AppID]*BasicApp{}
	for _, decl := range rs.RealApps() {
		decl := decl
		ba := NewBasicApp(&decl)
		apps[decl.ID] = ba
		basics[decl.ID] = ba
	}
	s, err := NewSystem(Options{
		Spec:           rs,
		Apps:           apps,
		Classifier:     powerClassifier(false),
		InitialFactors: map[envmon.Factor]string{"alt1": "ok", "alt2": "ok"},
		Script:         []envmon.Event{{Frame: 5, Factor: "alt1", Value: "failed"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(30); err != nil {
		t.Fatal(err)
	}
	if got := s.Kernel().Current(); got != spectest.CfgReduced {
		t.Fatalf("configuration = %s", got)
	}
	rcs := s.Trace().Reconfigs()
	if len(rcs) != 1 || rcs[0].Frames() != 9 {
		t.Fatalf("reconfigurations = %v, want one 9-frame window", rcs)
	}
	mustNoViolations(t, s)
	// BasicApps kept stepping before and after.
	if basics[spectest.AppAP].Steps() == 0 {
		t.Error("autopilot never stepped")
	}
}

// TestRedundantMonitors declares two monitor virtual-applications watching
// the same environment: duplicated change signals must yield exactly one
// reconfiguration, and both monitors appear (non-normal) in the trace during
// the window.
func TestRedundantMonitors(t *testing.T) {
	rs := spectest.ThreeConfig()
	rs.Apps = append(rs.Apps, spec.App{
		ID: "power-monitor-b", Virtual: true,
		Specs: []spec.Specification{{ID: "monitor", HaltFrames: 1, PrepareFrames: 1, InitFrames: 1}},
	})
	ap := &testApp{id: spectest.AppAP}
	fcs := &testApp{id: spectest.AppFCS}
	s, err := NewSystem(Options{
		Spec:           rs,
		Apps:           map[spec.AppID]App{spectest.AppAP: ap, spectest.AppFCS: fcs},
		Classifier:     powerClassifier(false),
		InitialFactors: map[envmon.Factor]string{"alt1": "ok", "alt2": "ok"},
		Script:         []envmon.Event{{Frame: 5, Factor: "alt1", Value: "failed"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	rcs := s.Trace().Reconfigs()
	if len(rcs) != 1 {
		t.Fatalf("reconfigurations = %v, want exactly 1 despite duplicate signals", rcs)
	}
	mustNoViolations(t, s)
	// Both monitors are tracked through the window (interior non-normal).
	mid, _ := s.Trace().At(rcs[0].StartC + 1)
	for _, id := range []spec.AppID{spectest.AppMonitor, "power-monitor-b"} {
		if st, ok := mid.Apps[id]; !ok || st.Status.Normal() {
			t.Errorf("monitor %s interior status = %+v", id, st)
		}
	}
}

// errorApp fails its Step with a simulation-level error at a chosen frame.
type errorApp struct {
	testApp
	errAt int64
}

func (a *errorApp) Step(env *FrameEnv) error {
	if env.Frame == a.errAt {
		return errors.New("injected simulation bug")
	}
	return a.testApp.Step(env)
}

// TestAppErrorSurfacesFromRun: a Tick error is a simulation bug, not a
// modeled failure; it must surface from Run with the app identified.
func TestAppErrorSurfacesFromRun(t *testing.T) {
	ap := &errorApp{testApp: testApp{id: spectest.AppAP}, errAt: 7}
	fcs := &testApp{id: spectest.AppFCS}
	s, err := NewSystem(Options{
		Spec:           spectest.ThreeConfig(),
		Apps:           map[spec.AppID]App{spectest.AppAP: ap, spectest.AppFCS: fcs},
		Classifier:     powerClassifier(false),
		InitialFactors: map[envmon.Factor]string{"alt1": "ok", "alt2": "ok"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	err = s.Run(20)
	if err == nil {
		t.Fatal("app error did not surface")
	}
	if !strings.Contains(err.Error(), "autopilot") || !strings.Contains(err.Error(), "injected simulation bug") {
		t.Errorf("error = %v", err)
	}
	if s.Frame() != 8 {
		t.Errorf("stopped at frame %d, want 8 (error during frame 7)", s.Frame())
	}
}

func TestObligationErrorMessage(t *testing.T) {
	rs := spectest.ThreeConfig()
	rs.DwellFrames = 0
	_, err := NewSystem(Options{
		Spec: rs,
		Apps: map[spec.AppID]App{
			spectest.AppAP:  &testApp{id: spectest.AppAP},
			spectest.AppFCS: &testApp{id: spectest.AppFCS},
		},
		Classifier: powerClassifier(false),
	})
	var oe *ObligationError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(oe.Error(), "dwell_guard") {
		t.Errorf("Error() = %q, want obligation names", oe.Error())
	}
}

func TestStepAndHooks(t *testing.T) {
	s, _, _ := buildSystem(t, nil)
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if s.Frame() != 1 {
		t.Errorf("Frame = %d", s.Frame())
	}
	// User hooks run after built-ins, once per frame.
	ran := 0
	s.AddCommitHook(func(frame.Context) error {
		ran++
		return nil
	})
	if err := s.Run(3); err != nil {
		t.Fatal(err)
	}
	if ran != 3 {
		t.Errorf("user hook ran %d times, want 3", ran)
	}
	// Extra tasks join the frame loop.
	ticked := 0
	if err := s.AddTask(taskFunc2{id: "extra", fn: func(frame.Context) error {
		ticked++
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	if ticked != 2 {
		t.Errorf("extra task ticked %d times, want 2", ticked)
	}
}

// taskFunc2 adapts a function to frame.Task for system-level tests.
type taskFunc2 struct {
	id string
	fn func(frame.Context) error
}

func (t taskFunc2) TaskID() string             { return t.id }
func (t taskFunc2) Tick(c frame.Context) error { return t.fn(c) }

func TestUnknownProcEventKind(t *testing.T) {
	s, _, _ := buildSystem(t, func(o *Options) {
		o.ProcEvents = []ProcEvent{{Frame: 3, Proc: "p2", Kind: ProcEventKind(99)}}
	})
	// The bad event is applied at the end of frame 2 (for frame 3).
	err := s.Run(5)
	if err == nil || !strings.Contains(err.Error(), "unknown processor event") {
		t.Fatalf("err = %v", err)
	}
}

// TestCompressionEndToEnd runs the section 6.3 relaxed protocol through the
// whole system: heterogeneous phase durations, compressed window of 6 frames
// (vs 8 staged), all properties intact.
func TestCompressionEndToEnd(t *testing.T) {
	shape := func(compress bool) int64 {
		rs := spectest.ThreeConfig()
		rs.Deps = nil
		rs.Compression = compress
		for i := range rs.Apps {
			for j := range rs.Apps[i].Specs {
				sp := &rs.Apps[i].Specs[j]
				switch rs.Apps[i].ID {
				case spectest.AppAP:
					sp.HaltFrames, sp.PrepareFrames, sp.InitFrames = 3, 1, 1
				case spectest.AppFCS:
					sp.HaltFrames, sp.PrepareFrames, sp.InitFrames = 1, 3, 1
				}
			}
		}
		for i := range rs.Transitions {
			rs.Transitions[i].MaxFrames = 12
		}
		apps := map[spec.AppID]App{}
		for _, decl := range rs.RealApps() {
			decl := decl
			apps[decl.ID] = NewBasicApp(&decl)
		}
		s, err := NewSystem(Options{
			Spec:           rs,
			Apps:           apps,
			Classifier:     powerClassifier(false),
			InitialFactors: map[envmon.Factor]string{"alt1": "ok", "alt2": "ok"},
			Script:         []envmon.Event{{Frame: 5, Factor: "alt1", Value: "failed"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Run(25); err != nil {
			t.Fatal(err)
		}
		if got := s.Kernel().Current(); got != spectest.CfgReduced {
			t.Fatalf("configuration = %s (compress=%v)", got, compress)
		}
		if vs := s.CheckProperties(); len(vs) != 0 {
			for _, v := range vs {
				t.Errorf("compress=%v: %s", compress, v)
			}
			t.FailNow()
		}
		rcs := s.Trace().Reconfigs()
		if len(rcs) != 1 {
			t.Fatalf("reconfigurations = %v", rcs)
		}
		return rcs[0].Frames()
	}
	staged := shape(false)
	compressed := shape(true)
	if staged != 8 || compressed != 6 {
		t.Errorf("windows staged/compressed = %d/%d, want 8/6", staged, compressed)
	}
}

// TestHardenedStorageTransparent: with fault-free hardened media the system
// behaves exactly like the plain-store build — reconfiguration completes,
// properties hold, and the commit/scrub hooks run.
func TestHardenedStorageTransparent(t *testing.T) {
	s, _, _ := buildSystem(t, func(o *Options) {
		o.HardenedStorage = &stable.MediaProfile{Replicas: 3, Seed: 1, Oracle: true}
		o.Script = []envmon.Event{{Frame: 5, Factor: "alt1", Value: "failed"}}
	})
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	if got := s.Kernel().Current(); got != spectest.CfgReduced {
		t.Fatalf("current = %s, want reduced", got)
	}
	mustNoViolations(t, s)
	if s.StagedHighWater() == 0 {
		t.Error("StagedHighWater = 0; commit hook never saw staged writes")
	}
	for _, p := range s.Pool().Procs() {
		rep := p.Stable().Hardened()
		if rep == nil {
			t.Fatalf("%s: store not hardened", p.ID())
		}
		st := rep.Stats()
		if st.SilentWrongData != 0 || st.Unrecoverable != 0 {
			t.Errorf("%s: stats %+v on perfect media", p.ID(), st)
		}
		if st.ScrubRuns == 0 {
			t.Errorf("%s: scrub never ran", p.ID())
		}
	}
}

// TestHardenedStorageDefeatHaltsProcessor: a single replica under heavy rot
// must fail-stop the hosting processor rather than serve wrong data, and the
// platform reconfigures around the loss.
func TestHardenedStorageDefeatHaltsProcessor(t *testing.T) {
	s, _, _ := buildSystem(t, func(o *Options) {
		o.HardenedStorage = &stable.MediaProfile{
			Replicas: 1,
			Seed:     3,
			Faults:   stable.FaultProfile{BitRotRate: 1},
			Oracle:   true,
		}
		o.Classifier = powerClassifier(true)
	})
	if err := s.Run(60); err != nil {
		t.Fatal(err)
	}
	p2, err := s.Pool().Proc("p2")
	if err != nil {
		t.Fatal(err)
	}
	if p2.Alive() {
		t.Fatal("p2 survived a defeated single-replica store")
	}
	if p2.StorageFault() == nil {
		t.Fatal("p2 halted without a recorded storage fault")
	}
	// SCRAM hosts run on exempt (fault-free) media and stay up.
	p1, _ := s.Pool().Proc("p1")
	if !p1.Alive() {
		t.Fatal("SCRAM host p1 lost despite media exemption")
	}
	if st := p2.Stable().Hardened().Stats(); st.SilentWrongData != 0 {
		t.Fatalf("silent wrong data = %d", st.SilentWrongData)
	}
	mustNoViolations(t, s)
}
