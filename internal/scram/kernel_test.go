package scram

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/envmon"
	"repro/internal/frame"
	"repro/internal/spec"
	"repro/internal/spectest"
	"repro/internal/stable"
	"repro/internal/trace"
)

// newTestKernel builds a kernel over a fresh store.
func newTestKernel(t *testing.T, rs *spec.ReconfigSpec) (*Kernel, *stable.Store) {
	t.Helper()
	st := stable.NewStore()
	k, err := NewKernel(rs, st)
	if err != nil {
		t.Fatal(err)
	}
	return k, st
}

// step runs one frame's commit sequence: kernel end-of-frame, then the
// stable-storage commit.
func step(t *testing.T, k *Kernel, st *stable.Store, f int64) {
	t.Helper()
	if err := k.EndOfFrame(frame.Context{Frame: f}); err != nil {
		t.Fatalf("EndOfFrame(%d): %v", f, err)
	}
	st.Commit()
}

// mustCmd reads app's committed command.
func mustCmd(t *testing.T, st *stable.Store, app spec.AppID) Command {
	t.Helper()
	cmd, ok, err := ReadCommand(st, app)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("no command committed for %q", app)
	}
	return cmd
}

func TestIdleKernelCommandsNormal(t *testing.T) {
	rs := spectest.ThreeConfig()
	k, st := newTestKernel(t, rs)

	if _, ok, err := ReadCommand(st, spectest.AppAP); err != nil || ok {
		t.Fatalf("command before first commit: ok=%v err=%v", ok, err)
	}
	for f := int64(0); f < 3; f++ {
		step(t, k, st, f)
	}
	cmd := mustCmd(t, st, spectest.AppAP)
	if cmd.Phase != spec.PhaseNormal || cmd.Target != "ap-full" || cmd.Config != spectest.CfgFull {
		t.Errorf("idle command = %+v", cmd)
	}
	if k.Current() != spectest.CfgFull || k.Reconfiguring() {
		t.Errorf("kernel state: current=%s reconfiguring=%v", k.Current(), k.Reconfiguring())
	}
	if got := k.StatusOf(spectest.AppAP, 2); got != trace.StatusNormal {
		t.Errorf("idle status = %v", got)
	}
}

// TestTable1Protocol drives the canonical reconfiguration and asserts the
// exact frame-by-frame structure of the paper's Table 1: frame f trigger
// (failure signal), f+1 halt, f+2 prepare(Ct), then initialize, with the
// dependency-extended init phase.
func TestTable1Protocol(t *testing.T) {
	rs := spectest.ThreeConfig()
	k, st := newTestKernel(t, rs)
	for f := int64(0); f < 3; f++ {
		step(t, k, st, f)
	}

	// Frame 3: the power monitor reports an alternator loss.
	k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvReduced, Frame: 3})
	step(t, k, st, 3)

	if !k.Reconfiguring() {
		t.Fatal("no plan after trigger")
	}
	// Trigger-frame statuses: the signal source is interrupted, others
	// still normal (SP1's start_c shape).
	if got := k.StatusOf(spectest.AppMonitor, 3); got != trace.StatusInterrupted {
		t.Errorf("monitor status at trigger = %v", got)
	}
	if got := k.StatusOf(spectest.AppAP, 3); got != trace.StatusNormal {
		t.Errorf("ap status at trigger = %v", got)
	}

	// Frame 4 command: halt, both apps in window [4,4].
	for _, app := range []spec.AppID{spectest.AppAP, spectest.AppFCS} {
		cmd := mustCmd(t, st, app)
		if cmd.Phase != spec.PhaseHalt || cmd.WinStart != 4 || cmd.WinEnd != 4 {
			t.Errorf("%s frame-4 command = %+v, want halt [4,4]", app, cmd)
		}
		if !cmd.Active(4) || cmd.Active(5) {
			t.Errorf("%s Active() wrong: %+v", app, cmd)
		}
	}
	step(t, k, st, 4)
	if got := k.StatusOf(spectest.AppAP, 4); got != trace.StatusHalted {
		t.Errorf("ap status after halt frame = %v", got)
	}

	// Frame 5 command: prepare toward the reduced-service specs.
	cmd := mustCmd(t, st, spectest.AppAP)
	if cmd.Phase != spec.PhasePrepare || cmd.Target != "ap-alt-hold" || cmd.WinStart != 5 || cmd.WinEnd != 5 {
		t.Errorf("ap frame-5 command = %+v, want prepare(ap-alt-hold) [5,5]", cmd)
	}
	step(t, k, st, 5)
	if got := k.StatusOf(spectest.AppFCS, 5); got != trace.StatusPrepared {
		t.Errorf("fcs status after prepare frame = %v", got)
	}

	// Frame 6: initialize. The init dependency (fcs before autopilot)
	// gives fcs window [6,6] and the autopilot [7,7].
	fcsCmd := mustCmd(t, st, spectest.AppFCS)
	apCmd := mustCmd(t, st, spectest.AppAP)
	if fcsCmd.Phase != spec.PhaseInit || fcsCmd.WinStart != 6 || fcsCmd.WinEnd != 6 {
		t.Errorf("fcs init command = %+v, want init [6,6]", fcsCmd)
	}
	if apCmd.Phase != spec.PhaseInit || apCmd.WinStart != 7 || apCmd.WinEnd != 7 {
		t.Errorf("ap init command = %+v, want init [7,7]", apCmd)
	}
	step(t, k, st, 6)
	// The autopilot's own init window is [7,7]: at frame 6 it holds
	// prepared while the FCS initializes.
	if got := k.StatusOf(spectest.AppAP, 6); got != trace.StatusPrepared {
		t.Errorf("ap status awaiting its init window = %v", got)
	}
	if got := k.StatusOf(spectest.AppFCS, 6); got != trace.StatusInitializing {
		t.Errorf("fcs status during its init window = %v", got)
	}
	step(t, k, st, 7)

	// Frame 7 completes the window: current configuration switches and
	// frame-8 commands are normal under reduced service.
	if k.Reconfiguring() {
		t.Fatal("plan still active after InitEnd")
	}
	if k.Current() != spectest.CfgReduced {
		t.Fatalf("current = %s, want reduced", k.Current())
	}
	if got := k.StatusOf(spectest.AppAP, 7); got != trace.StatusNormal {
		t.Errorf("ap status at end_c = %v", got)
	}
	cmd = mustCmd(t, st, spectest.AppAP)
	if cmd.Phase != spec.PhaseNormal || cmd.Target != "ap-alt-hold" || cmd.Config != spectest.CfgReduced {
		t.Errorf("post-window command = %+v", cmd)
	}

	// Window length: [3,7] = 5 frames = 1 trigger + 1 halt + 1 prepare +
	// 2 init (dependency chain), within T(full, reduced) = 8.
	kinds := map[EventKind]int{}
	for _, e := range k.Events() {
		kinds[e.Kind]++
	}
	for _, want := range []EventKind{EventSignal, EventTrigger, EventHalt, EventPrepare, EventInitialize, EventComplete} {
		if kinds[want] == 0 {
			t.Errorf("missing %s event; events: %v", want, k.Events())
		}
	}
}

func TestSpecOfDuringPlan(t *testing.T) {
	rs := spectest.ThreeConfig()
	k, st := newTestKernel(t, rs)
	step(t, k, st, 0)
	if got := k.SpecOf(spectest.AppAP); got != "ap-full" {
		t.Errorf("SpecOf idle = %s", got)
	}
	k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvBattery, Frame: 1})
	step(t, k, st, 1)
	if got := k.SpecOf(spectest.AppAP); got != spec.SpecOff {
		t.Errorf("SpecOf(ap) during plan to minimal = %s, want off", got)
	}
	if got := k.SpecOf(spectest.AppFCS); got != "fcs-direct" {
		t.Errorf("SpecOf(fcs) during plan to minimal = %s", got)
	}
}

func TestOffInTargetStaysHalted(t *testing.T) {
	rs := spectest.ThreeConfig()
	k, st := newTestKernel(t, rs)
	step(t, k, st, 0)
	k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvBattery, Frame: 1})
	step(t, k, st, 1)

	// Plan: halt [2,2], prep [3,3], init [4,4] (minimal has only fcs).
	step(t, k, st, 2)
	// The autopilot is off in minimal: during prepare and init phases it
	// holds in halted.
	if got := k.StatusOf(spectest.AppAP, 3); got != trace.StatusHalted {
		t.Errorf("ap status during prepare = %v, want halted", got)
	}
	apCmd := mustCmd(t, st, spectest.AppAP)
	if apCmd.Target != spec.SpecOff || apCmd.WinStart != -1 {
		t.Errorf("ap prepare command = %+v, want off target with no window", apCmd)
	}
	step(t, k, st, 3)
	if got := k.StatusOf(spectest.AppAP, 4); got != trace.StatusHalted {
		t.Errorf("ap status during init = %v, want halted", got)
	}
	step(t, k, st, 4)
	if k.Current() != spectest.CfgMinimal {
		t.Fatalf("current = %s", k.Current())
	}
	if got := k.StatusOf(spectest.AppAP, 4); got != trace.StatusNormal {
		t.Errorf("ap status at end = %v, want normal (operating under off)", got)
	}
}

func TestDwellGuardDefersTrigger(t *testing.T) {
	rs := spectest.ThreeConfig()
	rs.DwellFrames = 10
	k, st := newTestKernel(t, rs)

	k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvReduced, Frame: 0})
	step(t, k, st, 0)
	if !k.Reconfiguring() {
		t.Fatal("first trigger should not be deferred")
	}
	// Complete the first window: [0,4] (init has the 2-frame chain).
	for f := int64(1); f <= 4; f++ {
		step(t, k, st, f)
	}
	if k.Current() != spectest.CfgReduced {
		t.Fatalf("current = %s", k.Current())
	}

	// Power restored at frame 6: repair wants reduced -> full, but only
	// 2 frames have passed since the window ended at 4.
	k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvFull, Frame: 6})
	deferredSeen := false
	for f := int64(5); f < 14; f++ {
		step(t, k, st, f)
		if k.Reconfiguring() {
			t.Fatalf("trigger at frame %d despite dwell guard", f)
		}
	}
	for _, e := range k.Events() {
		if e.Kind == EventDeferred {
			deferredSeen = true
		}
	}
	if !deferredSeen {
		t.Error("no deferred event logged")
	}
	// Frame 14: 14 - 4 = 10 >= dwell, trigger fires.
	step(t, k, st, 14)
	if !k.Reconfiguring() {
		t.Fatal("trigger did not fire after dwell elapsed")
	}
}

func TestBufferPolicyChainsReconfigurations(t *testing.T) {
	rs := spectest.ThreeConfig()
	rs.DwellFrames = 0
	k, st := newTestKernel(t, rs)
	step(t, k, st, 0)

	// First failure at frame 1: full -> reduced, window [1,5].
	k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvReduced, Frame: 1})
	step(t, k, st, 1)
	// Second failure mid-window (frame 3): buffered under the buffer
	// policy; the plan's target must not change.
	k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvBattery, Frame: 3})
	for f := int64(2); f <= 5; f++ {
		step(t, k, st, f)
	}
	if k.Current() != spectest.CfgReduced {
		t.Fatalf("first window ended in %s, want reduced", k.Current())
	}
	// Frame 6: the buffered environment state triggers the second
	// reconfiguration reduced -> minimal.
	step(t, k, st, 6)
	if !k.Reconfiguring() {
		t.Fatal("buffered trigger did not fire after completion")
	}
	// Window [6,9]: halt 1, prep 1, init 1 (minimal has no dependency).
	for f := int64(7); f <= 9; f++ {
		step(t, k, st, f)
	}
	if k.Current() != spectest.CfgMinimal {
		t.Fatalf("second window ended in %s, want minimal", k.Current())
	}
}

// TestTrimEventsKeepsLaterFrames: trimming the log at a frame keeps exactly
// the entries of that frame and later ones, in order, in the same backing
// array, and zeroes the vacated slots so the dropped details are released.
func TestTrimEventsKeepsLaterFrames(t *testing.T) {
	rs := spectest.ThreeConfig()
	rs.DwellFrames = 0
	k, st := newTestKernel(t, rs)
	k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvReduced, Frame: 1})
	for f := int64(1); f <= 5; f++ {
		step(t, k, st, f)
	}
	k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvBattery, Frame: 6})
	for f := int64(6); f <= 9; f++ {
		step(t, k, st, f)
	}
	full := k.Events()
	var want []Event
	for _, e := range full {
		if e.Frame >= 6 {
			want = append(want, e)
		}
	}
	if len(want) == 0 || len(want) == len(full) {
		t.Fatalf("log of %d events has %d from frame 6 on: the trim would be vacuous", len(full), len(want))
	}
	backing := &k.events[0]
	k.TrimEvents(6)
	if got := k.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after TrimEvents(6) the log is %v, want %v", got, want)
	}
	if &k.events[0] != backing {
		t.Error("TrimEvents reallocated the log")
	}
	for i, e := range k.events[len(want):len(full)] {
		if e != (Event{}) {
			t.Errorf("vacated slot %d still holds %v", len(want)+i, e)
		}
	}
}

func TestImmediateRetarget(t *testing.T) {
	rs := spectest.ThreeConfig()
	rs.DwellFrames = 0
	rs.Retarget = spec.RetargetImmediate
	for _, c := range []spec.ConfigID{spectest.CfgFull, spectest.CfgReduced, spectest.CfgMinimal} {
		rs.Transitions = append(rs.Transitions, spec.Transition{From: c, To: c, MaxFrames: 12})
	}
	k, st := newTestKernel(t, rs)
	step(t, k, st, 0)

	// Trigger at 1 toward reduced: halt [2,2], prep [3,3], init [4,5].
	k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvReduced, Frame: 1})
	step(t, k, st, 1)
	// Second failure during the halt frame (frame 2): immediate policy
	// re-chooses from the source configuration: choose(full, battery) =
	// minimal. Prepare restarts at frame 3.
	k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvBattery, Frame: 2})
	step(t, k, st, 2)

	retargetSeen := false
	for _, e := range k.Events() {
		if e.Kind == EventRetarget && e.Config == spectest.CfgMinimal {
			retargetSeen = true
		}
	}
	if !retargetSeen {
		t.Fatalf("no retarget event; events: %v", k.Events())
	}
	// New schedule: prep [3,3], init [4,4]; complete at 4 in minimal.
	fcsCmd := mustCmd(t, st, spectest.AppFCS)
	if fcsCmd.Phase != spec.PhasePrepare || fcsCmd.Target != "fcs-direct" {
		t.Errorf("fcs command after retarget = %+v", fcsCmd)
	}
	// A third signal mid-window is buffered (one retarget per window).
	k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvFull, Frame: 3})
	step(t, k, st, 3)
	step(t, k, st, 4)
	if k.Current() != spectest.CfgMinimal {
		t.Fatalf("current = %s, want minimal", k.Current())
	}
	// The buffered full-power state now triggers a repair reconfiguration.
	step(t, k, st, 5)
	if !k.Reconfiguring() {
		t.Fatal("buffered signal did not trigger after retargeted window")
	}
}

// TestRetargetToSource: when the environment returns to the plan's source
// state mid-window, the immediate policy retargets back to the source — a
// self-transition window, legal because the policy's static obligations
// require every reachable configuration to declare T(c, c).
func TestRetargetToSource(t *testing.T) {
	rs := spectest.ThreeConfig()
	rs.DwellFrames = 0
	rs.Retarget = spec.RetargetImmediate
	k, st := newTestKernel(t, rs)
	step(t, k, st, 0)

	// Trigger at 1 toward reduced: halt [2,2], prep [3,3], init [4,5].
	k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvReduced, Frame: 1})
	step(t, k, st, 1)
	// The environment recovers during the halt frame: choose(full, full)
	// is the plan's source, so the window retargets back to full.
	k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvFull, Frame: 2})
	step(t, k, st, 2)
	retargeted := false
	for _, e := range k.Events() {
		if e.Kind == EventRetarget {
			retargeted = true
			if e.Config != spectest.CfgFull {
				t.Fatalf("retargeted to %s, want full", e.Config)
			}
		}
	}
	if !retargeted {
		t.Fatalf("no retarget back to source; events: %v", k.Events())
	}
	target, _, ok := k.PlanTarget()
	if !ok || target != spectest.CfgFull {
		t.Fatalf("plan target = %s (ok=%v), want full", target, ok)
	}
	bound, _ := rs.T(spectest.CfgFull, spectest.CfgFull)
	for f := int64(3); f <= int64(bound); f++ {
		step(t, k, st, f)
		if !k.Reconfiguring() {
			break
		}
	}
	if k.Reconfiguring() {
		t.Fatalf("self-transition window still open past its declared bound %d", bound)
	}
	if k.Current() != spectest.CfgFull {
		t.Fatalf("window ended in %s, want full (the source)", k.Current())
	}
}

func TestPersistAndRestoreMidPlan(t *testing.T) {
	rs := spectest.ThreeConfig()
	k, st := newTestKernel(t, rs)
	step(t, k, st, 0)
	k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvReduced, Frame: 1})
	step(t, k, st, 1)
	step(t, k, st, 2) // halt frame done

	// The primary's processor fails; the standby polls its stable
	// storage and takes over.
	snapshot := st.Snapshot()
	standbyStore := stable.NewStore()
	standby, err := Restore(rs, standbyStore, snapshot)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !standby.Reconfiguring() || standby.Current() != spectest.CfgFull {
		t.Fatalf("restored kernel state: current=%s reconfiguring=%v",
			standby.Current(), standby.Reconfiguring())
	}
	// The standby finishes the window on its own store.
	for f := int64(3); f <= 5; f++ {
		step(t, standby, standbyStore, f)
	}
	if standby.Current() != spectest.CfgReduced {
		t.Fatalf("restored kernel completed in %s, want reduced", standby.Current())
	}
	cmd := mustCmd(t, standbyStore, spectest.AppAP)
	if cmd.Phase != spec.PhaseNormal || cmd.Config != spectest.CfgReduced {
		t.Errorf("standby post-window command = %+v", cmd)
	}
}

func TestRestoreWithoutState(t *testing.T) {
	rs := spectest.ThreeConfig()
	if _, err := Restore(rs, stable.NewStore(), map[string][]byte{}); err == nil {
		t.Fatal("Restore succeeded with empty snapshot")
	}
}

func TestNewKernelRejectsBadStart(t *testing.T) {
	rs := spectest.ThreeConfig()
	rs.StartConfig = "ghost"
	if _, err := NewKernel(rs, stable.NewStore()); err == nil {
		t.Fatal("bad start configuration accepted")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Frame: 3, Kind: EventTrigger, Config: "reduced", Detail: "x"}
	if got := e.String(); got == "" {
		t.Error("empty event string")
	}
}

// TestMultiFramePhases stretches every phase of the reduced-service specs to
// 2 frames and checks the schedule: halt [2,3], prepare [4,5], init fcs
// [6,7] then autopilot [8,9] via the dependency.
func TestMultiFramePhases(t *testing.T) {
	rs := spectest.ThreeConfig()
	for i := range rs.Apps {
		for j := range rs.Apps[i].Specs {
			s := &rs.Apps[i].Specs[j]
			s.HaltFrames, s.PrepareFrames, s.InitFrames = 2, 2, 2
		}
	}
	k, st := newTestKernel(t, rs)
	step(t, k, st, 0)
	k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvReduced, Frame: 1})
	step(t, k, st, 1)

	// Halt window [2,3] for both apps.
	cmd := mustCmd(t, st, spectest.AppAP)
	if cmd.Phase != spec.PhaseHalt || cmd.WinStart != 2 || cmd.WinEnd != 3 {
		t.Fatalf("halt command = %+v", cmd)
	}
	if got := k.StatusOf(spectest.AppAP, 2); got != trace.StatusHalting {
		t.Errorf("status mid-halt = %v, want halting", got)
	}
	step(t, k, st, 2)
	step(t, k, st, 3)
	if got := k.StatusOf(spectest.AppAP, 3); got != trace.StatusHalted {
		t.Errorf("status after halt window = %v, want halted", got)
	}

	// Prepare [4,5].
	cmd = mustCmd(t, st, spectest.AppFCS)
	if cmd.Phase != spec.PhasePrepare || cmd.WinStart != 4 || cmd.WinEnd != 5 {
		t.Fatalf("prepare command = %+v", cmd)
	}
	step(t, k, st, 4)
	step(t, k, st, 5)

	// Init: fcs [6,7], autopilot [8,9].
	fcsCmd := mustCmd(t, st, spectest.AppFCS)
	apCmd := mustCmd(t, st, spectest.AppAP)
	if fcsCmd.WinStart != 6 || fcsCmd.WinEnd != 7 {
		t.Errorf("fcs init window = [%d,%d], want [6,7]", fcsCmd.WinStart, fcsCmd.WinEnd)
	}
	if apCmd.WinStart != 8 || apCmd.WinEnd != 9 {
		t.Errorf("ap init window = [%d,%d], want [8,9]", apCmd.WinStart, apCmd.WinEnd)
	}
	for f := int64(6); f <= 9; f++ {
		step(t, k, st, f)
	}
	if k.Current() != spectest.CfgReduced || k.Reconfiguring() {
		t.Fatalf("window did not complete: current=%s", k.Current())
	}
	// Window [1,9] = 9 frames = 1 + 2 + 2 + 4 (chained 2-frame inits).
}

// TestHaltPhaseDependency orders the halt phase: the autopilot must halt
// before the FCS (e.g. it must stop commanding before the FCS quiesces).
func TestHaltPhaseDependency(t *testing.T) {
	rs := spectest.ThreeConfig()
	rs.Deps = append(rs.Deps, spec.Dependency{
		Independent: spectest.AppAP, Dependent: spectest.AppFCS, Phase: spec.PhaseHalt,
	})
	k, st := newTestKernel(t, rs)
	step(t, k, st, 0)
	k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvReduced, Frame: 1})
	step(t, k, st, 1)

	apCmd := mustCmd(t, st, spectest.AppAP)
	fcsCmd := mustCmd(t, st, spectest.AppFCS)
	if apCmd.WinStart != 2 || apCmd.WinEnd != 2 {
		t.Errorf("ap halt window = [%d,%d], want [2,2]", apCmd.WinStart, apCmd.WinEnd)
	}
	if fcsCmd.WinStart != 3 || fcsCmd.WinEnd != 3 {
		t.Errorf("fcs halt window = [%d,%d], want [3,3] (gated)", fcsCmd.WinStart, fcsCmd.WinEnd)
	}
}

// TestRandomSpecKernelProtocol drives the kernel directly on random
// specifications: after a trigger, every plan must complete exactly at its
// scheduled InitEnd and land on the chosen configuration.
func TestRandomSpecKernelProtocol(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rs := spectest.Random(rng, 1+rng.Intn(5), 2+rng.Intn(3), 2+rng.Intn(3))
		rs.DwellFrames = 0
		k, err := NewKernel(rs, stable.NewStore())
		if err != nil {
			t.Fatal(err)
		}
		st := k.Store()

		// Find an environment that forces a move from the start config.
		var target spec.ConfigID
		var env spec.EnvState
		for _, e := range rs.Envs {
			if to, ok := rs.Choice.Choose(rs.StartConfig, e); ok && to != rs.StartConfig {
				target, env = to, e
				break
			}
		}
		if target == "" {
			continue // this random table never leaves the start config
		}
		if err := k.EndOfFrame(frame.Context{Frame: 0}); err != nil {
			t.Fatal(err)
		}
		st.Commit()
		k.Signal(envmon.Signal{Source: "monitor", State: env, Frame: 1})
		for f := int64(1); f < 100; f++ {
			if err := k.EndOfFrame(frame.Context{Frame: f}); err != nil {
				t.Fatalf("seed %d frame %d: %v", seed, f, err)
			}
			st.Commit()
			if !k.Reconfiguring() && k.Current() == target {
				break
			}
		}
		if k.Current() != target {
			t.Fatalf("seed %d: kernel ended in %s, want %s", seed, k.Current(), target)
		}
		// The completed window must fit the declared bound.
		bound, _ := rs.T(rs.StartConfig, target)
		for _, e := range k.Events() {
			if e.Kind == EventComplete {
				var start, end int64
				if _, err := fmt.Sscanf(e.Detail, "window [%d,%d]", &start, &end); err != nil {
					t.Fatalf("seed %d: unparseable complete event %q", seed, e.Detail)
				}
				if end-start+1 > int64(bound) {
					t.Fatalf("seed %d: window %d frames exceeds bound %d", seed, end-start+1, bound)
				}
			}
		}
	}
}

func TestKernelAccessors(t *testing.T) {
	rs := spectest.ThreeConfig()
	k, st := newTestKernel(t, rs)
	if k.Env() != spectest.EnvFull {
		t.Errorf("Env = %s", k.Env())
	}
	if _, _, ok := k.PlanTarget(); ok {
		t.Error("PlanTarget reports a plan while idle")
	}
	k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvReduced, Frame: 0})
	step(t, k, st, 0)
	if k.Env() != spectest.EnvReduced {
		t.Errorf("Env after signal = %s", k.Env())
	}
	target, seq, ok := k.PlanTarget()
	if !ok || target != spectest.CfgReduced || seq != 1 {
		t.Errorf("PlanTarget = %s, %d, %v", target, seq, ok)
	}
}

func TestReadCommandErrors(t *testing.T) {
	st := stable.NewStore()
	st.PutString("scram/cmd/broken", "{not json")
	st.Commit()
	if _, _, err := ReadCommand(st, "broken"); err == nil {
		t.Error("malformed command decoded")
	}
	if err := unmarshalState([]byte("{"), &kernelState{}); err == nil {
		t.Error("malformed state decoded")
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	rs := spectest.ThreeConfig()
	if _, err := Restore(rs, stable.NewStore(), map[string][]byte{
		stateKey: []byte("{corrupt"),
	}); err == nil {
		t.Error("corrupt snapshot restored")
	}
	rs.StartConfig = "ghost"
	if _, err := Restore(rs, stable.NewStore(), map[string][]byte{}); err == nil {
		t.Error("bad spec restored")
	}
}

// TestRestoreRejectsCorruptCommandRecord: a standby taking over must refuse
// a snapshot whose configuration_status records do not decode — commanding
// applications from corrupt records would break fail-stop semantics.
func TestRestoreRejectsCorruptCommandRecord(t *testing.T) {
	rs := spectest.ThreeConfig()
	k, st := newTestKernel(t, rs)
	step(t, k, st, 0)
	k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvReduced, Frame: 1})
	step(t, k, st, 1) // plan written: command records present

	snapshot := st.Snapshot()
	var corrupted string
	for _, a := range rs.Apps {
		if _, ok := snapshot[commandKey(a.ID)]; ok {
			snapshot[commandKey(a.ID)] = []byte("{torn mid-write")
			corrupted = string(a.ID)
			break
		}
	}
	if corrupted == "" {
		t.Fatal("no command record in snapshot; test setup wrong")
	}
	if _, err := Restore(rs, stable.NewStore(), snapshot); err == nil {
		t.Fatalf("Restore accepted corrupt command record for %q", corrupted)
	}

	// The intact snapshot still restores.
	if _, err := Restore(rs, stable.NewStore(), st.Snapshot()); err != nil {
		t.Fatalf("Restore of intact snapshot: %v", err)
	}
}
