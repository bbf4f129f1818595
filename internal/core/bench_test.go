package core

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/envmon"
	"repro/internal/spec"
	"repro/internal/spectest"
)

// buildBenchSystem wires the canonical system for the frame-loop benchmarks.
func buildBenchSystem(tb testing.TB, telemetryCapacity int, churnEvery int64) *System {
	tb.Helper()
	sys, err := NewSystem(benchOptions(telemetryCapacity, churnEvery))
	if err != nil {
		tb.Fatalf("NewSystem: %v", err)
	}
	tb.Cleanup(sys.Close)
	return sys
}

// benchOptions configures the canonical benchmark system. churnEvery > 0
// scripts an alternator fault/repair cycle at that period, so
// reconfigurations — and the telemetry they generate — are part of the
// measured loop; churnEvery 0 leaves the environment quiet, measuring the
// steady state the system spends almost all of its life in.
func benchOptions(telemetryCapacity int, churnEvery int64) Options {
	var script []envmon.Event
	if churnEvery > 0 {
		for f, val := churnEvery/2, "failed"; f < 1_000_000; f += churnEvery {
			script = append(script, envmon.Event{Frame: f, Factor: "alt1", Value: val})
			if val == "failed" {
				val = "ok"
			} else {
				val = "failed"
			}
		}
	}
	return Options{
		Spec: spectest.ThreeConfig(),
		Apps: map[spec.AppID]App{
			spectest.AppAP:  &testApp{id: spectest.AppAP},
			spectest.AppFCS: &testApp{id: spectest.AppFCS},
		},
		Classifier:        powerClassifier(false),
		InitialFactors:    map[envmon.Factor]string{"alt1": "ok", "alt2": "ok"},
		Script:            script,
		TelemetryCapacity: telemetryCapacity,
	}
}

func benchFrames(b *testing.B, telemetryCapacity int, churnEvery int64) {
	sys := buildBenchSystem(b, telemetryCapacity, churnEvery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameTelemetryOn measures the steady-state frame loop with the
// default telemetry layer: recorder stamping, run-length-encoded state
// sampling, and the (no-op on quiet frames) ring-persistence check.
func BenchmarkFrameTelemetryOn(b *testing.B) { benchFrames(b, 0, 0) }

// BenchmarkFrameTelemetryOff is the steady-state ablation arm: the identical
// system with the telemetry layer disabled.
func BenchmarkFrameTelemetryOff(b *testing.B) { benchFrames(b, -1, 0) }

// BenchmarkFrameChurnTelemetryOn stresses the expensive path: alternator
// churn every 20 frames keeps the system reconfiguring, so protocol events,
// frame-state samples and the per-frame journal staging are all live.
func BenchmarkFrameChurnTelemetryOn(b *testing.B) { benchFrames(b, 0, 20) }

// BenchmarkFrameChurnTelemetryOff is the churn ablation arm.
func BenchmarkFrameChurnTelemetryOff(b *testing.B) { benchFrames(b, -1, 20) }

// armSample is one fixed-frame measurement of one benchmark arm.
type armSample struct {
	nsPerFrame     float64
	allocsPerFrame float64
	bytesPerFrame  float64
}

// measureArm builds one arm's system and times exactly `frames` frames of
// it after the warmup.
func measureArm(tb testing.TB, frames int, telemetryCapacity int, churnEvery int64) armSample {
	tb.Helper()
	sys := buildBenchSystem(tb, telemetryCapacity, churnEvery)
	warm(tb, sys)
	return timeFrames(tb, sys, frames)
}

// warm runs a fixed warmup, then collects garbage, so timed frames start
// from the steady state rather than from construction.
func warm(tb testing.TB, sys *System) {
	tb.Helper()
	for i := 0; i < 1000; i++ {
		if err := sys.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	runtime.GC()
}

// timeFrames times exactly `frames` frames of a warmed system.
func timeFrames(tb testing.TB, sys *System, frames int) armSample {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < frames; i++ {
		if err := sys.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return armSample{
		nsPerFrame:     float64(elapsed.Nanoseconds()) / float64(frames),
		allocsPerFrame: float64(after.Mallocs-before.Mallocs) / float64(frames),
		bytesPerFrame:  float64(after.TotalAlloc-before.TotalAlloc) / float64(frames),
	}
}

// overheadPairs blocks of overheadBlockFrames frames per arm make one
// overhead estimate. Many short pairs keep each pair's two blocks
// milliseconds apart, so slow machine drift (thermal throttling, noisy CI
// neighbours) cancels within the pair, and give the median enough samples
// to discard the pairs a scheduling hiccup landed in.
const (
	overheadPairs       = 41
	overheadBlockFrames = 2000
)

// measurePair times the instrumented system on against the ablation system
// off and returns the fastest block of each plus the median of the per-pair
// overheads. Both systems are warmed once and then advance in lockstep, so
// every pair compares the two arms at the same frame count and
// frame-count-dependent costs (notably the live trace's slice growth)
// cancel in the subtraction; which arm runs first alternates, so neither
// always inherits the other's cache and GC state.
func measurePair(tb testing.TB, on, off *System) (onBest, offBest armSample, medianPct float64) {
	tb.Helper()
	warm(tb, on)
	warm(tb, off)
	pcts := make([]float64, 0, overheadPairs)
	for i := 0; i < overheadPairs; i++ {
		var son, soff armSample
		if i%2 == 0 {
			son = timeFrames(tb, on, overheadBlockFrames)
			soff = timeFrames(tb, off, overheadBlockFrames)
		} else {
			soff = timeFrames(tb, off, overheadBlockFrames)
			son = timeFrames(tb, on, overheadBlockFrames)
		}
		if i == 0 || son.nsPerFrame < onBest.nsPerFrame {
			onBest = son
		}
		if i == 0 || soff.nsPerFrame < offBest.nsPerFrame {
			offBest = soff
		}
		pcts = append(pcts, (son.nsPerFrame-soff.nsPerFrame)/soff.nsPerFrame*100)
	}
	sort.Float64s(pcts)
	return onBest, offBest, pcts[len(pcts)/2]
}

// TestTelemetryOverheadBench measures both benchmark pairs under plain
// `go test` and logs the telemetry overhead; it writes no file. The
// steady-state pair is the headline number — the target is < 5% ns/frame
// there, asserted with CI-jitter headroom at 15%. The churn pair documents
// the cost while the system is actively reconfiguring (every 20 frames, far
// denser than any fault campaign): that overhead is real work — journal
// staging for every protocol event — and is logged, with a loose 75%
// ceiling so a regression to the pre-ring-buffer costs still fails.
func TestTelemetryOverheadBench(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark harness skipped in -short mode")
	}
	steadyOn, steadyOff, steadyPct := measurePair(t, buildBenchSystem(t, 0, 0), buildBenchSystem(t, -1, 0))
	churnOn, churnOff, churnPct := measurePair(t, buildBenchSystem(t, 0, 20), buildBenchSystem(t, -1, 20))

	t.Logf("steady: on %.0f ns/frame (%.1f allocs) vs off %.0f (%.1f) = %.2f%% median overhead",
		steadyOn.nsPerFrame, steadyOn.allocsPerFrame,
		steadyOff.nsPerFrame, steadyOff.allocsPerFrame, steadyPct)
	t.Logf("churn20: on %.0f ns/frame (%.1f allocs) vs off %.0f (%.1f) = %.2f%% median overhead",
		churnOn.nsPerFrame, churnOn.allocsPerFrame,
		churnOff.nsPerFrame, churnOff.allocsPerFrame, churnPct)
	if steadyPct > 15 {
		t.Errorf("steady-state telemetry overhead %.2f%% ns/frame exceeds the 15%% ceiling (target < 5%%)", steadyPct)
	}
	if churnPct > 75 {
		t.Errorf("churn telemetry overhead %.2f%% ns/frame exceeds the 75%% ceiling", churnPct)
	}
}

// TestFrameAllocBudgetBench is the runtime half of the alloc discipline the
// allocfree analyzer enforces statically: the steady-state frame loop, full
// telemetry on, must stay under 10 allocations per frame. The measured
// numbers are logged; the test writes no file. Allocation counts, unlike
// wall-clock times, are nearly deterministic — the best of three runs
// discards only GC-timing noise — so the budget is asserted directly, no
// jitter headroom needed. Churn-frame numbers are logged for visibility but
// not budgeted: a reconfiguring frame legitimately allocates (plans,
// protocol events, journal staging), and the WCET argument charges that
// cost to the reconfiguration window, not to the steady state. The static
// half of this gate is the allocfree analyzer (archlint -baseline).
func TestFrameAllocBudgetBench(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark harness skipped in -short mode")
	}
	const frames = 20_000
	var steady, churn armSample
	for i := 0; i < 3; i++ {
		s := measureArm(t, frames, 0, 0)
		c := measureArm(t, frames, 0, 20)
		if i == 0 || s.allocsPerFrame < steady.allocsPerFrame {
			steady = s
		}
		if i == 0 || c.allocsPerFrame < churn.allocsPerFrame {
			churn = c
		}
	}

	t.Logf("steady: %.0f ns/frame, %.2f allocs/frame (budget < 10), %.0f B/frame",
		steady.nsPerFrame, steady.allocsPerFrame, steady.bytesPerFrame)
	t.Logf("churn20: %.0f ns/frame, %.2f allocs/frame (logged, not budgeted), %.0f B/frame",
		churn.nsPerFrame, churn.allocsPerFrame, churn.bytesPerFrame)
	if steady.allocsPerFrame >= 10 {
		t.Errorf("steady-state frame loop allocates %.2f times per frame, budget is < 10", steady.allocsPerFrame)
	}
}
