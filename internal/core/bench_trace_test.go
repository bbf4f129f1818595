package core

import (
	"testing"

	"repro/internal/envmon"
	"repro/internal/spec"
	"repro/internal/spectest"
)

// buildTraceBenchSystem wires the canonical steady-state system with full
// telemetry on and the causal-trace layer either enabled (the default) or
// ablated via DisableTracing. Both arms record events, sample frame state
// and persist the journal — the subtraction isolates the span layer itself:
// trace-ID derivation, span open/close bookkeeping, and the span events on
// the ring.
func buildTraceBenchSystem(tb testing.TB, disableTracing bool) *System {
	tb.Helper()
	sys, err := NewSystem(Options{
		Spec: spectest.ThreeConfig(),
		Apps: map[spec.AppID]App{
			spectest.AppAP:  &testApp{id: spectest.AppAP},
			spectest.AppFCS: &testApp{id: spectest.AppFCS},
		},
		Classifier:     powerClassifier(false),
		InitialFactors: map[envmon.Factor]string{"alt1": "ok", "alt2": "ok"},
		TraceSeed:      7,
		DisableTracing: disableTracing,
	})
	if err != nil {
		tb.Fatalf("NewSystem: %v", err)
	}
	tb.Cleanup(sys.Close)
	return sys
}

// TestTraceOverheadBench measures the marginal cost of the causal-trace
// layer on the steady-state frame loop and logs it; it writes no file. The
// baseline is telemetry=on (the same arm TestTelemetryOverheadBench
// measures), so the number answers the question the span layer raises:
// what do spans add on top of the journal that was already there? The
// target is within 5% ns/frame of the telemetry=on baseline; the assertion
// leaves CI-jitter headroom at 15%. A quiet steady-state frame opens no
// spans, so the marginal cost is the span book's per-frame bookkeeping
// alone — the span events themselves are charged to reconfiguration
// windows.
func TestTraceOverheadBench(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark harness skipped in -short mode")
	}
	on, off, medianPct := measurePair(t, buildTraceBenchSystem(t, false), buildTraceBenchSystem(t, true))

	t.Logf("steady: tracing on %.0f ns/frame (%.1f allocs) vs off %.0f (%.1f) = %.2f%% median overhead",
		on.nsPerFrame, on.allocsPerFrame, off.nsPerFrame, off.allocsPerFrame, medianPct)
	if medianPct > 15 {
		t.Errorf("steady-state tracing overhead %.2f%% ns/frame exceeds the 15%% ceiling (target < 5%%)", medianPct)
	}
}
