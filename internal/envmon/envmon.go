// Package envmon models the system's operating environment and the monitor
// applications that observe it.
//
// Section 6.3 of Strunk, Knight and Aiello (DSN 2005) folds component
// failures into the environment: "the status of a component is modeled as an
// element of the environment, and a failure is simply a change in the
// environment. Any environmental factor whose change could necessitate a
// reconfiguration can have a virtual application to monitor its status and
// generate a signal if the value changes."
//
// Environment is the evolving set of raw factors (alternator status, battery
// charge, weather, processor health). A Classifier abstracts the raw factors
// into one of the discrete spec.EnvState values the choice table is defined
// over. Monitor is the virtual application: each frame it classifies the
// environment and signals the SCRAM when the classification changes. Script
// drives deterministic environment evolution from a frame-indexed event
// list.
package envmon

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/frame"
	"repro/internal/spec"
)

// Factor names one environmental characteristic, e.g. "alternator-1".
type Factor string

// ProcHealth returns the factor name carrying a processor's health. The
// runtime (internal/core) maintains one such factor per declared processor;
// classifiers consult them to fold component failures into the environment.
func ProcHealth(id spec.ProcID) Factor {
	//lint:allow allocfree construction-time naming: frame-path callers cache the factor per processor (core precomputes its procHealth list)
	return Factor("proc/" + string(id))
}

// Processor health factor values.
const (
	ProcOK     = "ok"
	ProcFailed = "failed"
)

// Environment is the authoritative current value of every environmental
// factor. It is safe for concurrent use.
type Environment struct {
	mu      sync.Mutex
	factors map[Factor]string
	// version counts effective changes: Set bumps it only when a factor's
	// value actually changes. Frame-loop consumers (monitors, processor-health
	// sync) cache their classification keyed on the version, so the quiet
	// steady state re-snapshots and re-classifies nothing.
	version uint64
}

// NewEnvironment returns an environment holding the given initial factor
// values (copied).
func NewEnvironment(initial map[Factor]string) *Environment {
	f := make(map[Factor]string, len(initial))
	for k, v := range initial {
		f[k] = v
	}
	return &Environment{factors: f}
}

// Set changes a factor's value. In the model this is the moment a component
// fails, is repaired, or an external condition shifts.
func (e *Environment) Set(f Factor, v string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if old, ok := e.factors[f]; !ok || old != v {
		e.factors[f] = v
		e.version++
	}
}

// Version returns the change counter: it advances exactly when some factor's
// value changes. Observers may skip reclassification while it is unchanged.
func (e *Environment) Version() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.version
}

// Get returns a factor's current value.
func (e *Environment) Get(f Factor) (string, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.factors[f]
	return v, ok
}

// Snapshot returns a copy of all factor values.
func (e *Environment) Snapshot() map[Factor]string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[Factor]string, len(e.factors))
	for k, v := range e.factors {
		out[k] = v
	}
	return out
}

// Classifier abstracts raw factor values into the discrete environment
// state the reconfiguration specification is defined over.
type Classifier func(map[Factor]string) spec.EnvState

// Signal is a monitor's report to the SCRAM that the effective environment
// state changed. Per Figure 1 of the paper, failure signals travel on a
// direct signal path to the SCRAM (not through stable storage, which is
// reserved for reconfiguration coordination).
type Signal struct {
	// Source is the monitor that generated the signal.
	Source spec.AppID
	// State is the new effective environment state.
	State spec.EnvState
	// Frame is the frame in which the change was observed.
	Frame int64
	// Urgent marks a hardware fault signal (a processor loss detected by
	// the platform's failure detectors, Figure 1's direct path) as opposed
	// to an environment observation. Urgent signals report that the
	// current configuration is already broken, so anti-thrash damping
	// (the dwell guard) must not delay the response.
	Urgent bool
	// Span is the signal-detection span opened for this signal, stamped by
	// the SCRAM manager at the frame-commit delivery point — not by the
	// monitor task, which ticks before the commit and must not touch the
	// deterministic span counters (span-book methods run only in commit
	// hooks). Zero when tracing is off.
	Span int64
}

// Monitor is a virtual application that classifies the environment every
// frame and emits a Signal when the classification changes. It implements
// frame.Task.
type Monitor struct {
	id       spec.AppID
	env      *Environment
	classify Classifier
	emit     func(Signal)

	mu      sync.Mutex
	last    spec.EnvState
	primed  bool
	signals int64
	// seenVersion is the environment version last classified; while the
	// environment reports the same version the classification cannot have
	// changed, so Tick skips the snapshot-and-classify entirely.
	seenVersion uint64
}

// NewMonitor returns a monitor that reports changes through emit. The
// initial state is primed on the first Tick without emitting, matching the
// paper's assumption that the SCRAM knows the start environment statically.
func NewMonitor(id spec.AppID, env *Environment, classify Classifier, emit func(Signal)) *Monitor {
	return &Monitor{id: id, env: env, classify: classify, emit: emit}
}

// ID returns the monitor's application identifier.
func (m *Monitor) ID() spec.AppID { return m.id }

// TaskID implements frame.Task.
func (m *Monitor) TaskID() string { return "monitor:" + string(m.id) }

// Current returns the monitor's latest classification (the start state
// before the first Tick).
func (m *Monitor) Current() spec.EnvState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.last
}

// SignalCount returns the number of signals emitted.
func (m *Monitor) SignalCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.signals
}

// Tick classifies the environment and signals on change. Classification is
// skipped while the environment version is unchanged: the classifier is a
// pure function of the factor map, so an unchanged map yields an unchanged
// classification.
func (m *Monitor) Tick(ctx frame.Context) error {
	ver := m.env.Version()
	m.mu.Lock()
	if m.primed && ver == m.seenVersion {
		m.mu.Unlock()
		return nil
	}
	m.mu.Unlock()
	state := m.classify(m.env.Snapshot())
	m.mu.Lock()
	changed := m.primed && state != m.last
	m.last = state
	m.primed = true
	m.seenVersion = ver
	if changed {
		m.signals++
	}
	m.mu.Unlock()
	if changed {
		m.emit(Signal{Source: m.id, State: state, Frame: ctx.Frame})
	}
	return nil
}

// Event is one scripted environment change, applied so that it is visible to
// every task during the given frame.
type Event struct {
	Frame  int64  `json:"frame"`
	Factor Factor `json:"factor"`
	Value  string `json:"value"`
}

// Script applies a deterministic sequence of environment events. Events for
// frame f are applied at the end of frame f-1 (via the commit hook), so all
// tasks of frame f observe them; events for frame 0 are applied by Init.
type Script struct {
	env    *Environment
	events []Event
	next   int
}

// NewScript returns a script over env. Events are sorted by frame (stable
// for equal frames).
func NewScript(env *Environment, events []Event) *Script {
	sorted := make([]Event, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Frame < sorted[j].Frame })
	return &Script{env: env, events: sorted}
}

// Init applies every event scheduled at or before frame 0. Call it once
// before the first frame.
func (s *Script) Init() {
	s.applyThrough(0)
}

// Hook is the frame-end hook: at the end of frame k it applies every event
// scheduled for frame k+1.
func (s *Script) Hook(ctx frame.Context) error {
	s.applyThrough(ctx.Frame + 1)
	return nil
}

// Done reports whether every scripted event has been applied.
func (s *Script) Done() bool { return s.next >= len(s.events) }

func (s *Script) applyThrough(frameNum int64) {
	for s.next < len(s.events) && s.events[s.next].Frame <= frameNum {
		ev := s.events[s.next]
		s.env.Set(ev.Factor, ev.Value)
		s.next++
	}
}

// String renders the signal for logs.
func (s Signal) String() string {
	return fmt.Sprintf("signal{%s -> %s @f%d}", s.Source, s.State, s.Frame)
}
