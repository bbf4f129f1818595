// Package trace records system execution as the formal model of Strunk,
// Knight and Aiello (DSN 2005) sees it — a sys_trace mapping each cycle to a
// system state — and verifies the four reconfiguration properties of the
// paper's Table 2 (SP1-SP4) over recorded traces.
//
// In the paper the properties are proved once over the abstract PVS model;
// any instantiation discharging the generated proof obligations then
// inherits them. This reproduction takes the runtime-verification route to
// the same predicates: every execution yields a Trace, and the checkers in
// this package evaluate SP1-SP4 exactly as stated in the paper's formal
// properties. Property-based tests drive randomized campaigns through the
// checkers, and seeded-violation tests show the checkers are not vacuous.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/spec"
)

// ReconfStatus is reconf_st in the paper's model: the per-application
// reconfiguration status recorded each cycle.
type ReconfStatus int

// Reconfiguration statuses. StatusNormal means operation under the current
// functional specification; everything else is "not normal" for the purposes
// of SP1.
const (
	// StatusNormal is ordinary operation.
	StatusNormal ReconfStatus = iota + 1
	// StatusInterrupted marks the application whose failure (or whose
	// monitored environment change) triggered the reconfiguration, in the
	// trigger cycle.
	StatusInterrupted
	// StatusHalting covers cycles spent establishing the postcondition.
	StatusHalting
	// StatusHalted is the quiescent state after the postcondition is
	// established.
	StatusHalted
	// StatusPreparing covers cycles spent establishing the transition
	// condition for the target specification.
	StatusPreparing
	// StatusPrepared is the state after the transition condition holds.
	StatusPrepared
	// StatusInitializing covers cycles spent establishing the target
	// precondition.
	StatusInitializing
)

var statusNames = map[ReconfStatus]string{
	StatusNormal:       "normal",
	StatusInterrupted:  "interrupted",
	StatusHalting:      "halting",
	StatusHalted:       "halted",
	StatusPreparing:    "preparing",
	StatusPrepared:     "prepared",
	StatusInitializing: "initializing",
}

// String returns the status name.
func (s ReconfStatus) String() string {
	if n, ok := statusNames[s]; ok {
		return n
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Normal reports whether the status is StatusNormal.
func (s ReconfStatus) Normal() bool { return s == StatusNormal }

// MarshalJSON encodes the status by name.
func (s ReconfStatus) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON decodes a status from its name.
func (s *ReconfStatus) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for st, n := range statusNames {
		if n == name {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("trace: unknown reconfiguration status %q", name)
}

// AppState is one application's recorded state in one cycle.
type AppState struct {
	// Status is the application's reconfiguration status.
	Status ReconfStatus `json:"status"`
	// Spec is the functional specification the application is assigned
	// (its target during reconfiguration).
	Spec spec.SpecID `json:"spec"`
	// PreOK reports whether the application's precondition for Spec held
	// when the application last (re)initialized. It is the per-app input
	// to SP4.
	PreOK bool `json:"pre_ok"`
}

// SysState is tr(c): the full system state for one cycle.
type SysState struct {
	// Cycle is the cycle (frame) number.
	Cycle int64 `json:"cycle"`
	// Config is svclvl: the system configuration in effect.
	Config spec.ConfigID `json:"config"`
	// Env is the effective environment state during the cycle.
	Env spec.EnvState `json:"env"`
	// Apps maps every application (real and virtual) to its state.
	Apps map[spec.AppID]AppState `json:"apps"`
}

// allNormal reports whether every application is in StatusNormal.
func (s *SysState) allNormal() bool {
	for _, a := range s.Apps {
		if !a.Status.Normal() {
			return false
		}
	}
	return true
}

// anyInterrupted reports whether some application is StatusInterrupted.
func (s *SysState) anyInterrupted() bool {
	for _, a := range s.Apps {
		if a.Status == StatusInterrupted {
			return true
		}
	}
	return false
}

// Trace is sys_trace: the per-cycle state sequence of one execution.
//
// A trace may start after cycle 0: a trace re-expanded from a bounded
// flight-recorder ring covers only the window the ring still holds, so
// States[i] holds the state of cycle Base+i. A trace of the whole execution
// has Base 0. Property checks and reconfiguration extraction operate over
// the window; cycle numbers in results stay absolute.
type Trace struct {
	// System names the system that produced the trace.
	System string `json:"system"`
	// FrameLen is cycle_time.
	FrameLen time.Duration `json:"frame_len_ns"`
	// Base is the cycle number of States[0]; 0 for a whole execution.
	Base int64 `json:"base,omitempty"`
	// States holds one entry per cycle, in cycle order starting at Base.
	States []SysState `json:"states"`
}

// Append adds the state for the next cycle. It returns an error if the
// cycle number is not contiguous with the trace.
func (t *Trace) Append(s SysState) error {
	if want := t.Base + int64(len(t.States)); s.Cycle != want {
		return fmt.Errorf("trace: appending cycle %d, want %d", s.Cycle, want)
	}
	t.States = append(t.States, s)
	return nil
}

// At returns the state at the given cycle. Cycles before Base report !ok,
// like cycles past the end.
func (t *Trace) At(cycle int64) (SysState, bool) {
	i := cycle - t.Base
	if i < 0 || i >= int64(len(t.States)) {
		return SysState{}, false
	}
	return t.States[i], true
}

// Len returns the number of cycles in the trace. For a trace of the whole
// execution this is the number of cycles executed; End gives the absolute
// cycle bound.
func (t *Trace) Len() int64 { return int64(len(t.States)) }

// End returns the exclusive upper cycle bound: the next cycle Append
// expects. For a trace with Base 0, End == Len.
func (t *Trace) End() int64 { return t.Base + int64(len(t.States)) }

// AppIDs returns every application identifier appearing in the trace,
// sorted.
func (t *Trace) AppIDs() []spec.AppID {
	set := make(map[spec.AppID]bool)
	for _, s := range t.States {
		for id := range s.Apps {
			set[id] = true
		}
	}
	ids := make([]spec.AppID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Reconfiguration is one completed reconfiguration found in a trace: the
// record type of the paper's formal model, [# start_c, end_c #], augmented
// with the source and target configurations for reporting.
type Reconfiguration struct {
	// StartC is the cycle in which the reconfiguration begins: the first
	// cycle in which any application is no longer operating normally.
	StartC int64 `json:"start_c"`
	// EndC is the cycle in which the reconfiguration ends: the first
	// subsequent cycle in which every application operates normally
	// again.
	EndC int64 `json:"end_c"`
	// From is svclvl at StartC.
	From spec.ConfigID `json:"from"`
	// To is svclvl at EndC.
	To spec.ConfigID `json:"to"`
}

// Frames returns the inclusive window length in cycles,
// end_c - start_c + 1.
func (r Reconfiguration) Frames() int64 { return r.EndC - r.StartC + 1 }

// Reconfigs is get_reconfigs: it extracts every completed reconfiguration
// from the trace. A trailing window still open when the trace ends is not
// returned here; see OpenReconfig.
func (t *Trace) Reconfigs() []Reconfiguration {
	var out []Reconfiguration
	n := int64(len(t.States))
	var c int64
	for c < n {
		if t.States[c].allNormal() {
			c++
			continue
		}
		start := c
		for c < n && !t.States[c].allNormal() {
			c++
		}
		if c == n {
			break // open window at end of trace
		}
		out = append(out, Reconfiguration{
			StartC: t.Base + start,
			EndC:   t.Base + c,
			From:   t.States[start].Config,
			To:     t.States[c].Config,
		})
		c++
	}
	return out
}

// OpenReconfig returns the reconfiguration window still in progress when the
// trace ends, if any. EndC is the last recorded cycle and To is the
// tentative target configuration at that cycle.
func (t *Trace) OpenReconfig() (Reconfiguration, bool) {
	n := int64(len(t.States))
	if n == 0 || t.States[n-1].allNormal() {
		return Reconfiguration{}, false
	}
	start := n - 1
	for start > 0 && !t.States[start-1].allNormal() {
		start--
	}
	return Reconfiguration{
		StartC: t.Base + start,
		EndC:   t.Base + n - 1,
		From:   t.States[start].Config,
		To:     t.States[n-1].Config,
	}, true
}

// RestrictionFrames returns the total number of cycles in which system
// function was restricted (some application not operating normally). It is
// the quantity bounded by the restriction-time analysis of section 5.3.
func (t *Trace) RestrictionFrames() int64 {
	var total int64
	for _, s := range t.States {
		if !s.allNormal() {
			total++
		}
	}
	return total
}

// MaxRestrictionRun returns the length in cycles of the longest contiguous
// restriction window, including a trailing open window.
func (t *Trace) MaxRestrictionRun() int64 {
	var maxRun, run int64
	for _, s := range t.States {
		if s.allNormal() {
			run = 0
			continue
		}
		run++
		if run > maxRun {
			maxRun = run
		}
	}
	return maxRun
}

// MarshalJSON writes the trace in its JSON form.
func (t *Trace) MarshalJSON() ([]byte, error) {
	type alias Trace
	return json.Marshal((*alias)(t))
}

// UnmarshalJSON reads a trace written by MarshalJSON and validates cycle
// contiguity.
func (t *Trace) UnmarshalJSON(b []byte) error {
	type alias Trace
	if err := json.Unmarshal(b, (*alias)(t)); err != nil {
		return fmt.Errorf("trace: decoding: %w", err)
	}
	if t.Base < 0 {
		return fmt.Errorf("trace: negative base %d", t.Base)
	}
	for i, s := range t.States {
		if s.Cycle != t.Base+int64(i) {
			return fmt.Errorf("trace: state %d has cycle %d, want %d", i, s.Cycle, t.Base+int64(i))
		}
	}
	return nil
}
