// Package experiments regenerates the paper's tables and figures as
// executable artifacts. Each experiment returns structured results plus a
// formatted text table; cmd/faultsim prints them, the repository benchmarks
// measure them, and EXPERIMENTS.md records them against the paper.
//
// Index (see DESIGN.md for the full mapping):
//
//	T1  Table 1  — the SFTA phase protocol, rendered from a live run
//	T2  Table 2  — SP1-SP4 over randomized campaigns
//	T2x bounded-exhaustive verification of every env sequence to a depth
//	F2  Figure 2 — static proof obligations of the avionics instantiation
//	E1  §5.1     — equipment: masking vs reconfiguration
//	E2  §5.3     — restriction time: chain bound vs interposition vs measured
//	E3  §5.3     — cyclic reconfiguration and the dwell guard
//	E4  §7       — the avionics scenario end to end
package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/avionics"
	"repro/internal/envmon"
	"repro/internal/inject"
	"repro/internal/masking"
	"repro/internal/scram"
	"repro/internal/spec"
	"repro/internal/spectest"
	"repro/internal/statics"
	"repro/internal/trace"
)

// tableWriter accumulates aligned text rows.
type tableWriter struct {
	b     strings.Builder
	width []int
	rows  [][]string
}

func (w *tableWriter) row(cells ...string) {
	for i, c := range cells {
		if i >= len(w.width) {
			w.width = append(w.width, 0)
		}
		if len(c) > w.width[i] {
			w.width[i] = len(c)
		}
	}
	w.rows = append(w.rows, cells)
}

func (w *tableWriter) String() string {
	for r, cells := range w.rows {
		for i, c := range cells {
			fmt.Fprintf(&w.b, "%-*s", w.width[i]+2, c)
		}
		w.b.WriteString("\n")
		if r == 0 {
			total := 0
			for _, wd := range w.width {
				total += wd + 2
			}
			w.b.WriteString(strings.Repeat("-", total) + "\n")
		}
	}
	return w.b.String()
}

// RenderTable1 renders a kernel's protocol event log in the shape of the
// paper's Table 1.
func RenderTable1(events []scram.Event) string {
	var w tableWriter
	w.row("Frame", "Event", "Configuration", "Detail")
	for _, e := range events {
		w.row(fmt.Sprintf("%d", e.Frame), string(e.Kind), string(e.Config), e.Detail)
	}
	return w.String()
}

// Table1Result is the T1 experiment output.
type Table1Result struct {
	// Events is the protocol log of the single reconfiguration.
	Events []scram.Event
	// Window is the reconfiguration found in the trace.
	Window trace.Reconfiguration
	// Violations are any SP violations (expected empty).
	Violations []trace.Violation
	// Text is the rendered table.
	Text string
}

// Table1 runs the canonical section 7.1 scenario — an alternator failure in
// full service — and renders the resulting protocol exchange.
func Table1() (*Table1Result, error) {
	sc, err := avionics.NewScenario(avionics.ScenarioOptions{
		Initial: avionics.AircraftState{AltFt: 5000, AirspeedKts: 100},
		Script: []envmon.Event{
			{Frame: 10, Factor: avionics.FactorAlt1, Value: avionics.AltFailed},
		},
		DwellFrames: -1,
	})
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	if err := sc.Sys.Run(30); err != nil {
		return nil, err
	}
	res := &Table1Result{
		Events:     sc.Sys.Kernel().Events(),
		Violations: sc.Sys.CheckProperties(),
	}
	if rcs := sc.Sys.Trace().Reconfigs(); len(rcs) == 1 {
		res.Window = rcs[0]
	} else {
		return nil, fmt.Errorf("experiments: expected exactly one reconfiguration, found %d", len(rcs))
	}
	res.Text = "T1: SFTA phases (paper Table 1) — alternator failure, Full -> Reduced\n" +
		RenderTable1(res.Events) +
		fmt.Sprintf("window [%d,%d] = %d frames (trigger + halt + prepare + init-chain)\n",
			res.Window.StartC, res.Window.EndC, res.Window.Frames())
	return res, nil
}

// Table2Row is one randomized campaign's property outcome.
type Table2Row struct {
	Seed       int64
	Apps       int
	Configs    int
	Reconfigs  int
	WindowMax  int64
	Violations int
}

// Table2Result is the T2 experiment output.
type Table2Result struct {
	Rows            []Table2Row
	TotalReconfigs  int
	TotalViolations int
	Text            string
}

// Table2 runs randomized-system campaigns and reports SP1-SP4 outcomes: the
// runtime-verification counterpart of the paper's mechanically checked
// proofs.
func Table2(seeds int, frames int) (*Table2Result, error) {
	res := &Table2Result{}
	var w tableWriter
	w.row("Seed", "Apps", "Configs", "Reconfigs", "MaxWindow", "SP violations")
	for seed := int64(0); seed < int64(seeds); seed++ {
		c := inject.RandomCampaign{
			Seed:      seed,
			Frames:    frames,
			Apps:      2 + int(seed%4),
			Configs:   2 + int(seed%3),
			Envs:      2 + int(seed%3),
			EnvEvents: frames / 20,
		}
		m, _, err := c.Run()
		if err != nil {
			return nil, err
		}
		row := Table2Row{
			Seed:       seed,
			Apps:       c.Apps,
			Configs:    c.Configs,
			Reconfigs:  m.Reconfigs,
			WindowMax:  m.WindowMax,
			Violations: len(m.Violations),
		}
		res.Rows = append(res.Rows, row)
		res.TotalReconfigs += m.Reconfigs
		res.TotalViolations += len(m.Violations)
		w.row(fmt.Sprintf("%d", seed), fmt.Sprintf("%d", row.Apps), fmt.Sprintf("%d", row.Configs),
			fmt.Sprintf("%d", row.Reconfigs), fmt.Sprintf("%d", row.WindowMax), fmt.Sprintf("%d", row.Violations))
	}
	res.Text = fmt.Sprintf("T2: SP1-SP4 over %d randomized systems x %d frames (paper Table 2)\n", seeds, frames) +
		w.String() +
		fmt.Sprintf("total: %d reconfigurations, %d violations\n", res.TotalReconfigs, res.TotalViolations)
	return res, nil
}

// Figure2Result is the F2 experiment output: the static obligations of the
// avionics instantiation, and the outcome for deliberately broken mutants.
type Figure2Result struct {
	Report        *statics.Report
	MutantReports map[string]*statics.Report
	Text          string
}

// Figure2 type checks the avionics instantiation against the architecture's
// obligations (the paper's generated TCCs) and shows that representative
// mutants fail.
func Figure2() (*Figure2Result, error) {
	res := &Figure2Result{MutantReports: make(map[string]*statics.Report)}
	report, err := statics.Check(avionics.Spec())
	if err != nil {
		return nil, err
	}
	res.Report = report

	mutants := map[string]func(*spec.ReconfigSpec){
		"missing-choice-entry (covering_txns)": func(rs *spec.ReconfigSpec) {
			delete(rs.Choice[avionics.CfgFull], avionics.EnvPowerBattery)
		},
		"cyclic-dependency (dep_acyclic)": func(rs *spec.ReconfigSpec) {
			rs.Deps = append(rs.Deps, spec.Dependency{
				Independent: avionics.AppAutopilot,
				Dependent:   avionics.AppFCS,
				Phase:       spec.PhaseInit,
			})
		},
		"undersized-bound (timing)": func(rs *spec.ReconfigSpec) {
			rs.Transitions[0].MaxFrames = 2
		},
		"overloaded-config (resources)": func(rs *spec.ReconfigSpec) {
			rs.Platform.Procs[0].Capacity = spec.Resources{CPU: 1, MemoryKB: 64, PowerMW: 50}
		},
		"no-dwell-with-cycles (dwell_guard)": func(rs *spec.ReconfigSpec) {
			rs.DwellFrames = 0
		},
	}
	var w tableWriter
	w.row("Specification", "Obligations", "Failures")
	w.row("avionics (as published)", fmt.Sprintf("%d", len(report.Obligations)+len(report.Timing)),
		strings.Join(report.Failures(), ", "))
	names := make([]string, 0, len(mutants))
	for name := range mutants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rs := avionics.Spec()
		mutants[name](rs)
		mr, err := statics.Check(rs)
		if err != nil {
			return nil, err
		}
		res.MutantReports[name] = mr
		w.row(name, fmt.Sprintf("%d", len(mr.Obligations)+len(mr.Timing)),
			strings.Join(mr.Failures(), ", "))
	}
	res.Text = "F2: static proof obligations (paper Figure 2 / section 7.2)\n" + w.String()
	return res, nil
}

// EquipmentResultSet is the E1 experiment output.
type EquipmentResultSet struct {
	Rows []masking.EquipmentResult
	Text string
}

// Equipment reproduces the section 5.1 resource argument for the avionics
// platform shape: full service needs 2 computers, safe (minimal) service
// needs 1.
func Equipment(maxFailures int) (*EquipmentResultSet, error) {
	rows, err := masking.EquipmentSweep(2, 1, maxFailures)
	if err != nil {
		return nil, err
	}
	var w tableWriter
	w.row("MaxFailures", "Masking total", "Reconfig total", "Saved", "Masking excess", "Reconfig excess")
	for _, r := range rows {
		w.row(
			fmt.Sprintf("%d", r.Params.MaxFailures),
			fmt.Sprintf("%d", r.MaskingTotal),
			fmt.Sprintf("%d", r.ReconfigTotal),
			fmt.Sprintf("%d", r.Saved),
			fmt.Sprintf("%d", r.MaskingExcess),
			fmt.Sprintf("%d", r.ReconfigExcess),
		)
	}
	return &EquipmentResultSet{
		Rows: rows,
		Text: "E1: equipment requirement, masking vs reconfiguration (section 5.1)\n" +
			"    full service = 2 processors, basic safe service = 1 processor\n" + w.String(),
	}, nil
}

// RestrictionResult is the E2 experiment output.
type RestrictionResult struct {
	// ChainBoundFrames is the analytic Σ T(i-1, i) over the longest chain.
	ChainBoundFrames int
	// Chain is the worst chain.
	Chain []spec.ConfigID
	// InterposedBoundFrames is the analytic max{T(i, s)} bound.
	InterposedBoundFrames int
	// MeasuredChainMax is the worst restriction chain observed in the
	// double-failure campaign.
	MeasuredChainMax int64
	// MeasuredWindowMax is the worst single window observed.
	MeasuredWindowMax int64
	// InterposedMeasuredChainMax is the worst chain with the
	// mechanically interposed choice table (statics.Interpose), where
	// the same double failure takes a single hop to safety.
	InterposedMeasuredChainMax int64
	// Violations from the measurement campaign (expected empty).
	Violations []trace.Violation
	Text       string
}

// Restriction reproduces the section 5.3 restriction-time analysis on the
// avionics specification: both analytic bounds, plus a measured worst case
// from a double-failure campaign (both alternators lost two frames apart,
// forcing the full -> reduced -> minimal chain).
func Restriction() (*RestrictionResult, error) {
	rs := avionics.Spec()
	rs.DwellFrames = 1
	report, err := statics.Check(rs)
	if err != nil {
		return nil, err
	}
	res := &RestrictionResult{
		ChainBoundFrames:      report.Restriction.LongestChainFrames,
		Chain:                 report.Restriction.LongestChain,
		InterposedBoundFrames: report.Restriction.InterposedBoundFrames,
	}

	script := []envmon.Event{
		{Frame: 10, Factor: avionics.FactorAlt1, Value: avionics.AltFailed},
		{Frame: 12, Factor: avionics.FactorAlt2, Value: avionics.AltFailed},
	}
	measure := func(sysSpec *spec.ReconfigSpec) (inject.Metrics, error) {
		sc, err := avionics.NewScenarioWithSpec(sysSpec, avionics.ScenarioOptions{
			Initial:     avionics.AircraftState{AltFt: 5000, AirspeedKts: 100},
			Script:      script,
			DwellFrames: 1,
		})
		if err != nil {
			return inject.Metrics{}, err
		}
		defer sc.Close()
		if err := sc.Sys.Run(120); err != nil {
			return inject.Metrics{}, err
		}
		return inject.Collect(sc.Sys.Trace(), sysSpec, int64(sysSpec.DwellFrames)+2)
	}

	m, err := measure(rs)
	if err != nil {
		return nil, err
	}
	res.MeasuredChainMax = m.ChainMax
	res.MeasuredWindowMax = m.WindowMax
	res.Violations = m.Violations

	interposed, err := statics.Interpose(avionics.Spec(), avionics.CfgMinimal)
	if err != nil {
		return nil, err
	}
	interposed.DwellFrames = 1
	mi, err := measure(interposed)
	if err != nil {
		return nil, err
	}
	res.InterposedMeasuredChainMax = mi.ChainMax
	res.Violations = append(res.Violations, mi.Violations...)

	var w tableWriter
	w.row("Quantity", "Frames", "Milliseconds")
	ms := func(frames int64) string {
		return fmt.Sprintf("%.0f", float64(frames)*rs.FrameLen.Seconds()*1000)
	}
	w.row("Longest-chain bound ΣT (analytic)", fmt.Sprintf("%d", res.ChainBoundFrames), ms(int64(res.ChainBoundFrames)))
	w.row("Interposed bound max{T(i,s)} (analytic)", fmt.Sprintf("%d", res.InterposedBoundFrames), ms(int64(res.InterposedBoundFrames)))
	w.row("Measured worst chain (double failure)", fmt.Sprintf("%d", res.MeasuredChainMax), ms(res.MeasuredChainMax))
	w.row("Measured worst single window", fmt.Sprintf("%d", res.MeasuredWindowMax), ms(res.MeasuredWindowMax))
	w.row("Measured worst chain, interposed table", fmt.Sprintf("%d", res.InterposedMeasuredChainMax), ms(res.InterposedMeasuredChainMax))
	res.Text = fmt.Sprintf("E2: worst-case service restriction (section 5.3); worst chain %v\n", res.Chain) + w.String()
	return res, nil
}

// CycleGuardRow is one churn campaign outcome.
type CycleGuardRow struct {
	DwellFrames int
	Reconfigs   int
	PerKFrames  float64
	Violations  int
}

// CycleGuardResult is the E3 experiment output.
type CycleGuardResult struct {
	Rows []CycleGuardRow
	Text string
}

// CycleGuard drives the avionics system through rapid alternator flapping
// under increasing dwell guards, showing the guard bounding the
// reconfiguration rate (section 5.3's cyclic-reconfiguration defense).
func CycleGuard(frames int, flapPeriod int) (*CycleGuardResult, error) {
	res := &CycleGuardResult{}
	var w tableWriter
	w.row("DwellFrames", "Reconfigs", "Reconfigs/1000 frames", "SP violations")
	for _, dwell := range []int{1, 5, 25, 100} {
		var script []envmon.Event
		val := avionics.AltFailed
		for f := 10; f < frames; f += flapPeriod {
			script = append(script, envmon.Event{Frame: int64(f), Factor: avionics.FactorAlt1, Value: val})
			if val == avionics.AltFailed {
				val = avionics.AltOK
			} else {
				val = avionics.AltFailed
			}
		}
		sc, err := avionics.NewScenario(avionics.ScenarioOptions{
			Initial:     avionics.AircraftState{AltFt: 5000, AirspeedKts: 100},
			Script:      script,
			DwellFrames: dwell,
		})
		if err != nil {
			return nil, err
		}
		if err := sc.Sys.Run(frames); err != nil {
			sc.Close()
			return nil, err
		}
		m, err := inject.Collect(sc.Sys.Trace(), avionics.Spec(), int64(dwell)+2)
		sc.Close()
		if err != nil {
			return nil, err
		}
		row := CycleGuardRow{
			DwellFrames: dwell,
			Reconfigs:   m.Reconfigs,
			PerKFrames:  float64(m.Reconfigs) * 1000 / float64(frames),
			Violations:  len(m.Violations),
		}
		res.Rows = append(res.Rows, row)
		w.row(fmt.Sprintf("%d", dwell), fmt.Sprintf("%d", row.Reconfigs),
			fmt.Sprintf("%.1f", row.PerKFrames), fmt.Sprintf("%d", row.Violations))
	}
	res.Text = fmt.Sprintf("E3: dwell guard vs environment churn (%d frames, flap every %d frames)\n",
		frames, flapPeriod) + w.String()
	return res, nil
}

// ScenarioResult is the E4 experiment output.
type ScenarioResult struct {
	Reconfigs  []trace.Reconfiguration
	Violations []trace.Violation
	FinalAlt   float64
	Text       string
}

// Scenario runs the full section 7 mission: climb, turn, first alternator
// loss (reduced service), second alternator loss (minimal service), repair
// (back to reduced).
func Scenario() (*ScenarioResult, error) {
	sc, err := avionics.NewScenario(avionics.ScenarioOptions{
		Initial:     avionics.AircraftState{AltFt: 5000, AirspeedKts: 100},
		Targets:     avionics.Targets{AltFt: 5300, HdgDeg: 45, Climb: true, Turn: true},
		DwellFrames: 10,
		Script: []envmon.Event{
			{Frame: 500, Factor: avionics.FactorAlt1, Value: avionics.AltFailed},
			{Frame: 1200, Factor: avionics.FactorAlt2, Value: avionics.AltFailed},
			{Frame: 1800, Factor: avionics.FactorAlt1, Value: avionics.AltOK},
		},
	})
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	if err := sc.Sys.Run(2400); err != nil {
		return nil, err
	}
	res := &ScenarioResult{
		Reconfigs:  sc.Sys.Trace().Reconfigs(),
		Violations: sc.Sys.CheckProperties(),
		FinalAlt:   sc.Dyn.State().AltFt,
	}
	var w tableWriter
	w.row("Window", "From", "To", "Frames")
	for _, r := range res.Reconfigs {
		w.row(fmt.Sprintf("[%d,%d]", r.StartC, r.EndC), string(r.From), string(r.To),
			fmt.Sprintf("%d", r.Frames()))
	}
	res.Text = fmt.Sprintf("E4: section 7 mission (2400 frames = 48 s); final altitude %.0f ft; %d violations\n",
		res.FinalAlt, len(res.Violations)) + w.String()
	return res, nil
}

// FailureSweepRow is one offset's outcome in the E5 sweep.
type FailureSweepRow struct {
	// Offset is where the second failure lands relative to the first
	// window's trigger frame.
	Offset int64
	// Windows is the number of completed reconfigurations.
	Windows int
	// Final is the configuration reached.
	Final spec.ConfigID
	// TotalRestriction is the summed restriction frames.
	TotalRestriction int64
	// Violations counts SP violations (expected 0).
	Violations int
}

// FailureSweepResult is the E5 experiment output.
type FailureSweepResult struct {
	Rows []FailureSweepRow
	Text string
}

// FailureSweep is experiment E5 (section 7.1's "failures during
// reconfiguration"): the second alternator fails in each frame of the first
// reconfiguration window in turn — the trigger frame, the halt frame, the
// prepare frame, each initialize frame, and the completion frame. Under the
// buffer policy the second transition is deferred to a fresh window; in
// every case the system must end in minimal service with all properties
// intact.
func FailureSweep() (*FailureSweepResult, error) {
	res := &FailureSweepResult{}
	var w tableWriter
	w.row("2nd failure offset", "Windows", "Final configuration", "Restriction frames", "SP violations")
	for offset := int64(0); offset <= 5; offset++ {
		sc, err := avionics.NewScenario(avionics.ScenarioOptions{
			Initial: avionics.AircraftState{AltFt: 5000, AirspeedKts: 100},
			Script: []envmon.Event{
				{Frame: 20, Factor: avionics.FactorAlt1, Value: avionics.AltFailed},
				{Frame: 20 + offset, Factor: avionics.FactorAlt2, Value: avionics.AltFailed},
			},
			DwellFrames: 1,
		})
		if err != nil {
			return nil, err
		}
		if err := sc.Sys.Run(80); err != nil {
			sc.Close()
			return nil, err
		}
		tr := sc.Sys.Trace()
		row := FailureSweepRow{
			Offset:           offset,
			Windows:          len(tr.Reconfigs()),
			Final:            sc.Sys.Kernel().Current(),
			TotalRestriction: tr.RestrictionFrames(),
			Violations:       len(sc.Sys.CheckProperties()),
		}
		sc.Close()
		res.Rows = append(res.Rows, row)
		w.row(fmt.Sprintf("+%d", row.Offset), fmt.Sprintf("%d", row.Windows), string(row.Final),
			fmt.Sprintf("%d", row.TotalRestriction), fmt.Sprintf("%d", row.Violations))
	}
	res.Text = "E5: second failure in every protocol frame (section 7.1)\n" + w.String()
	return res, nil
}

// ExhaustiveResult is the bounded-exhaustive verification output.
type ExhaustiveResult struct {
	Staged     inject.ExhaustiveResult
	Compressed inject.ExhaustiveResult
	Text       string
}

// ExhaustiveVerification enumerates every environment sequence of the given
// depth over the canonical three-state system — under both the staged and
// the compressed protocol — and checks SP1-SP4 on every run: complete
// coverage of the behaviour space up to the bound, the executable
// counterpart of the paper's "proved over all traces".
func ExhaustiveVerification(depth int) (*ExhaustiveResult, error) {
	res := &ExhaustiveResult{}

	staged := spectest.ThreeConfig()
	staged.DwellFrames = 2
	var err error
	res.Staged, err = inject.Exhaustive(staged, depth, 12)
	if err != nil {
		return nil, err
	}

	compressed := spectest.ThreeConfig()
	compressed.Compression = true
	compressed.DwellFrames = 2
	if err := spectest.SizeTransitions(compressed, rand.New(rand.NewSource(1))); err != nil {
		return nil, err
	}
	res.Compressed, err = inject.Exhaustive(compressed, depth, 12)
	if err != nil {
		return nil, err
	}

	var w tableWriter
	w.row("Protocol", "Sequences", "System runs", "Reconfigurations", "SP violations")
	w.row("staged", fmt.Sprintf("3^%d", depth), fmt.Sprintf("%d", res.Staged.Runs),
		fmt.Sprintf("%d", res.Staged.Reconfigs), fmt.Sprintf("%d", len(res.Staged.Violations)))
	w.row("compressed", fmt.Sprintf("3^%d", depth), fmt.Sprintf("%d", res.Compressed.Runs),
		fmt.Sprintf("%d", res.Compressed.Reconfigs), fmt.Sprintf("%d", len(res.Compressed.Violations)))
	res.Text = fmt.Sprintf("T2x: bounded-exhaustive verification (every environment sequence of depth %d)\n", depth) +
		w.String()
	return res, nil
}
