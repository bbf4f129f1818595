// Command flightrec reads a flight-recorder journal — the black-box event
// ring recovered from a fail-stop system's stable storage (campaign
// -ring-out, a fleet tenant's /journal, or telemetry.WriteJournal) — and
// renders it for post-mortem analysis.
//
// Usage:
//
//	flightrec -ring ring.jsonl                       # dump every event
//	flightrec -ring ring.jsonl -app fcs -since-frame 40
//	flightrec -ring ring.jsonl -phase prepare
//	flightrec -ring ring.jsonl -summary -canonical   # timeline + SP checks
//	flightrec -ring ring.jsonl -summary -spec system.json
//	flightrec -ring ring.jsonl -trace                # causal-trace waterfalls
//	flightrec -ring ring.jsonl -trace -trace-id 00000000075bcd15 -json
//
// The default mode dumps the (filtered) events one per line. -summary
// assembles the reconfiguration timeline — each window's halt, prepare and
// initialize phases with their frame budgets against the specification's
// transition bound — plus the fault-handling tallies, then reconstructs the
// system trace from the ring's frame-state samples and reruns the SP1-SP4
// checkers over it. SP1 and SP4 need only the trace; SP2 and SP3 also need
// the specification (-spec, -canonical for the built-in three-configuration
// system, or -avionics). The exit status is 1 if any checked property is
// violated, so a recovered black box re-certifies the run it survived.
//
// -trace assembles the ring's causal spans into per-reconfiguration
// waterfalls: signal detection, the kernel's decision, each transition
// phase and the window's completion, with frames used measured against the
// declared transition bound. -trace -json renders the exact bytes the live
// telemetry plane serves on /traces (or, with -trace-id, /trace/<id>).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/avionics"
	"repro/internal/cli"
	"repro/internal/spec"
	"repro/internal/spectest"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flightrec:", err)
		os.Exit(1)
	}
}

var errViolations = errors.New("property violations found")

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("flightrec", flag.ContinueOnError)
	ringPath := fs.String("ring", "", "path to a flight-recorder journal (JSONL)")
	app := fs.String("app", "", "dump only events for this application")
	phase := fs.String("phase", "", "dump only events with this phase (halt, prepare, initialize, schedule, window, ...)")
	sinceFrame := fs.Int64("since-frame", -1, "dump only events at or after this frame")
	summary := fs.Bool("summary", false, "print the reconfiguration timeline and rerun the SP checkers")
	traceMode := fs.Bool("trace", false, "render the causal reconfiguration traces (waterfalls) assembled from the ring")
	traceID := fs.String("trace-id", "", "with -trace, render only the trace with this id (16 hex digits)")
	specPath := fs.String("spec", "", "path to the reconfiguration specification (JSON), for SP2/SP3")
	canonical := fs.Bool("canonical", false, "check against the built-in three-configuration specification")
	useAvionics := fs.Bool("avionics", false, "check against the built-in avionics specification")
	asJSON := fs.Bool("json", false, "emit the events (or the -summary report) as JSON")
	outPath := fs.String("out", "", "write the output to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ringPath == "" {
		return errors.New("provide -ring <file>")
	}
	out, closeOut, err := cli.Output(*outPath, out)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeOut(); err == nil {
			err = cerr
		}
	}()

	f, err := os.Open(*ringPath)
	if err != nil {
		return err
	}
	events, err := telemetry.ReadJournal(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("reading %s: %w", *ringPath, err)
	}
	if len(events) == 0 {
		return fmt.Errorf("%s: empty journal", *ringPath)
	}

	var rs *spec.ReconfigSpec
	switch {
	case *useAvionics:
		rs = avionics.Spec()
	case *canonical:
		rs = spectest.ThreeConfig()
	case *specPath != "":
		data, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		rs = new(spec.ReconfigSpec)
		if err := json.Unmarshal(data, rs); err != nil {
			return fmt.Errorf("parsing %s: %w", *specPath, err)
		}
	}

	if *traceMode {
		return renderTraces(out, *asJSON, events, *traceID)
	}
	if !*summary {
		filtered := filter(events, *app, *phase, *sinceFrame)
		if *asJSON {
			return cli.WriteJSON(out, filtered)
		}
		for _, e := range filtered {
			fmt.Fprintln(out, e.String())
		}
		return nil
	}
	return summarize(out, *asJSON, events, rs)
}

// filter selects the events the dump flags ask for.
func filter(events []telemetry.Event, app, phase string, sinceFrame int64) []telemetry.Event {
	kept := make([]telemetry.Event, 0, len(events))
	for _, e := range events {
		if app != "" && e.App != app {
			continue
		}
		if phase != "" && e.Phase != phase {
			continue
		}
		if sinceFrame >= 0 && e.Frame < sinceFrame {
			continue
		}
		kept = append(kept, e)
	}
	return kept
}

// renderTraces renders the ring's assembled causal traces. With an id it
// renders exactly one; -json emits the same bytes the live telemetry
// plane's /traces and /trace/<id> endpoints serve (both sides render
// telemetry.BuildTraceReport through cli.WriteJSON), so CI can diff the
// HTTP body against this output.
func renderTraces(out io.Writer, asJSON bool, events []telemetry.Event, id string) error {
	var reports []telemetry.TraceReport
	for _, tv := range telemetry.AssembleTraces(events) {
		if tv.ID != 0 {
			reports = append(reports, telemetry.BuildTraceReport(tv))
		}
	}
	if id != "" {
		want, err := telemetry.ParseTraceID(id)
		if err != nil {
			return err
		}
		for _, r := range reports {
			if r.ID != telemetry.TraceIDString(want) {
				continue
			}
			if asJSON {
				return cli.WriteJSON(out, r)
			}
			waterfall(out, r)
			return nil
		}
		return fmt.Errorf("trace %s not found in ring (%d trace(s) assembled)", id, len(reports))
	}
	if asJSON {
		return cli.WriteJSON(out, reports)
	}
	if len(reports) == 0 {
		fmt.Fprintln(out, "no causal traces in ring (tracing disabled, or no reconfiguration spans recorded)")
		return nil
	}
	for i, r := range reports {
		if i > 0 {
			fmt.Fprintln(out)
		}
		waterfall(out, r)
	}
	return nil
}

// waterfall prints one trace's per-phase breakdown: each span's frame
// window drawn against the whole reconfiguration, with the realized window
// measured against the declared transition bound.
func waterfall(out io.Writer, r telemetry.TraceReport) {
	fmt.Fprintf(out, "trace %s seq %d: %s -> %s\n", r.ID, r.Seq, r.From, r.Config)
	switch {
	case r.Complete && r.Bound > 0:
		fmt.Fprintf(out, "  window f%d-f%d: %d frame(s) used of bound %d (margin %d)\n",
			r.Start, r.End, r.Window, r.Bound, r.Margin)
	case r.Complete:
		fmt.Fprintf(out, "  window f%d-f%d: %d frame(s), no declared bound\n", r.Start, r.End, r.Window)
	case r.Start >= 0:
		fmt.Fprintf(out, "  window open at f%d (cut short by a halt or the end of the ring)\n", r.Start)
	default:
		fmt.Fprintln(out, "  no root span in ring (trace start evicted)")
	}

	base, last := int64(math.MaxInt64), int64(-1)
	for _, s := range r.Spans {
		if s.Start >= 0 && s.Start < base {
			base = s.Start
		}
		if s.End > last {
			last = s.End
		}
		if s.Start > last {
			last = s.Start
		}
	}
	if base == math.MaxInt64 || last < base {
		return
	}
	// One bar character per frame, coarsened when the trace is wide.
	perChar := int64(1)
	if w := last - base + 1; w > 64 {
		perChar = (w + 63) / 64
	}
	width := int((last-base)/perChar) + 1
	for _, s := range r.Spans {
		loc := fmt.Sprintf("f%d-f%d", s.Start, s.End)
		used := fmt.Sprintf("%d frame(s)", s.Frames)
		var bar string
		switch {
		case s.Start < 0:
			loc = fmt.Sprintf("?-f%d", s.End)
			used = "start evicted"
		case s.End < 0:
			loc = fmt.Sprintf("f%d-", s.Start)
			used = "open"
			bar = strings.Repeat(" ", int((s.Start-base)/perChar)) + ">"
		default:
			pad := int((s.Start - base) / perChar)
			bar = strings.Repeat(" ", pad) + strings.Repeat("#", int((s.End-base)/perChar)-pad+1)
		}
		detail := s.Detail
		if detail == "" && s.Config != "" {
			detail = s.Config
			if s.From != "" {
				detail = s.From + " -> " + s.Config
			}
		}
		fmt.Fprintf(out, "  %-10s %-13s %-14s |%-*s| %s\n", s.Name, loc, used, width, bar, detail)
	}
}

// span renders one protocol phase's frame window.
func span(name string, p telemetry.PhaseSpan) string {
	if p.Start < 0 {
		return fmt.Sprintf("      %-10s (not scheduled)", name)
	}
	return fmt.Sprintf("      %-10s f%d-f%d (%d frame(s))", name, p.Start, p.End, p.Frames())
}

// summaryReport is the -summary -json output: the assembled timeline plus
// the rerun SP checks over the reconstructed trace.
type summaryReport struct {
	Summary         telemetry.Summary `json:"summary"`
	WindowQuantiles *quantileRow      `json:"window_quantiles,omitempty"`
	SignalQuantiles *quantileRow      `json:"signal_latency_quantiles,omitempty"`
	Checked         string            `json:"checked"`
	Cycles          int64             `json:"cycles"`
	BaseFrame       int64             `json:"base_frame"`
	Violations      []trace.Violation `json:"violations"`
}

// quantileRow reads a latency histogram at the standard percentiles.
type quantileRow struct {
	P50 int64 `json:"p50"`
	P95 int64 `json:"p95"`
	P99 int64 `json:"p99"`
}

func quantilesOf(h telemetry.HistogramSnapshot) *quantileRow {
	if h.Count == 0 {
		return nil
	}
	return &quantileRow{P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99)}
}

// ringHistograms rebuilds the recovery-latency histograms from the ring's
// assembled reconfiguration windows — the same quantities the live
// registry tracks as scram/window_frames and scram/signal_latency_frames,
// recomputed post mortem from the black box alone.
func ringHistograms(s telemetry.Summary) (window, signal telemetry.HistogramSnapshot) {
	reg := telemetry.NewRegistry()
	wh := reg.Histogram("scram/window_frames")
	sh := reg.Histogram("scram/signal_latency_frames")
	for _, r := range s.Reconfigs {
		if r.Complete() {
			wh.Observe(r.WindowFrames)
		}
		if r.SignalLatency >= 0 {
			sh.Observe(r.SignalLatency)
		}
	}
	return wh.Snapshot(), sh.Snapshot()
}

// summarize prints the flight-recorder report and reruns the SP checkers
// over the trace reconstructed from the ring.
func summarize(out io.Writer, asJSON bool, events []telemetry.Event, rs *spec.ReconfigSpec) error {
	s := telemetry.Summarize(events)
	windowHist, signalHist := ringHistograms(s)

	if asJSON {
		rep := summaryReport{Summary: s, Violations: []trace.Violation{}}
		rep.WindowQuantiles = quantilesOf(windowHist)
		rep.SignalQuantiles = quantilesOf(signalHist)
		frameLen := time.Millisecond
		if rs != nil {
			frameLen = rs.FrameLen
		}
		tr, base, err := telemetry.ReconstructTrace("flightrec", frameLen, events)
		if err != nil {
			return fmt.Errorf("reconstructing trace: %w", err)
		}
		rep.Cycles, rep.BaseFrame = tr.Len(), base
		rep.Checked = "SP1, SP4"
		rep.Violations = append(rep.Violations, trace.CheckSP1(tr)...)
		rep.Violations = append(rep.Violations, trace.CheckSP4(tr)...)
		if rs != nil {
			rep.Checked = "SP1-SP4"
			rep.Violations = append(rep.Violations, trace.CheckSP2(tr, rs)...)
			rep.Violations = append(rep.Violations, trace.CheckSP3(tr, rs)...)
		}
		if err := cli.WriteJSON(out, rep); err != nil {
			return err
		}
		if len(rep.Violations) > 0 {
			return errViolations
		}
		return nil
	}

	fmt.Fprintf(out, "flight recorder: %d events, frames %d-%d", len(events), s.FirstFrame, s.LastFrame)
	if s.DroppedEvents > 0 {
		fmt.Fprintf(out, " (%d evicted before ring start)", s.DroppedEvents)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "signals %d, deferred %d, retargets %d, takeovers %d\n",
		s.Signals, s.Deferred, s.Retargets, s.Takeovers)
	fmt.Fprintf(out, "storage: %d repairs, %d commit rescues, %d unrecoverable; bus faults: %d\n",
		s.StorageRepairs, s.StorageRescues, s.StorageUnrecoverable, s.BusFaults)
	if len(s.ProcHalts) > 0 {
		fmt.Fprintln(out, "processor halts:")
		for _, e := range s.ProcHalts {
			detail := e.Detail
			if detail == "" {
				detail = "fail-stop halt"
			}
			fmt.Fprintf(out, "  f%-4d %-4s %s\n", e.Frame, e.Host, detail)
		}
	}

	fmt.Fprintf(out, "reconfigurations: %d\n", len(s.Reconfigs))
	for i, r := range s.Reconfigs {
		flags := ""
		if r.Retargeted {
			flags += " [retargeted]"
		}
		if r.Chained {
			flags += " [chained]"
		}
		lat := ""
		if r.SignalLatency >= 0 {
			lat = fmt.Sprintf(", signal latency %d frame(s)", r.SignalLatency)
		}
		fmt.Fprintf(out, "  #%d seq %d %s -> %s: trigger f%d%s%s\n",
			i+1, r.Seq, r.Source, r.Target, r.TriggerFrame, lat, flags)
		fmt.Fprintln(out, span("halt", r.Halt))
		fmt.Fprintln(out, span("prepare", r.Prepare))
		fmt.Fprintln(out, span("initialize", r.Init))
		if !r.Complete() {
			fmt.Fprintln(out, "      open at end of ring (incomplete window)")
			continue
		}
		bound := "no declared bound"
		if r.BoundFrames > 0 {
			bound = fmt.Sprintf("bound %d, margin %d", r.BoundFrames, r.MarginFrames)
		}
		fmt.Fprintf(out, "      complete   f%d, window %d frame(s), %s\n", r.CompleteFrame, r.WindowFrames, bound)
	}
	if q := quantilesOf(windowHist); q != nil {
		fmt.Fprintf(out, "window frames: p50 %d, p95 %d, p99 %d (%d window(s))\n", q.P50, q.P95, q.P99, windowHist.Count)
	}
	if q := quantilesOf(signalHist); q != nil {
		fmt.Fprintf(out, "signal latency frames: p50 %d, p95 %d, p99 %d (%d signal(s))\n", q.P50, q.P95, q.P99, signalHist.Count)
	}

	frameLen := time.Millisecond
	if rs != nil {
		frameLen = rs.FrameLen
	}
	tr, base, err := telemetry.ReconstructTrace("flightrec", frameLen, events)
	if err != nil {
		return fmt.Errorf("reconstructing trace: %w", err)
	}

	var violations []trace.Violation
	checked := "SP1, SP4"
	violations = append(violations, trace.CheckSP1(tr)...)
	violations = append(violations, trace.CheckSP4(tr)...)
	if rs != nil {
		checked = "SP1-SP4"
		violations = append(violations, trace.CheckSP2(tr, rs)...)
		violations = append(violations, trace.CheckSP3(tr, rs)...)
	}
	if len(violations) == 0 {
		fmt.Fprintf(out, "%s: all properties hold over the reconstructed trace (%d cycles, base frame %d)\n",
			checked, tr.Len(), base)
		if rs == nil {
			fmt.Fprintln(out, "(no specification given: pass -spec, -canonical or -avionics to also check SP2/SP3)")
		}
		return nil
	}
	fmt.Fprintf(out, "%s: %d violation(s) over the reconstructed trace\n", checked, len(violations))
	for _, v := range violations {
		fmt.Fprintf(out, "  %s\n", v)
	}
	return errViolations
}
