// Command campaign fans a fault-injection matrix — arms of fault
// configurations crossed with seeds — over a bounded worker pool and
// merges the results into a deterministic aggregate report: the same
// matrix yields a byte-identical report for any -workers value.
//
// Usage:
//
//	campaign -preset s1 -runs 25 -frames 300 -workers 8
//	campaign -preset s2 -json -out report.json
//	campaign -matrix matrix.json -workers 4
//	campaign -preset s1 -ring-out ring.jsonl   # export the black-box journal
//
// A matrix file is the JSON form of campaign.Matrix: seeds, frames, an
// optional base seed and expansion order, and a list of arms ({"name",
// "kind": "storage"|"bus"|"membership"|"chaos", "replicas", "faults":
// {...}}, {"rates": {...}}, {"churn", "evictions", "corrupt_records"} or
// {"fleet_tenants", "crashes", "tenant_panics", "torn_writes",
// "retain_frames"}). The -preset flag supplies the built-in s1 (hardened
// storage under media faults), s2 (avionics mission over a degraded bus),
// s3 (dynamic membership under join/leave churn, evictions and record
// corruption) and s4 (durable fleet host under seeded chaos storms with
// crash-restart cycles and torn manifest writes) matrices instead; -runs,
// -frames, -seed, -storage-faults, -bus-faults, -churn and -crashes
// parameterize them.
//
// Progress lines go to stderr as runs complete (completion order is
// scheduling-dependent; the report is not). The exit status is nonzero if
// any run fails, violates an SP property or a membership invariant, or lets
// silently corrupted data through its storage oracle.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bus"
	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/det"
	"repro/internal/stable"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

// loadMatrix resolves the campaign configuration from -matrix or -preset.
// Explicitly set flags override the matching matrix-file fields, so a
// stored matrix can be re-run at a different scale without editing it.
func loadMatrix(fs *flag.FlagSet, matrixPath, preset string, runs, frames int, seed int64, storageFaults, busFaults float64, churn, crashes int) (campaign.Matrix, error) {
	var m campaign.Matrix
	switch {
	case matrixPath != "":
		data, err := os.ReadFile(matrixPath)
		if err != nil {
			return m, err
		}
		if err := json.Unmarshal(data, &m); err != nil {
			return m, fmt.Errorf("parsing %s: %w", matrixPath, err)
		}
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if set["runs"] {
			m.Seeds = runs
		}
		if set["frames"] {
			m.Frames = frames
		}
		if set["seed"] {
			m.BaseSeed = seed
		}
	case preset == "s1":
		m = campaign.S1Matrix(runs, frames, stable.FaultProfile{
			TornWriteRate: storageFaults / 2,
			BitRotRate:    storageFaults,
			StuckReadRate: storageFaults / 2,
		})
		m.BaseSeed = seed
	case preset == "s2":
		m = campaign.S2Matrix(runs, frames, bus.FaultRates{
			Drop:      busFaults,
			Duplicate: busFaults / 2,
			Delay:     busFaults / 2,
		})
		m.BaseSeed = seed
	case preset == "s3":
		m = campaign.S3Matrix(runs, frames, churn)
		m.BaseSeed = seed
	case preset == "s4":
		m = campaign.S4Matrix(runs, frames, crashes)
		m.BaseSeed = seed
	default:
		return m, fmt.Errorf("unknown preset %q (want s1, s2, s3 or s4, or pass -matrix <file>)", preset)
	}
	return m, nil
}

// textReport renders the per-run table and the aggregate tallies.
func textReport(out io.Writer, rep campaign.Report) {
	fmt.Fprintf(out, "campaign %s: %d runs (%d seeds x %d arms, %d frames)\n",
		rep.Matrix.Name, len(rep.Results), rep.Matrix.Seeds, len(rep.Matrix.Arms), rep.Matrix.Frames)
	for _, r := range rep.Results {
		if r.Err != "" {
			fmt.Fprintf(out, "  run %-3d %-10s seed %-3d ERROR %s\n", r.Run.ID, r.Run.Arm, r.Run.Seed, r.Err)
			continue
		}
		if r.Chaos != nil {
			o := r.Chaos
			fmt.Fprintf(out, "  run %-3d %-10s seed %-3d crashes %-2d recovered %-3d injected %-3d dedupe %-3d torn %-2d quarantined %-2d checked %d/%d\n",
				r.Run.ID, r.Run.Arm, r.Run.Seed, o.Crashes, o.Recovered, o.Injected, o.DedupeHits, o.TornWrites, o.Quarantined, o.Checked, o.Tenants)
			continue
		}
		line := fmt.Sprintf("  run %-3d %-10s seed %-3d reconfigs %-3d halts %-2d silent-wrong %-2d SP violations %d",
			r.Run.ID, r.Run.Arm, r.Run.Seed, r.Reconfigs, r.StorageHalts, r.SilentWrongData, r.Violations)
		if r.Membership != nil {
			s := r.Membership.Membership
			line += fmt.Sprintf(" | epoch %-3d joins %d leaves %d rejected %d evictions %d converges %d membership violations %d",
				r.Membership.Epoch, s.Joins, s.Leaves, s.Rejected, s.Evictions, s.Converges, r.MembershipViolations)
		}
		fmt.Fprintln(out, line)
	}
	t := rep.Totals
	fmt.Fprintf(out, "totals: %d reconfigs, %d storage halts, %d silent wrong data, %d SP violations, %d errors\n",
		t.Reconfigs, t.StorageHalts, t.SilentWrongData, t.Violations, t.Errors)
	if t.Membership != nil {
		fmt.Fprintf(out, "membership: %d joins, %d leaves, %d rejected, %d evictions, %d converges, max epoch %d, %d invariant violations\n",
			t.Membership.Joins, t.Membership.Leaves, t.Membership.Rejected, t.Membership.Evictions,
			t.Membership.Converges, t.Membership.MaxEpoch, t.MembershipViolations)
	}
	if t.Chaos != nil {
		fmt.Fprintf(out, "chaos: %d storms, %d crashes, %d tenants recovered, %d torn writes healed, %d injections (%d deduped), %d quarantined, %d/%d checked, %d mismatches\n",
			t.Chaos.Storms, t.Chaos.Crashes, t.Chaos.Recovered, t.Chaos.TornWrites,
			t.Chaos.Injected, t.Chaos.DedupeHits, t.Chaos.Quarantined,
			t.Chaos.Checked, t.Chaos.Tenants, t.Chaos.Mismatches)
	}
	if t.WindowFrames.Count > 0 {
		fmt.Fprintf(out, "recovery latency: %d windows, mean %.1f frames, max %d\n",
			t.WindowFrames.Count, float64(t.WindowFrames.Sum)/float64(t.WindowFrames.Count), t.WindowFrames.Max)
	}
	if q := t.WindowQuantiles; q != nil {
		fmt.Fprintf(out, "window frames: p50 %d, p95 %d, p99 %d\n", q.P50, q.P95, q.P99)
	}
	if q := t.SignalQuantiles; q != nil {
		fmt.Fprintf(out, "signal latency frames: p50 %d, p95 %d, p99 %d\n", q.P50, q.P95, q.P99)
	}
	if len(t.SpanPhases) > 0 {
		fmt.Fprint(out, "trace phases (total frames):")
		for _, name := range det.SortedKeys(t.SpanPhases) {
			fmt.Fprintf(out, " %s=%d", name, t.SpanPhases[name])
		}
		fmt.Fprintln(out)
	}
	for i, s := range rep.SlowestTraces {
		fmt.Fprintf(out, "slowest trace #%d: run %d trace %s seq %d %s -> %s, window %d of bound %d (margin %d)\n",
			i+1, s.Run, s.Trace.ID, s.Trace.Seq, s.Trace.From, s.Trace.Config,
			s.Trace.Window, s.Trace.Bound, s.Trace.Margin)
	}
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	matrixPath := fs.String("matrix", "", "campaign matrix configuration (JSON); overrides -preset")
	preset := fs.String("preset", "s1", "built-in matrix: s1 (storage faults), s2 (bus faults), s3 (membership churn) or s4 (fleet chaos)")
	runs := fs.Int("runs", 5, "seeds per arm")
	seed := fs.Int64("seed", 0, "base seed; run i of an arm uses seed+i")
	frames := fs.Int("frames", 300, "frames per run")
	workers := fs.Int("workers", 4, "worker pool size (the report is identical for any value)")
	asJSON := fs.Bool("json", false, "emit the full aggregate report as JSON instead of the table")
	outPath := fs.String("out", "", "write the report to this file instead of stdout")
	ringOut := fs.String("ring-out", "", "write the most interesting run's flight-recorder journal (JSONL) to this file")
	quiet := fs.Bool("quiet", false, "suppress per-run progress lines on stderr")
	storageFaults := fs.Float64("storage-faults", 0.05, "s1 preset base per-medium fault rate (torn writes and stuck reads at half, bit rot at full)")
	busFaults := fs.Float64("bus-faults", 0.05, "s2 preset base per-message fault rate (drop at full, duplicate and delay at half)")
	churn := fs.Int("churn", 3, "s3 preset spare join/leave cycles per run")
	crashes := fs.Int("crashes", 1, "s4 preset host crash-restart cycles per storm")
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := loadMatrix(fs, *matrixPath, *preset, *runs, *frames, *seed, *storageFaults, *busFaults, *churn, *crashes)
	if err != nil {
		return err
	}
	if err := m.Validate(); err != nil {
		return err
	}

	eng := campaign.Engine{Workers: *workers}
	if !*quiet {
		eng.Progress = func(done, total int, res campaign.Result) {
			status := fmt.Sprintf("%d reconfigs, %d violations", res.Reconfigs, res.Violations)
			if res.Err != "" {
				status = "ERROR " + res.Err
			}
			fmt.Fprintf(errOut, "campaign: %d/%d %s seed %d: %s\n", done, total, res.Run.Arm, res.Run.Seed, status)
		}
	}
	rep := campaign.BuildReport(m, eng.Execute(m.Expand()))

	w, closeOut, err := cli.Output(*outPath, out)
	if err != nil {
		return err
	}
	if *asJSON {
		// cli.WriteJSON rather than rep.JSON: the report body carries the
		// shared schema_version stamp like every other tool's -json output.
		if err := cli.WriteJSON(w, rep); err != nil {
			closeOut()
			return err
		}
	} else {
		textReport(w, rep)
	}
	if err := closeOut(); err != nil {
		return err
	}

	if *ringOut != "" {
		ring := rep.LastRing()
		if ring == nil {
			return errors.New("-ring-out: no flight-recorder ring recovered")
		}
		f, err := os.Create(*ringOut)
		if err != nil {
			return err
		}
		if err := telemetry.WriteJournal(f, ring); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(errOut, "campaign: wrote %d flight-recorder events to %s\n", len(ring), *ringOut)
	}

	if err := rep.FirstError(); err != nil {
		return err
	}
	if rep.Totals.Violations > 0 || rep.Totals.SilentWrongData > 0 || rep.Totals.MembershipViolations > 0 {
		return fmt.Errorf("%d SP violations, %d silent wrong data, %d membership violations",
			rep.Totals.Violations, rep.Totals.SilentWrongData, rep.Totals.MembershipViolations)
	}
	return nil
}
