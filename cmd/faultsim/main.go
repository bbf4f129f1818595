// Command faultsim regenerates the paper's experiment tables (see DESIGN.md
// for the experiment index):
//
//	t1  Table 1  — the SFTA phase protocol from a live reconfiguration
//	t2  Table 2  — SP1-SP4 over randomized fault campaigns
//	t2x bounded-exhaustive verification of every env sequence to depth 4
//	f2  Figure 2 — static proof obligations and failing mutants
//	e1  §5.1     — equipment: masking vs reconfiguration
//	e2  §5.3     — restriction-time bounds vs measurement
//	e3  §5.3     — dwell guard vs environment churn
//	e4  §7       — the avionics mission end to end
//	e5  §7.1     — a second failure in every protocol frame
//
// The beyond-the-paper fault-model campaigns (hardened storage, degraded
// bus, membership churn, fleet chaos) run under cmd/campaign -preset
// s1|s2|s3|s4.
//
// Usage:
//
//	faultsim -experiment all
//	faultsim -experiment t2 -runs 50 -frames 500
//	faultsim -experiment e1 -json -out report.json
//
// -runs sizes the t2 randomized campaigns; -frames sets their length and
// the e3 churn run's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		os.Exit(1)
	}
}

// render returns either the experiment's table text or its JSON form.
func render(asJSON bool, text string, result any) (string, error) {
	if !asJSON {
		return text, nil
	}
	data, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return "", err
	}
	return string(data), nil
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("faultsim", flag.ContinueOnError)
	which := fs.String("experiment", "all", "experiment to run: t1, t2, t2x, f2, e1, e2, e3, e4, e5, or all")
	runs := fs.Int("runs", 20, "randomized campaigns for t2")
	frames := fs.Int("frames", 300, "frames per randomized campaign (t2) / churn run (e3)")
	asJSON := fs.Bool("json", false, "emit structured results as JSON instead of tables")
	outPath := fs.String("out", "", "write the report to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
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

	type experiment struct {
		id  string
		run func() (string, error)
	}
	all := []experiment{
		{"t1", func() (string, error) {
			r, err := experiments.Table1()
			if err != nil {
				return "", err
			}
			return render(*asJSON, r.Text, r)
		}},
		{"t2", func() (string, error) {
			r, err := experiments.Table2(*runs, *frames)
			if err != nil {
				return "", err
			}
			return render(*asJSON, r.Text, r)
		}},
		{"t2x", func() (string, error) {
			r, err := experiments.ExhaustiveVerification(4)
			if err != nil {
				return "", err
			}
			return render(*asJSON, r.Text, r)
		}},
		{"f2", func() (string, error) {
			r, err := experiments.Figure2()
			if err != nil {
				return "", err
			}
			return render(*asJSON, r.Text, r)
		}},
		{"e1", func() (string, error) {
			r, err := experiments.Equipment(4)
			if err != nil {
				return "", err
			}
			return render(*asJSON, r.Text, r)
		}},
		{"e2", func() (string, error) {
			r, err := experiments.Restriction()
			if err != nil {
				return "", err
			}
			return render(*asJSON, r.Text, r)
		}},
		{"e3", func() (string, error) {
			r, err := experiments.CycleGuard(*frames*5, 10)
			if err != nil {
				return "", err
			}
			return render(*asJSON, r.Text, r)
		}},
		{"e4", func() (string, error) {
			r, err := experiments.Scenario()
			if err != nil {
				return "", err
			}
			return render(*asJSON, r.Text, r)
		}},
		{"e5", func() (string, error) {
			r, err := experiments.FailureSweep()
			if err != nil {
				return "", err
			}
			return render(*asJSON, r.Text, r)
		}},
	}

	ran := false
	for _, e := range all {
		if *which != "all" && *which != e.id {
			continue
		}
		ran = true
		text, err := e.run()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.id, err)
		}
		fmt.Fprintln(out, text)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *which)
	}
	return nil
}
