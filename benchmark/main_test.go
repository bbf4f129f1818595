package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// toyParams shrinks a workload so that both passes of a traced run finish
// in seconds while every probe still sees samples.
func toyParams(t *testing.T, workload string) params {
	t.Helper()
	p, err := newParams(workload, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.shape.tenants = 6
	p.shape.injectRate = 100
	p.frames = 12000
	p.setupTrials = 2
	p.sample = 1
	p.probeReps = 2
	p.probeSystems = 1
	p.campaignSeeds = 2
	p.campaignFrames = 150
	p.campaignReps = 1
	p.timeout = time.Minute
	return p
}

// TestWorkloadsAtToySize runs each workload traced at toy size: the gates
// must pass, every end-to-end metric must be printed with its unit by both
// passes, and the result must hold every per-layer metric with its unit.
func TestWorkloadsAtToySize(t *testing.T) {
	for _, workload := range []string{"fleet-steady", "fleet-churn"} {
		t.Run(workload, func(t *testing.T) {
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			var out bytes.Buffer
			res, err := execute(toyParams(t, workload), true, spans, &out)
			if err != nil {
				t.Fatalf("run failed: %v\n%s", err, out.String())
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("correct %v, %d attempted, %d failed", res.Correct, res.Attempted, res.Failed)
			}
			for _, label := range []string{"untraced", "traced"} {
				for _, d := range endToEnd {
					if !hasLine(out.String(), label+" "+d.name+" ", " "+d.unit) {
						t.Errorf("%s pass does not print %s in %s", label, d.name, d.unit)
					}
				}
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("result holds %d metrics, want the %d per-layer metrics", len(res.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
					t.Errorf("per-layer metric %s: got %+v, want unit %s", d.name, v, d.unit)
				}
			}
			data, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			first, _, _ := strings.Cut(string(data), "\n")
			var s span
			if err := json.Unmarshal([]byte(first), &s); err != nil || s.Name == "" || s.End < s.Start {
				t.Errorf("first span %q does not decode to a named interval: %v", first, err)
			}
		})
	}
}

// TestUntracedResultLine checks the result line of an untraced run: every
// end-to-end metric with its unit, and nothing else.
func TestUntracedResultLine(t *testing.T) {
	var out bytes.Buffer
	res, err := execute(toyParams(t, "fleet-churn"), false, "", &out)
	if err != nil {
		t.Fatalf("run failed: %v\n%s", err, out.String())
	}
	if !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("correct %v with %d metrics, want %d", res.Correct, len(res.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if v := res.Metrics[d.name]; v.Unit != d.unit || v.Value <= 0 {
			t.Errorf("%s: got %+v, want a positive value in %s", d.name, v, d.unit)
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "campaign-s9"},
		{"--workload", "fleet-steady", "--seconds", "0"},
		{"--workload", "fleet-steady", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d with stdout %q, want 2 and no result", args, code, stdout.String())
		}
	}
}

func hasLine(text, prefix, suffix string) bool {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) && strings.HasSuffix(line, suffix) {
			return true
		}
	}
	return false
}
