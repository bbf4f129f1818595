package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPresetText runs the s1 preset small and checks the table and the
// clean exit.
func TestPresetText(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-preset", "s1", "-runs", "1", "-frames", "120", "-workers", "2"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errOut.String())
	}
	for _, want := range []string{"campaign s1-storage-faults", "shielded", "defeat", "totals:", "recovery latency"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(errOut.String(), "2/2") {
		t.Errorf("progress lines missing final tick:\n%s", errOut.String())
	}
}

// TestJSONDeterministicAcrossWorkers is the tool-level determinism gate:
// the same matrix at different worker counts writes byte-identical report
// files.
func TestJSONDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	var reports [][]byte
	for _, workers := range []string{"1", "4"} {
		path := filepath.Join(dir, "report."+workers+".json")
		var out, errOut bytes.Buffer
		err := run([]string{"-preset", "s1", "-runs", "2", "-frames", "120",
			"-workers", workers, "-json", "-quiet", "-out", path}, &out, &errOut)
		if err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, data)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatal("reports differ between -workers 1 and -workers 4")
	}
	var decoded struct {
		Totals struct {
			Runs         int   `json:"runs"`
			Violations   int   `json:"sp_violations"`
			SilentWrong  int64 `json:"silent_wrong_data"`
			WindowFrames struct {
				Count int64 `json:"count"`
			} `json:"window_frames"`
		} `json:"totals"`
	}
	if err := json.Unmarshal(reports[0], &decoded); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if decoded.Totals.Runs != 4 || decoded.Totals.Violations != 0 || decoded.Totals.SilentWrong != 0 {
		t.Errorf("totals = %+v", decoded.Totals)
	}
	if decoded.Totals.WindowFrames.Count == 0 {
		t.Error("no recovery-latency observations in aggregate")
	}
}

// TestMatrixFile runs a matrix from a JSON config, with a flag override.
func TestMatrixFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "matrix.json")
	matrix := `{
		"name": "custom",
		"seeds": 3,
		"frames": 100,
		"arms": [
			{"name": "light", "kind": "storage", "replicas": 3,
			 "faults": {"TornWriteRate": 0.01, "BitRotRate": 0.02, "StuckReadRate": 0.01}}
		]
	}`
	if err := os.WriteFile(path, []byte(matrix), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	// -runs 1 overrides the file's three seeds.
	err := run([]string{"-matrix", path, "-runs", "1", "-quiet"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "campaign custom: 1 runs") {
		t.Errorf("override not applied:\n%s", out.String())
	}
}

// TestBadMatrixRejectedUpFront pins the up-front validation path: a
// defective arm fails before any frames are spent.
func TestBadMatrixRejectedUpFront(t *testing.T) {
	path := filepath.Join(t.TempDir(), "matrix.json")
	matrix := `{"seeds": 1, "frames": 50, "arms": [{"name": "bad", "kind": "quantum"}]}`
	if err := os.WriteFile(path, []byte(matrix), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	err := run([]string{"-matrix", path, "-quiet"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("err = %v, want unknown kind", err)
	}
}

// TestS2BusFaults runs the s2 preset small at a raised bus-fault rate
// and checks the clean exit.
func TestS2BusFaults(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-preset", "s2", "-runs", "2", "-frames", "100", "-bus-faults", "0.1", "-quiet"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errOut.String())
	}
	for _, want := range []string{"campaign s2-bus-faults", "totals:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
