package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSingleExperiments(t *testing.T) {
	tests := []struct {
		id   string
		want []string
	}{
		{"t1", []string{"SFTA phases", "trigger", "complete"}},
		{"f2", []string{"static proof obligations", "covering_txns"}},
		{"e1", []string{"equipment requirement", "Masking total"}},
		{"e2", []string{"worst-case service restriction", "Interposed"}},
	}
	for _, tt := range tests {
		t.Run(tt.id, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-experiment", tt.id}, &out); err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, want := range tt.want {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output missing %q:\n%s", want, out.String())
				}
			}
		})
	}
}

func TestT2SmallRun(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "t2", "-runs", "3", "-frames", "120"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 violations") {
		t.Errorf("t2 output:\n%s", out.String())
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "zz"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestJSONOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "e1", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Rows []struct {
			MaskingTotal  int
			ReconfigTotal int
		}
	}
	if err := json.Unmarshal(out.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON output does not parse: %v\n%s", err, out.String())
	}
	if len(decoded.Rows) == 0 || decoded.Rows[0].MaskingTotal != 2 {
		t.Errorf("decoded = %+v", decoded)
	}
}
