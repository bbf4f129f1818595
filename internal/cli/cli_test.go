package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestOutputFallback(t *testing.T) {
	var buf bytes.Buffer
	for _, path := range []string{"", "-"} {
		w, close, err := Output(path, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if w != &buf {
			t.Fatalf("Output(%q) did not return fallback", path)
		}
		if err := close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	w, close, err := Output(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(w, map[string]int{"runs": 4}); err != nil {
		t.Fatal(err)
	}
	if err := close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"schema_version\": 1,\n  \"runs\": 4\n}\n"; string(data) != want {
		t.Errorf("file = %q, want %q", data, want)
	}
}

func TestWriteJSONSchemaVersion(t *testing.T) {
	cases := []struct {
		name string
		v    any
		want string
	}{
		{"object gains the stamp as first key",
			map[string]int{"runs": 4},
			"{\n  \"schema_version\": 1,\n  \"runs\": 4\n}\n"},
		{"empty object is stamped",
			map[string]int{},
			"{\n  \"schema_version\": 1\n}\n"},
		{"array passes through unversioned",
			[]int{1, 2},
			"[\n  1,\n  2\n]\n"},
		{"scalar passes through unversioned",
			7,
			"7\n"},
		{"existing top-level stamp is not duplicated",
			map[string]int{"schema_version": 3},
			"{\n  \"schema_version\": 3\n}\n"},
		{"nested schema_version keys do not suppress the stamp",
			map[string]any{"inner": map[string]int{"schema_version": 2}},
			"{\n  \"schema_version\": 1,\n  \"inner\": {\n    \"schema_version\": 2\n  }\n}\n"},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, tc.v); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if buf.String() != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, buf.String(), tc.want)
		}
	}
}
