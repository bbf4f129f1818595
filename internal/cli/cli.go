// Package cli carries the shared command-line conventions of the cmd
// tools. Every tool exposes the same canonical flag names where the
// concept applies — -json for structured output, -out for the report
// destination, -seed for the base seed, -runs for seeds per arm, -frames
// for run length — so scripts written against one tool transfer to the
// others.
package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// SchemaVersion stamps every top-level JSON object WriteJSON emits — campaign
// reports, flightrec output, the fleet control plane's bodies. The
// compatibility rule (documented in cmd/README.md): adding fields keeps the
// version; renaming, removing or re-typing an existing field bumps it, and
// consumers reject versions newer than they know.
const SchemaVersion = 1

// nopClose is the close function for the fallback writer.
func nopClose() error { return nil }

// Output resolves the canonical -out flag. An empty path (or "-") keeps
// the fallback writer — the command's stdout; anything else creates the
// file. The returned close function must be called when the report is
// written; it closes the file (and is a no-op for the fallback).
func Output(path string, fallback io.Writer) (io.Writer, func() error, error) {
	if path == "" || path == "-" {
		return fallback, nopClose, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("creating -out %s: %w", path, err)
	}
	return f, f.Close, nil
}

// WriteJSON writes v as indented JSON with a trailing newline — the byte
// layout every tool's -json mode shares. Top-level objects are stamped with
// schema_version as their first key; arrays and scalars pass through
// unversioned (report-shaped bodies are objects by convention — the fleet
// API wraps its lists for exactly this reason).
func WriteJSON(w io.Writer, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = spliceSchemaVersion(data)
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// spliceSchemaVersion inserts the schema_version stamp as the first key of a
// top-level JSON object, preserving MarshalIndent's byte layout. A value
// that already carries a top-level schema_version key passes through
// untouched (the match is anchored to the two-space top-level indent, and a
// raw newline cannot occur inside a JSON string, so nested keys never
// collide).
func spliceSchemaVersion(data []byte) []byte {
	if len(data) == 0 || data[0] != '{' {
		return data
	}
	if bytes.Contains(data, []byte("\n  \"schema_version\":")) {
		return data
	}
	stamp := fmt.Sprintf("  \"schema_version\": %d", SchemaVersion)
	if bytes.Equal(data, []byte("{}")) {
		return []byte("{\n" + stamp + "\n}")
	}
	out := make([]byte, 0, len(data)+len(stamp)+3)
	out = append(out, "{\n"...)
	out = append(out, stamp...)
	out = append(out, ',')
	out = append(out, data[1:]...) // starts with "\n  \"first-key\"..."
	return out
}
