// Package serve is the live telemetry plane: it exposes the flight
// recorder's journal, the metrics registry, and the assembled causal traces
// over HTTP — the seam a fleet host queries (ROADMAP item 1) without ever
// touching the frame path.
//
// The design keeps the frame loop and the HTTP surface strictly decoupled:
// the system publishes an immutable frame-boundary Snapshot (copied
// synchronously in a frame-commit hook, where the events and metrics are
// quiescent), and request handlers only ever read the latest published
// snapshot. A slow or hostile client therefore cannot stall a frame, and
// every response is internally consistent — it describes exactly one frame
// boundary, never a torn mixture of two.
//
// The package splits into two layers. Source + NewMux are the handler
// surface: anything that can produce a Snapshot on demand (a Server holding
// a published copy, a fleet tenant snapshotting under its own lock) gets the
// four routes. Server is the standalone composition — a published-snapshot
// holder plus a listener — and AttachSystem wires a live system into one,
// republishing at every frame boundary.
//
// serve is deliberately NOT a frame-deterministic package: it spawns the
// listener goroutine (audited below) and serves wall-clock HTTP traffic.
// What it serves, however, is deterministic — byte-identical rings produce
// byte-identical bodies, which CI exploits by diffing /trace/<id> against
// flightrec -trace on the same ring.
package serve

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/frame"
	"repro/internal/telemetry"
)

// Snapshot is one frame boundary's observable state: the frame number, the
// frame length (for virtual-time Prom timestamps), the frozen metrics, and
// the event journal. The publisher copies; the server only reads.
type Snapshot struct {
	// Frame is the frame number the snapshot was taken at.
	Frame int64
	// FrameLen converts frame numbers to virtual time in /metrics output;
	// zero is legal and yields virtual-time 0 timestamps.
	FrameLen time.Duration
	// Metrics is the registry snapshot (telemetry.Registry.Snapshot).
	Metrics telemetry.Snapshot
	// Events is the flight-recorder journal in ring order
	// (telemetry.Recorder.Events, or a recovered ring).
	Events []telemetry.Event
}

// Source produces the snapshot a mux serves. Implementations return the
// latest consistent frame-boundary state and true, or false when nothing is
// available yet (handlers answer 503). The returned snapshot must be
// immutable: handlers read it outside any lock.
type Source interface {
	TelemetrySnapshot() (Snapshot, bool)
}

// NewMux builds the serve-plane routes — /metrics, /journal, /traces,
// /trace/<id> — over a snapshot source. The fleet host mounts one per
// tenant; Server wraps one around its published snapshot.
func NewMux(src Source) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) { handleMetrics(src, w, r) })
	mux.HandleFunc("/journal", func(w http.ResponseWriter, r *http.Request) { handleJournal(src, w, r) })
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) { handleTraces(src, w, r) })
	mux.HandleFunc("/trace/", func(w http.ResponseWriter, r *http.Request) { handleTrace(src, w, r) })
	return mux
}

// Server serves published snapshots. The zero value is not usable; call
// New.
type Server struct {
	mu   sync.Mutex
	snap *Snapshot

	ln   net.Listener
	http *http.Server
}

// New returns an unstarted server with no snapshot published (requests
// answer 503 until the first Publish).
func New() *Server {
	s := &Server{}
	s.http = &http.Server{Handler: NewMux(s)}
	return s
}

// AttachSystem wires a live system into a new (unstarted) server: a
// frame-commit hook republishes a fresh snapshot — frame number, metrics,
// the full event ring — at every frame boundary. sys is the slice of
// core.System the plane needs; it errors when telemetry is disabled.
func AttachSystem(sys FrameSystem, frameLen time.Duration) (*Server, error) {
	reg, rec := sys.Telemetry()
	if reg == nil {
		return nil, errors.New("serve: the system's telemetry layer is disabled")
	}
	s := New()
	sys.AddCommitHook(func(ctx frame.Context) error {
		s.Publish(Snapshot{
			Frame:    ctx.Frame,
			FrameLen: frameLen,
			Metrics:  reg.Snapshot(),
			Events:   rec.Events(),
		})
		return nil
	})
	return s, nil
}

// FrameSystem is the part of core.System AttachSystem needs (declared here
// so serve does not import the runtime).
type FrameSystem interface {
	Telemetry() (*telemetry.Registry, *telemetry.Recorder)
	AddCommitHook(frame.CommitHook)
}

// Publish installs a frame-boundary snapshot as the served state. The
// caller owns the copy discipline: Events and Metrics must not be mutated
// after publishing (telemetry.Recorder.Events and Registry.Snapshot both
// return fresh copies, so passing those straight through is safe).
func (s *Server) Publish(snap Snapshot) {
	s.mu.Lock()
	s.snap = &snap
	s.mu.Unlock()
}

// TelemetrySnapshot implements Source with the latest published snapshot.
func (s *Server) TelemetrySnapshot() (Snapshot, bool) {
	s.mu.Lock()
	snap := s.snap
	s.mu.Unlock()
	if snap == nil {
		return Snapshot{}, false
	}
	return *snap, true
}

// Start listens on addr and serves in the background, returning the bound
// address (useful with a ":0" port). Serving continues until Close.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listening on %s: %w", addr, err)
	}
	s.ln = ln
	// The HTTP listener lives outside every frame boundary: it serves
	// published copies only, is joined by Close, and never touches frame
	// state.
	//lint:allow nofreegoroutine audited listener: serves immutable frame-boundary snapshot copies off the frame path and is shut down via Close
	go s.http.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error {
	if s.ln == nil {
		return nil
	}
	return s.http.Close()
}

// latest reads the source's snapshot, or answers 503 and false when nothing
// is available yet.
func latest(src Source, w http.ResponseWriter) (Snapshot, bool) {
	snap, ok := src.TelemetrySnapshot()
	if !ok {
		http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
		return Snapshot{}, false
	}
	return snap, true
}

// handleMetrics serves the registry in Prometheus text exposition format,
// timestamped with virtual (frame-derived) time.
func handleMetrics(src Source, w http.ResponseWriter, r *http.Request) {
	snap, ok := latest(src, w)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = snap.Metrics.WriteProm(w, snap.Frame, snap.FrameLen)
}

// handleJournal serves the event journal as JSONL, optionally filtered with
// ?since_frame=N (events of frame N and later).
func handleJournal(src Source, w http.ResponseWriter, r *http.Request) {
	snap, ok := latest(src, w)
	if !ok {
		return
	}
	events := snap.Events
	if raw := r.URL.Query().Get("since_frame"); raw != "" {
		since, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			http.Error(w, "malformed since_frame: "+err.Error(), http.StatusBadRequest)
			return
		}
		filtered := make([]telemetry.Event, 0, len(events))
		for _, e := range events {
			if e.Frame >= since {
				filtered = append(filtered, e)
			}
		}
		events = filtered
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = telemetry.WriteJournal(w, events)
}

// handleTraces serves the assembled trace index: every causal trace in the
// ring as a full waterfall report, in assembly order. Clients pick an ID
// here and fetch /trace/<id> for the single-trace body flightrec renders.
func handleTraces(src Source, w http.ResponseWriter, r *http.Request) {
	snap, ok := latest(src, w)
	if !ok {
		return
	}
	views := telemetry.AssembleTraces(snap.Events)
	reports := make([]telemetry.TraceReport, 0, len(views))
	for _, tv := range views {
		if tv.ID == 0 {
			continue // the untraced bucket is not a reconfiguration
		}
		reports = append(reports, telemetry.BuildTraceReport(tv))
	}
	w.Header().Set("Content-Type", "application/json")
	_ = cli.WriteJSON(w, reports)
}

// handleTrace serves one trace's waterfall report. The body is produced by
// the same BuildTraceReport + cli.WriteJSON pair flightrec -trace -json
// uses, so the two renderings of the same ring are byte-identical — CI
// diffs them.
func handleTrace(src Source, w http.ResponseWriter, r *http.Request) {
	snap, ok := latest(src, w)
	if !ok {
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/trace/")
	id, err := telemetry.ParseTraceID(raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tv, found := telemetry.FindTrace(snap.Events, id)
	if !found {
		http.Error(w, "no trace "+raw+" in the published ring", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = cli.WriteJSON(w, telemetry.BuildTraceReport(tv))
}
