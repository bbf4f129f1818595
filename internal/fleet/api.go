package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/cli"
	"repro/internal/telemetry/serve"
)

// API is the fleet's HTTP/JSON control plane:
//
//	POST   /systems              spawn a tenant from a SpawnSpec body
//	GET    /systems              list tenant statuses
//	GET    /systems/{id}         one tenant's status
//	DELETE /systems/{id}         kill a tenant
//	POST   /systems/{id}/inject  apply an Injection body
//	GET    /systems/{id}/metrics | /journal | /traces | /trace/{tid}
//	                             the per-tenant telemetry plane (serve.NewMux)
//	GET    /presets              spawnable preset names
//	GET    /stats                host aggregate counters
//
// JSON bodies are rendered through cli.WriteJSON, so every object body
// carries the schema_version field and byte-compatibility follows the cmd
// tools' rule (cmd/README.md).
//
// Mutating routes (spawn, kill, inject) pass through two gates:
//
//   - admission control: a bounded concurrency semaphore; a full host sheds
//     load with 429 and a Retry-After hint instead of queueing unboundedly;
//   - the drain gate: a host on its way down (SIGTERM) answers 503, so
//     clients fail over instead of racing the manifest's final checkpoint.
//
// Injections carry an optional request_id; repeats with the same id replay
// the first outcome (see Host.Inject), making retries across timeouts — and
// across a host crash — safe. Failures answer with the status of their
// cause (statusOf).
type API struct {
	host *Host
	// sem is the admission-control semaphore for mutating requests.
	sem chan struct{}
}

// DefaultAdmissionLimit bounds concurrently-admitted mutating requests.
const DefaultAdmissionLimit = 256

// NewAPI returns the control-plane handler for a host.
func NewAPI(h *Host) *API { return NewAPILimited(h, DefaultAdmissionLimit) }

// NewAPILimited is NewAPI with an explicit admission limit (<=0 uses the
// default).
func NewAPILimited(h *Host, limit int) *API {
	if limit <= 0 {
		limit = DefaultAdmissionLimit
	}
	return &API{host: h, sem: make(chan struct{}, limit)}
}

// Handler builds the route table.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /systems", a.mutating(a.handleSpawn))
	mux.HandleFunc("GET /systems", a.handleList)
	mux.HandleFunc("GET /systems/{id}", a.handleStatus)
	mux.HandleFunc("DELETE /systems/{id}", a.mutating(a.handleKill))
	mux.HandleFunc("POST /systems/{id}/inject", a.mutating(a.handleInject))
	mux.HandleFunc("GET /systems/{id}/metrics", a.handleTelemetry)
	mux.HandleFunc("GET /systems/{id}/journal", a.handleTelemetry)
	mux.HandleFunc("GET /systems/{id}/traces", a.handleTelemetry)
	mux.HandleFunc("GET /systems/{id}/trace/{tid}", a.handleTelemetry)
	mux.HandleFunc("GET /presets", a.handlePresets)
	mux.HandleFunc("GET /stats", a.handleStats)
	return mux
}

// mutating wraps a handler in the drain gate and the admission semaphore.
// The acquire is non-blocking: past the limit the host is overloaded and the
// honest answer is "come back", not an unbounded queue of goroutines each
// waiting on a tenant lock.
func (a *API) mutating(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if a.host.Draining() {
			http.Error(w, "host is draining", http.StatusServiceUnavailable)
			return
		}
		select {
		case a.sem <- struct{}{}:
			defer func() { <-a.sem }()
		default:
			w.Header().Set("Retry-After", "1")
			http.Error(w, "control plane at admission limit", http.StatusTooManyRequests)
			return
		}
		next(w, r)
	}
}

// maxBodyBytes bounds control-plane request bodies.
const maxBodyBytes = 1 << 20

// readBody decodes a JSON request body into v.
func readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		http.Error(w, "malformed body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// writeJSON renders a response body through the versioned JSON writer.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = cli.WriteJSON(w, v)
}

// tenant resolves the {id} path segment, answering 404 on a miss.
func (a *API) tenant(w http.ResponseWriter, r *http.Request) (*Tenant, bool) {
	id := r.PathValue("id")
	t, ok := a.host.Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("no tenant %q", id), http.StatusNotFound)
		return nil, false
	}
	return t, true
}

func (a *API) handleSpawn(w http.ResponseWriter, r *http.Request) {
	var ss SpawnSpec
	if !readBody(w, r, &ss) {
		return
	}
	t, err := a.host.Spawn(ss)
	if err != nil {
		http.Error(w, err.Error(), statusOf(err))
		return
	}
	writeJSON(w, http.StatusCreated, t.Status())
}

// listBody wraps the tenant list so the top-level JSON body is an object
// (and therefore carries schema_version).
type listBody struct {
	Systems []Status `json:"systems"`
}

func (a *API) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, listBody{Systems: a.host.List()})
}

func (a *API) handleStatus(w http.ResponseWriter, r *http.Request) {
	t, ok := a.tenant(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, t.Status())
}

// killBody acknowledges a kill.
type killBody struct {
	ID     string `json:"id"`
	Killed bool   `json:"killed"`
}

func (a *API) handleKill(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := a.host.Kill(id); err != nil {
		http.Error(w, err.Error(), statusOf(err))
		return
	}
	writeJSON(w, http.StatusOK, killBody{ID: id, Killed: true})
}

// injectBody acknowledges an injection with the frame it applies at — the
// frame a scripted standalone replay uses to reproduce the run.
type injectBody struct {
	ID           string `json:"id"`
	Kind         string `json:"kind"`
	AppliedFrame int64  `json:"applied_frame"`
}

func (a *API) handleInject(w http.ResponseWriter, r *http.Request) {
	t, ok := a.tenant(w, r)
	if !ok {
		return
	}
	var inj Injection
	if !readBody(w, r, &inj) {
		return
	}
	// Route through the host: idempotency (request_id), the commit barrier,
	// and durable journaling before the ack.
	frame, err := a.host.Inject(t.ID(), inj)
	if err != nil {
		http.Error(w, err.Error(), statusOf(err))
		return
	}
	writeJSON(w, http.StatusOK, injectBody{ID: t.ID(), Kind: inj.Kind, AppliedFrame: frame})
}

// handleTelemetry re-mounts the shared serve-plane mux (PR 8's routes) under
// the tenant's prefix: /systems/{id}/metrics|journal|traces|trace/{tid}
// serve exactly what a standalone -serve tool would, byte-identically.
func (a *API) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	t, ok := a.tenant(w, r)
	if !ok {
		return
	}
	http.StripPrefix("/systems/"+t.ID(), serve.NewMux(t)).ServeHTTP(w, r)
}

// presetsBody lists the spawnable presets.
type presetsBody struct {
	Presets []string `json:"presets"`
}

func (a *API) handlePresets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, presetsBody{Presets: Presets()})
}

func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.host.Stats())
}

// The control plane's failure causes. Errors wrap one of these so statusOf
// can answer by cause; anything else is a bad request.
var (
	errNoTenant     = errors.New("no such tenant")
	errTenantExists = errors.New("tenant id already exists")
	errNotRunning   = errors.New("not running")
	errHostClosed   = errors.New("host closed")
	errManifest     = errors.New("manifest fault")
)

// statusOf maps a control-plane error to its HTTP status: 404 for an
// unknown tenant; 409 for a duplicate id, or a tenant that is not running or
// was quarantined before its frame committed; 503 when the host cannot
// commit (a latched manifest fault, or a host closed before the frame ran);
// 400 for a request the host rejected as malformed.
func statusOf(err error) int {
	switch {
	case errors.Is(err, errNoTenant):
		return http.StatusNotFound
	case errors.Is(err, errTenantExists), errors.Is(err, errNotRunning):
		return http.StatusConflict
	case errors.Is(err, errManifest), errors.Is(err, errHostClosed):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}
