package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/envmon"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestHostLifecycle(t *testing.T) {
	h := NewHost(Config{Shards: 2, Batch: 4})
	defer h.Close()

	ta, err := h.Spawn(SpawnSpec{Preset: "threeconfig", Seed: 1, Frames: 40})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := h.Spawn(SpawnSpec{ID: "custom", Preset: "threeconfig-spares", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tb.ID() != "custom" {
		t.Errorf("explicit id ignored: %q", tb.ID())
	}
	if _, err := h.Spawn(SpawnSpec{ID: "custom", Preset: "threeconfig", Seed: 3}); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, err := h.Spawn(SpawnSpec{Preset: "no-such"}); err == nil {
		t.Error("unknown preset accepted")
	}

	// The frame budget completes tenant a; tenant b keeps running.
	waitFor(t, "tenant a completion", func() bool { return ta.Status().State == StateCompleted })
	if got := ta.Status().Frame; got != 40 {
		t.Errorf("completed at frame %d, want exactly 40", got)
	}
	waitFor(t, "tenant b progress", func() bool { return tb.Status().Frame > 40 })

	if err := h.Kill("custom"); err != nil {
		t.Fatal(err)
	}
	if err := h.Kill("custom"); err == nil {
		t.Error("double kill succeeded")
	}
	if got := len(h.List()); got != 1 {
		t.Errorf("%d tenants after kill, want 1", got)
	}
	if st := h.Stats(); st.FramesStepped < 40 {
		t.Errorf("FramesStepped = %d, want >= 40", st.FramesStepped)
	}
}

// TestStorageFaultIsolation is the smoke scenario: a storage fault halts one
// tenant's application processor while every other tenant keeps ticking,
// and the victim itself reconfigures around the loss rather than stalling.
func TestStorageFaultIsolation(t *testing.T) {
	h := NewHost(Config{Shards: 4, Batch: 4})
	defer h.Close()

	const n = 8
	tenants := make([]*Tenant, n)
	for i := range tenants {
		tn, err := h.Spawn(SpawnSpec{Preset: "threeconfig", Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = tn
	}
	waitFor(t, "fleet progress", func() bool { return tenants[0].Status().Frame > 10 })

	victim := tenants[3]
	if _, err := victim.Inject(Injection{Kind: "storage", Proc: "p2"}); err != nil {
		t.Fatal(err)
	}
	mark := make([]int64, n)
	for i, tn := range tenants {
		mark[i] = tn.Status().Frame
	}
	waitFor(t, "post-fault progress", func() bool {
		for i, tn := range tenants {
			if tn.Status().Frame <= mark[i]+20 {
				return false
			}
		}
		return true
	})
	// Everyone is still running — a fail-stopped processor inside one
	// tenant is that tenant's problem, handled by its own reconfiguration
	// protocol, not a scheduler event.
	for i, tn := range tenants {
		if st := tn.Status(); st.State != StateRunning {
			t.Errorf("tenant %d is %s after the fault", i, st.State)
		}
	}
}

// faultyApp delegates to a real app until a step threshold, then panics —
// or, with err set, returns err — the misbehaving-tenant stand-in.
type faultyApp struct {
	core.App
	steps  int
	failAt int
	err    error
}

func (p *faultyApp) Step(env *core.FrameEnv) error {
	p.steps++
	if p.steps >= p.failAt {
		if p.err != nil {
			return p.err
		}
		panic("tenant application bug")
	}
	return p.App.Step(env)
}

// spawnFaulty registers a hand-built tenant whose autopilot panics (or, with
// fail set, returns fail) after k steps, with an alternator failure
// scripted at frame 5 so the black box has a committed reconfiguration to
// recover. Same-package surgery: the control plane offers no way to spawn a
// broken app, which is the point — this simulates one slipping through.
func spawnFaulty(t *testing.T, h *Host, id string, k int, fail error) *Tenant {
	t.Helper()
	opts, err := SpawnOptions(SpawnSpec{Preset: "threeconfig", Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	opts.Script = []envmon.Event{{Frame: 5, Factor: "alt1", Value: "failed"}}
	for appID, app := range opts.Apps {
		if appID == "autopilot" {
			opts.Apps[appID] = &faultyApp{App: app, failAt: k, err: fail}
		}
	}
	sys, err := core.NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	tn := newTenant(SpawnSpec{ID: id, Preset: "threeconfig", Seed: 99}, sys, opts.Spec.FrameLen)
	h.mu.Lock()
	h.tenants[id] = tn
	h.order = append(h.order, id)
	h.mu.Unlock()
	select {
	case h.wake <- struct{}{}:
	default:
	}
	return tn
}

// TestPanicQuarantine is the isolation boundary: a panicking tenant is
// quarantined with a reason, its black box (committed ring) stays
// queryable, and the other tenants never notice.
func TestPanicQuarantine(t *testing.T) {
	h := NewHost(Config{Shards: 2, Batch: 4})
	defer h.Close()

	good, err := h.Spawn(SpawnSpec{Preset: "threeconfig", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	bad := spawnFaulty(t, h, "bad", 40, nil)

	waitFor(t, "quarantine", func() bool { return bad.Status().State == StateQuarantined })
	st := bad.Status()
	if !strings.Contains(st.Reason, "panic") {
		t.Errorf("quarantine reason = %q, want a panic", st.Reason)
	}

	// The healthy tenant keeps ticking well past the panic.
	mark := good.Status().Frame
	waitFor(t, "healthy progress", func() bool { return good.Status().Frame > mark+40 })
	if got := good.Status().State; got != StateRunning {
		t.Fatalf("healthy tenant is %s", got)
	}

	// The quarantined tenant's black box is recoverable: the post-mortem
	// snapshot serves the ring recovered from committed stable storage,
	// trailing the halt by at most one frame.
	snap, ok := bad.TelemetrySnapshot()
	if !ok {
		t.Fatal("no post-mortem snapshot")
	}
	if len(snap.Events) == 0 {
		t.Fatal("post-mortem snapshot has no recovered events")
	}
	// The injected alternator failure's reconfiguration must be in the
	// committed ring — the black box witnessed life after frame 0.
	var last int64
	for _, e := range snap.Events {
		if e.Frame > last {
			last = e.Frame
		}
	}
	if last == 0 {
		t.Error("recovered ring holds only boot events; the reconfiguration never committed")
	}

	// Injections against a quarantined tenant are rejected.
	if _, err := bad.Inject(Injection{Kind: "env", Factor: "alt1", Value: "failed"}); err == nil {
		t.Error("injection into a quarantined tenant accepted")
	}
}

// apiClient wraps the httptest server for terse test calls.
type apiClient struct {
	t    *testing.T
	base string
}

func (c *apiClient) do(method, path string, body any) (int, []byte) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func TestAPISurface(t *testing.T) {
	h := NewHost(Config{Shards: 2, Batch: 4})
	defer h.Close()
	srv := httptest.NewServer(NewAPI(h).Handler())
	defer srv.Close()
	c := &apiClient{t: t, base: srv.URL}

	// Spawn (unbounded: the test injects while the tenant runs).
	code, body := c.do("POST", "/systems", SpawnSpec{ID: "a", Preset: "threeconfig", Seed: 4})
	if code != http.StatusCreated {
		t.Fatalf("spawn: %d %s", code, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != "a" || st.State != StateRunning {
		t.Fatalf("spawn status = %+v", st)
	}
	if code, _ := c.do("POST", "/systems", SpawnSpec{ID: "a", Preset: "threeconfig"}); code != http.StatusConflict {
		t.Errorf("duplicate spawn = %d, want 409", code)
	}
	if code, body := c.do("POST", "/systems", SpawnSpec{Preset: "nope"}); code != http.StatusBadRequest {
		t.Errorf("bad preset spawn = %d %s", code, body)
	}

	// List + status + stats + presets.
	if code, body := c.do("GET", "/systems", nil); code != http.StatusOK || !bytes.Contains(body, []byte(`"systems"`)) {
		t.Errorf("list = %d %s", code, body)
	}
	if code, _ := c.do("GET", "/systems/a", nil); code != http.StatusOK {
		t.Errorf("status = %d", code)
	}
	if code, _ := c.do("GET", "/systems/zz", nil); code != http.StatusNotFound {
		t.Errorf("missing tenant status = %d, want 404", code)
	}
	if code, body := c.do("GET", "/presets", nil); code != http.StatusOK || !bytes.Contains(body, []byte("threeconfig")) {
		t.Errorf("presets = %d %s", code, body)
	}
	if code, body := c.do("GET", "/stats", nil); code != http.StatusOK || !bytes.Contains(body, []byte("frames_stepped")) {
		t.Errorf("stats = %d %s", code, body)
	}

	// Inject an alternator failure; the ack names the applied frame.
	code, body = c.do("POST", "/systems/a/inject", Injection{Kind: "env", Factor: "alt1", Value: "failed"})
	if code != http.StatusOK {
		t.Fatalf("inject: %d %s", code, body)
	}
	var ack struct {
		AppliedFrame int64 `json:"applied_frame"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if code, body := c.do("POST", "/systems/a/inject", Injection{Kind: "bogus"}); code != http.StatusBadRequest {
		t.Errorf("bogus inject = %d %s", code, body)
	}

	// The per-tenant telemetry plane, live while the tenant runs.
	if code, body := c.do("GET", "/systems/a/metrics", nil); code != http.StatusOK || !bytes.Contains(body, []byte("frame")) {
		t.Errorf("metrics = %d %.120s", code, body)
	}
	if code, body := c.do("GET", "/systems/a/journal", nil); code != http.StatusOK || !bytes.Contains(body, []byte(`"seq"`)) {
		t.Errorf("journal = %d %.120s", code, body)
	}
	var reports []struct {
		ID string `json:"id"`
	}
	waitFor(t, "the injected failure's trace to assemble", func() bool {
		code, body = c.do("GET", "/systems/a/traces", nil)
		if code != http.StatusOK {
			t.Fatalf("traces = %d %.120s", code, body)
		}
		reports = reports[:0]
		if err := json.Unmarshal(body, &reports); err != nil {
			t.Fatal(err)
		}
		return len(reports) > 0
	})
	if code, _ := c.do("GET", "/systems/a/trace/"+reports[0].ID, nil); code != http.StatusOK {
		t.Errorf("trace/%s = %d", reports[0].ID, code)
	}

	// Kill.
	if code, _ := c.do("DELETE", "/systems/a", nil); code != http.StatusOK {
		t.Errorf("kill = %d", code)
	}
	if code, _ := c.do("GET", "/systems/a", nil); code != http.StatusNotFound {
		t.Errorf("killed tenant still resolves")
	}
}

// TestConcurrentControlPlane is the -race test: concurrent spawn, kill,
// inject and query traffic against a live fleet registry while the shard
// sweep steps tenants underneath.
func TestConcurrentControlPlane(t *testing.T) {
	h := NewHost(Config{Shards: 4, Batch: 4})
	defer h.Close()
	srv := httptest.NewServer(NewAPI(h).Handler())
	defer srv.Close()

	const (
		workers = 8
		rounds  = 12
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &apiClient{t: t, base: srv.URL}
			for i := 0; i < rounds; i++ {
				id := fmt.Sprintf("w%d-r%d", w, i)
				if code, body := c.do("POST", "/systems", SpawnSpec{ID: id, Preset: "threeconfig", Seed: int64(w*1000 + i)}); code != http.StatusCreated {
					t.Errorf("spawn %s: %d %s", id, code, body)
					return
				}
				c.do("POST", "/systems/"+id+"/inject", Injection{Kind: "env", Factor: "alt1", Value: "failed"})
				c.do("GET", "/systems/"+id, nil)
				c.do("GET", "/systems/"+id+"/metrics", nil)
				c.do("GET", "/systems", nil)
				if i%2 == 0 {
					if code, _ := c.do("DELETE", "/systems/"+id, nil); code != http.StatusOK {
						t.Errorf("kill %s failed", id)
					}
				}
			}
		}()
	}
	wg.Wait()

	// Half of each worker's tenants survive; they are all running (or
	// legitimately still catching up) and the listing is consistent.
	want := workers * rounds / 2
	if got := len(h.List()); got != want {
		t.Errorf("%d tenants after churn, want %d", got, want)
	}
	for _, st := range h.List() {
		if st.State != StateRunning {
			t.Errorf("tenant %s is %s after churn", st.ID, st.State)
		}
	}
}
