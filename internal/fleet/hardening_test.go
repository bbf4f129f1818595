package fleet

// Control-plane hardening tests: the applied_frame ack barrier (the ack-race
// regression), bounded tenant state under retention, and the HTTP plane's
// admission/drain gates and status codes.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/envmon"
	"repro/internal/stable"
)

// manualHost builds a host with no scheduler loop: frames advance only when
// the test calls stepBatch, which makes barrier timing deterministic. The
// cleanup releases the systems tenants still hold (Close would block with
// no loop).
func manualHost(t *testing.T, cfg Config) *Host {
	t.Helper()
	h := newHostNoLoop(cfg)
	t.Cleanup(h.closeTenants)
	return h
}

// TestInjectAcksOnlyCommittedFrames is the ack-race regression test: the
// applied_frame ack must not be issued until the injected frame's commit
// barrier. Before the fix, Inject returned as soon as the injection was
// staged — a crash between the ack and the frame's execution produced an
// acked injection the recovered fleet had never run, breaking replay.
func TestInjectAcksOnlyCommittedFrames(t *testing.T) {
	h := manualHost(t, Config{})
	ten, err := h.Spawn(SpawnSpec{ID: "b", Preset: "threeconfig", Seed: 17})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}

	type ack struct {
		applied int64
		err     error
	}
	acked := make(chan ack, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		applied, err := h.Inject("b", Injection{Kind: "env", Factor: "alt1", Value: "failed"})
		acked <- ack{applied, err}
	}()

	// No frames are advancing, so the ack must not arrive.
	select {
	case a := <-acked:
		t.Fatalf("ack (%d, %v) issued before the injected frame committed", a.applied, a.err)
	case <-time.After(50 * time.Millisecond):
	}

	// Advance past the injected frame: the barrier releases the ack, and
	// the acked frame is now strictly behind the committed frontier.
	ten.stepBatch(4)
	wg.Wait()
	a := <-acked
	if a.err != nil {
		t.Fatalf("inject: %v", a.err)
	}
	if frame := ten.Status().Frame; frame <= a.applied {
		t.Fatalf("acked frame %d but tenant is only at %d: ack outran the commit barrier", a.applied, frame)
	}
}

// TestInjectBarrierFailsOnQuarantine: an injection whose frame dies with a
// quarantine must error, never ack — an acked-but-unexecuted frame is a
// corrupt replay recipe.
func TestInjectBarrierFailsOnQuarantine(t *testing.T) {
	h := manualHost(t, Config{})
	ten, err := h.Spawn(SpawnSpec{ID: "q", Preset: "threeconfig", Seed: 18})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	ten.stepBatch(3)
	next := ten.Status().Frame

	// Arm a panic at the next frame, then inject env at the same frame: the
	// frame can never commit, so the env ack must fail.
	if _, err := ten.Inject(Injection{Kind: "panic", Frame: next}); err != nil {
		t.Fatalf("arm panic: %v", err)
	}
	acked := make(chan error, 1)
	go func() {
		_, err := h.Inject("q", Injection{Kind: "env", Factor: "alt1", Value: "failed"})
		acked <- err
	}()
	select {
	case err := <-acked:
		t.Fatalf("premature ack outcome before stepping: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	ten.stepBatch(2) // fires the panic at frame `next`
	if err := <-acked; err == nil {
		t.Fatal("env injection acked although its frame died with the quarantine")
	}
	if st := ten.Status(); st.State != StateQuarantined {
		t.Fatalf("tenant = %+v, want quarantined", st)
	}
}

// TestInjectBarrierFailsOnHostClose: an injection waiting at its frame
// barrier when the host closes its tenants fails instead of waiting forever.
// The frame never ran and nothing is journaled: at most once.
func TestInjectBarrierFailsOnHostClose(t *testing.T) {
	st := stable.NewHardened(stable.MountReplicatedStore(stable.NewMemMedium(), stable.NewMemMedium()))
	h := manualHost(t, Config{Manifest: st})
	ten, err := h.Spawn(SpawnSpec{ID: "c", Preset: "threeconfig", Seed: 19})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	ten.stepBatch(5)
	acked := make(chan error, 1)
	go func() {
		_, err := h.Inject("c", Injection{Kind: "env", Factor: "alt1", Value: "failed"})
		acked <- err
	}()
	waitFor(t, "injection applied", func() bool {
		ten.mu.Lock()
		defer ten.mu.Unlock()
		return ten.injSeq > 0
	})
	h.closeTenants()
	select {
	case err := <-acked:
		if err == nil || !strings.Contains(err.Error(), "host closed before frame 5 committed") {
			t.Fatalf("inject across host close = %v, want the host-closed barrier failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("inject still blocked at its frame barrier 5s after the host closed its tenants")
	}
	if keys := st.Keys(manifestPrefix + "c" + injSuffixPrefix); len(keys) != 0 {
		t.Fatalf("failed injection journaled: %v", keys)
	}
}

// TestAtRestTenantsReleaseTheirSystem: a tenant holds its System exactly
// while it can still step. Every fate that ends stepping — completion, a
// live panic, a step error, a kill, a damaged recipe or a replayed
// quarantine after Recover, and a host closing under a running tenant —
// leaves no System behind, and the tenant serves one frozen snapshot:
// repeated reads are equal, Status reports the snapshot's frame, injections
// are refused, and tenants with a recipe match their standalone run.
func TestAtRestTenantsReleaseTheirSystem(t *testing.T) {
	media := []stable.Medium{stable.NewMemMedium(), stable.NewMemMedium()}
	// recipes holds the acks of every tenant CheckEquivalence can check.
	recipes := map[string][]AckedInjection{"done": nil}
	check := func(ten *Tenant, want State) {
		t.Helper()
		ten.mu.Lock()
		held := ten.sys != nil
		ten.mu.Unlock()
		if held {
			t.Fatalf("%s (%s) still holds its System", ten.ID(), want)
		}
		a, okA := ten.TelemetrySnapshot()
		b, okB := ten.TelemetrySnapshot()
		if !okA || !okB || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two snapshot reads differ", ten.ID())
		}
		if st := ten.Status(); st.State != want || st.Frame != a.Frame {
			t.Errorf("%s: status %+v, want %s at the snapshot's frame %d", ten.ID(), st, want, a.Frame)
		}
		if _, err := ten.Inject(Injection{Kind: "env", Factor: "alt1", Value: "failed"}); err == nil {
			t.Errorf("%s: injection accepted at rest", ten.ID())
		}
		if acks, ok := recipes[ten.ID()]; ok {
			if err := CheckEquivalence(ten, acks); err != nil {
				t.Errorf("%s: %v", ten.ID(), err)
			}
		}
	}
	wantCounts := func(h *Host, want map[State]int) {
		t.Helper()
		if n := len(h.List()); n != want[StateRunning]+want[StateCompleted]+want[StateQuarantined] {
			t.Errorf("List holds %d tenants, want %v", n, want)
		}
		st := h.Stats()
		if !reflect.DeepEqual(st.Tenants, want) || st.QuarantineCached != want[StateQuarantined] {
			t.Errorf("Stats = %+v, want tenants %v", st, want)
		}
	}

	h := NewHost(memConfig(media))
	tens := make(map[string]*Tenant)
	for i, ss := range []SpawnSpec{
		{ID: "done", Frames: 40},
		{ID: "panicked"},
		{ID: "damaged"},
		{ID: "open"},
		{ID: "killed"},
	} {
		ss.Preset, ss.Seed = "threeconfig", int64(70+i)
		ten, err := h.Spawn(ss)
		if err != nil {
			t.Fatalf("spawn %s: %v", ss.ID, err)
		}
		tens[ss.ID] = ten
		waitFor(t, ss.ID+" past frame 8", func() bool { return ten.Status().Frame > 8 })
	}
	tens["failed"] = spawnFaulty(t, h, "failed", 30, errors.New("application fault"))
	for id, inj := range map[string]Injection{
		"panicked": {Kind: "panic"},
		"damaged":  {Kind: "env", Factor: "alt1", Value: "failed"},
	} {
		applied, err := h.Inject(id, inj)
		if err != nil {
			t.Fatalf("inject %s: %v", id, err)
		}
		recipes[id] = append(recipes[id], AckedInjection{Inj: inj, Applied: applied})
	}
	delete(recipes, "damaged") // its recipe is torn below
	if err := h.Kill("killed"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	for id, want := range map[string]State{"done": StateCompleted, "panicked": StateQuarantined, "failed": StateQuarantined} {
		waitFor(t, id+" at rest", func() bool { return tens[id].Status().State == want })
	}
	h.Drain()

	check(tens["done"], StateCompleted)
	check(tens["panicked"], StateQuarantined)
	check(tens["failed"], StateQuarantined)
	check(tens["killed"], StateQuarantined)
	check(tens["damaged"], StateRunning)
	check(tens["open"], StateRunning)
	wantCounts(h, map[State]int{StateCompleted: 1, StateQuarantined: 2, StateRunning: 2})

	// The crash tore damaged's injection record on every replica.
	tearOnEveryReplica(t, media, injKey("damaged", 0))
	h2, rec, err := Recover(memConfig(media))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if want := []string{"damaged", "panicked"}; !reflect.DeepEqual(rec.Quarantined, want) {
		t.Fatalf("recovered quarantines %v, want %v", rec.Quarantined, want)
	}
	recipes["damaged"] = nil // parked at frame 0: the spec alone
	for id, want := range map[string]State{"done": StateCompleted, "panicked": StateQuarantined, "damaged": StateQuarantined} {
		ten, _ := h2.Get(id)
		check(ten, want)
	}
	wantCounts(h2, map[State]int{StateCompleted: 1, StateQuarantined: 2, StateRunning: 1})
	open, _ := h2.Get("open")
	mark := open.Status().Frame
	waitFor(t, "open stepping after recovery", func() bool { return open.Status().Frame > mark })
	h2.Close()
	check(open, StateRunning)
}

// TestRetentionBoundsTenantFootprint: with RetainFrames set, a tenant's
// history stays within the window over a 10k-frame run. Its trace is a view
// over the journal ring, which trims behind the retention horizon every
// frame, so the retained view holds no frame older than the window, keeps
// absolute cycles, and is exactly the tail of the unbounded run's view,
// which covers every frame. A script that churns alt1 through the last
// thousand frames keeps samples in the window; the quiet spec keeps none
// once its last change has left the window, so its retained view is empty.
func TestRetentionBoundsTenantFootprint(t *testing.T) {
	const retain, frames = 64, 10_000
	var churn []envmon.Event
	for i, f := 0, int64(frames-1000); f < frames; i, f = i+1, f+20 {
		val := "failed"
		if i%2 == 1 {
			val = "ok"
		}
		churn = append(churn, envmon.Event{Frame: f, Factor: "alt1", Value: val})
	}
	run := func(script []envmon.Event, retain int64) *core.System {
		t.Helper()
		opts, err := SpawnOptions(SpawnSpec{Preset: "threeconfig", Seed: 77, Script: script, RetainFrames: retain})
		if err != nil {
			t.Fatalf("SpawnOptions: %v", err)
		}
		sys, err := core.NewSystem(opts)
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		t.Cleanup(sys.Close)
		if err := sys.StepTo(frames); err != nil {
			t.Fatalf("run: %v", err)
		}
		if _, rec := sys.Telemetry(); retain > 0 && rec.Trimmed() == 0 {
			t.Fatal("journal ring never trimmed behind the retention horizon")
		}
		return sys
	}

	view := run(churn, retain).Trace()
	if end := view.End(); end != frames {
		t.Fatalf("trace end %d, want %d (absolute cycles must survive trimming)", end, frames)
	}
	// The last frame's horizon is frame frames-1-retain: the ring holds no
	// sample older than that.
	if view.Len() == 0 || view.Base < frames-1-retain {
		t.Fatalf("retained trace covers [%d,%d), want a non-empty window starting at or after %d",
			view.Base, view.End(), frames-1-retain)
	}
	full := run(churn, -1).Trace()
	if n := full.Len(); n != frames {
		t.Fatalf("unbounded trace holds %d states, want %d", n, frames)
	}
	if !reflect.DeepEqual(view.States, full.States[view.Base:]) {
		t.Fatal("retained trace is not the tail of the unbounded trace")
	}

	// The quiet spec's last sample left the window long ago, so its view
	// is empty but still ends at the frames run. This pins a known gap:
	// keeping the sample that governs the horizon would change it.
	quiet := run(nil, retain).Trace()
	if quiet.Len() != 0 || quiet.Base != frames || quiet.End() != frames {
		t.Fatalf("quiet retained trace covers [%d,%d) with %d states, want the empty view [%d,%d)",
			quiet.Base, quiet.End(), quiet.Len(), frames, frames)
	}
	if n := run(nil, -1).Trace().Len(); n != frames {
		t.Fatalf("quiet unbounded trace holds %d states, want %d", n, frames)
	}
}

// TestAdmissionControlShedsLoad: past the admission limit the control plane
// answers 429 with Retry-After instead of queueing, and a draining host
// refuses mutations with 503 while reads still serve.
func TestAdmissionControlShedsLoad(t *testing.T) {
	h := NewHost(Config{Shards: 1, Batch: 1})
	defer h.Close()
	api := NewAPILimited(h, 1)
	handler := api.Handler()

	// Occupy the single admission slot, then hit the plane again.
	api.sem <- struct{}{}
	rr := httptest.NewRecorder()
	handler.ServeHTTP(rr, httptest.NewRequest("DELETE", "/systems/none", nil))
	if rr.Code != 429 {
		t.Fatalf("status %d at admission limit, want 429", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	<-api.sem
	rr = httptest.NewRecorder()
	handler.ServeHTTP(rr, httptest.NewRequest("DELETE", "/systems/none", nil))
	if rr.Code != 404 {
		t.Fatalf("status %d with a free slot, want 404 (semaphore not released)", rr.Code)
	}

	h.Drain()
	rr = httptest.NewRecorder()
	handler.ServeHTTP(rr, httptest.NewRequest("DELETE", "/systems/none", nil))
	if rr.Code != 503 {
		t.Fatalf("status %d while draining, want 503", rr.Code)
	}
	rr = httptest.NewRecorder()
	handler.ServeHTTP(rr, httptest.NewRequest("GET", "/systems", nil))
	if rr.Code != 200 {
		t.Fatalf("read path status %d while draining, want 200", rr.Code)
	}
}

// failingMedium is a MemMedium whose writes fail while fail is set: a
// manifest over two of them latches an unrecoverable fault at its next
// commit.
type failingMedium struct {
	*stable.MemMedium
	fail *atomic.Bool
}

func (m failingMedium) Write(key string, raw []byte) error {
	if m.fail.Load() {
		return errors.New("injected write fault")
	}
	return m.MemMedium.Write(key, raw)
}

// TestAPIStatusCodes: every control-plane failure answers with the status
// of its cause — 404 an unknown tenant, 400 a malformed request, 409 a
// tenant that is not running or was quarantined before its frame committed,
// 503 a latched manifest fault or a host closed before the frame committed.
func TestAPIStatusCodes(t *testing.T) {
	var fail atomic.Bool
	h := manualHost(t, Config{Manifest: stable.NewHardened(stable.MountReplicatedStore(
		failingMedium{stable.NewMemMedium(), &fail}, failingMedium{stable.NewMemMedium(), &fail}))})
	handler := NewAPI(h).Handler()
	serve := func(method, path string, body any) int {
		raw, err := json.Marshal(body)
		if err != nil {
			panic(err)
		}
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, httptest.NewRequest(method, path, bytes.NewReader(raw)))
		return rr.Code
	}
	spawn := func(ss SpawnSpec) *Tenant {
		ten, err := h.Spawn(ss)
		if err != nil {
			t.Fatalf("spawn %s: %v", ss.ID, err)
		}
		return ten
	}
	run := spawn(SpawnSpec{ID: "run", Preset: "threeconfig", Seed: 1})
	done := spawn(SpawnSpec{ID: "done", Preset: "threeconfig", Seed: 2, Frames: 4})
	done.stepBatch(8)
	dies := spawn(SpawnSpec{ID: "dies", Preset: "threeconfig", Seed: 3})
	dies.stepBatch(3)
	if _, err := dies.Inject(Injection{Kind: "panic"}); err != nil {
		t.Fatalf("arm panic: %v", err)
	}
	closes := spawn(SpawnSpec{ID: "closes", Preset: "threeconfig", Seed: 4})
	env := Injection{Kind: "env", Factor: "alt1", Value: "failed"}

	cases := []struct {
		name         string
		method, path string
		body         any
		// ten and during, when set, leave the request waiting at ten's
		// frame barrier until during decides it.
		ten    *Tenant
		during func()
		want   int
	}{
		{name: "kill unknown tenant", method: "DELETE", path: "/systems/nope", want: 404},
		{name: "inject unknown tenant", method: "POST", path: "/systems/nope/inject", body: env, want: 404},
		{name: "spawn malformed body", method: "POST", path: "/systems", body: map[string]int{"bogus": 1}, want: 400},
		{name: "spawn unknown preset", method: "POST", path: "/systems", body: SpawnSpec{Preset: "nope"}, want: 400},
		{name: "spawn duplicate id", method: "POST", path: "/systems", body: SpawnSpec{ID: "run", Preset: "threeconfig"}, want: 409},
		{name: "inject malformed body", method: "POST", path: "/systems/run/inject", body: "env", want: 400},
		{name: "inject unknown kind", method: "POST", path: "/systems/run/inject", body: Injection{Kind: "bogus"}, want: 400},
		{name: "inject completed tenant", method: "POST", path: "/systems/done/inject", body: env, want: 409},
		{name: "inject quarantined before its frame", method: "POST", path: "/systems/dies/inject", body: env,
			ten: dies, during: func() { dies.stepBatch(2) }, want: 409},
		{name: "inject quarantined tenant", method: "POST", path: "/systems/dies/inject", body: env, want: 409},
		{name: "spawn under a manifest fault", method: "POST", path: "/systems", body: SpawnSpec{ID: "late", Preset: "threeconfig"}, want: 503},
		{name: "inject whose ack cannot be journaled", method: "POST", path: "/systems/run/inject", body: env,
			ten: run, during: func() { run.stepBatch(1) }, want: 503},
		{name: "kill that cannot be journaled", method: "DELETE", path: "/systems/done", want: 503},
		{name: "inject across host close", method: "POST", path: "/systems/closes/inject", body: env,
			ten: closes, during: h.closeTenants, want: 503},
	}
	for _, tc := range cases {
		if tc.want == 503 {
			fail.Store(true)
		}
		var code int
		if tc.ten == nil {
			code = serve(tc.method, tc.path, tc.body)
		} else {
			tc.ten.mu.Lock()
			ord := tc.ten.injSeq
			tc.ten.mu.Unlock()
			codes := make(chan int, 1)
			go func() { codes <- serve(tc.method, tc.path, tc.body) }()
			waitFor(t, tc.name+": injection applied", func() bool {
				tc.ten.mu.Lock()
				defer tc.ten.mu.Unlock()
				return tc.ten.injSeq > ord
			})
			tc.during()
			select {
			case code = <-codes:
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: no answer 5s after its frame barrier was decided", tc.name)
			}
		}
		if code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}
}
