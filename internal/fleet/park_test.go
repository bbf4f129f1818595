package fleet

// Parked recovery tests: Recover brings a tenant whose checkpoint records it
// at rest back without replaying it, and the first read of its telemetry
// rebuilds the snapshot it froze before the crash.

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/envmon"
	"repro/internal/stable"
	"repro/internal/telemetry/serve"
)

// restAll spawns specs on a manual host and brings each one to rest: a
// tenant with an entry in panics quarantines at the panic armed there, any
// other completes its budget. Each tenant acks one env injection first. The
// drain's checkpoint barrier then commits, so a crash after restAll loses
// nothing. It returns the snapshot each tenant froze and its acked recipe.
func restAll(t *testing.T, h *Host, specs []SpawnSpec, panics map[string]int64) (map[string]serve.Snapshot, map[string][]AckedInjection) {
	t.Helper()
	frozen := make(map[string]serve.Snapshot)
	acks := make(map[string][]AckedInjection)
	for i, ss := range specs {
		ten, err := h.Spawn(ss)
		if err != nil {
			t.Fatalf("spawn %s: %v", ss.ID, err)
		}
		ten.stepBatch(10 + i)
		acks[ss.ID] = append(acks[ss.ID], ackManual(t, h, ten, Injection{Kind: "env", Factor: "alt1", Value: "failed", RequestID: "req-" + ss.ID}))
		if at, ok := panics[ss.ID]; ok {
			inj := Injection{Kind: "panic", Frame: at}
			applied, err := h.Inject(ss.ID, inj)
			if err != nil {
				t.Fatalf("arm %s: %v", ss.ID, err)
			}
			acks[ss.ID] = append(acks[ss.ID], AckedInjection{Inj: inj, Applied: applied})
		}
		for ten.Status().State == StateRunning {
			ten.stepBatch(64)
		}
		frozen[ss.ID], _ = ten.TelemetrySnapshot()
	}
	h.checkpoint(true)
	return frozen, acks
}

// isParked reports whether a tenant is registered at rest with neither a
// System nor a built snapshot.
func isParked(ten *Tenant) bool {
	ten.mu.Lock()
	defer ten.mu.Unlock()
	return ten.parked != nil && ten.sys == nil
}

// TestRecoverIsClosed: Recover replays no tenant at rest, so recovery is
// closed. Recovering twice from the same media with nothing read in
// between gives the same Recovery and the same listing, and so does a crash
// after some parked tenants were read and others were not. On every host,
// each parked tenant's first read rebuilds exactly the snapshot it froze
// before the first crash, and only built post-mortems count as cached.
func TestRecoverIsClosed(t *testing.T) {
	media := []stable.Medium{stable.NewMemMedium(), stable.NewMemMedium()}
	specs := []SpawnSpec{
		{ID: "done-a", Preset: "threeconfig", Seed: 41, Frames: 90},
		{ID: "dead-a", Preset: "threeconfig-spares4", Seed: 42},
		{ID: "done-b", Preset: "threeconfig-spares", Seed: 43, Frames: 120,
			Script: []envmon.Event{{Frame: 40, Factor: "alt1", Value: "ok"}, {Frame: 60, Factor: "alt2", Value: "failed"}}},
		{ID: "dead-b", Preset: "threeconfig", Seed: 44},
	}
	frozen, acks := restAll(t, manualHost(t, memConfig(media)), specs, map[string]int64{"dead-a": 70, "dead-b": 50})
	want := &Recovery{Tenants: 4, Completed: 2, Quarantined: []string{"dead-a", "dead-b"}}

	recoverParked := func() (*Host, []Status) {
		t.Helper()
		h, rec, err := Recover(memConfig(media))
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		t.Cleanup(h.Close)
		if !reflect.DeepEqual(rec, want) {
			t.Fatalf("recovery = %+v, want %+v", rec, want)
		}
		for _, ss := range specs {
			if ten, _ := h.Get(ss.ID); !isParked(ten) {
				t.Fatalf("%s was replayed by Recover, not parked", ss.ID)
			}
		}
		if st := h.Stats(); st.QuarantineCached != 0 {
			t.Fatalf("QuarantineCached = %d before any read, want 0", st.QuarantineCached)
		}
		return h, h.List()
	}
	read := func(h *Host, id string) serve.Snapshot {
		t.Helper()
		ten, _ := h.Get(id)
		snap, ok := ten.TelemetrySnapshot()
		if !ok || !reflect.DeepEqual(snap, frozen[id]) {
			t.Fatalf("%s: first read differs from the snapshot frozen before the crash", id)
		}
		return snap
	}

	h1, list := recoverParked()
	h1.Close() // nothing read
	h2, list2 := recoverParked()
	if !reflect.DeepEqual(list2, list) {
		t.Fatalf("second recovery lists %+v, first %+v", list2, list)
	}
	for i, id := range []string{"done-a", "dead-a"} {
		read(h2, id)
		if got := h2.Stats().QuarantineCached; got != i {
			t.Fatalf("QuarantineCached = %d after reading %s, want %d", got, id, i)
		}
	}
	h2.Close() // done-a and dead-a read, done-b and dead-b still parked
	h3, list3 := recoverParked()
	if !reflect.DeepEqual(list3, list) {
		t.Fatalf("recovery after partial reads lists %+v, first %+v", list3, list)
	}

	for _, h := range []*Host{h1, h2, h3} {
		for _, ss := range specs {
			read(h, ss.ID)
			if ten, _ := h.Get(ss.ID); isParked(ten) {
				t.Fatalf("%s still parked after its first read", ss.ID)
			}
		}
		if got := h.Stats().QuarantineCached; got != 2 {
			t.Fatalf("QuarantineCached = %d after every read, want 2", got)
		}
		if !reflect.DeepEqual(h.List(), list) {
			t.Fatalf("reads changed the listing: %+v, want %+v", h.List(), list)
		}
	}
	for _, ss := range specs {
		ten, _ := h3.Get(ss.ID)
		if err := CheckEquivalence(ten, acks[ss.ID]); err != nil {
			t.Error(err)
		}
	}
}

// buildWaiters counts the goroutines inside a parked tenant's build.
func buildWaiters() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("fleet.(*parking).build("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// fixedSource serves one snapshot, for rendering expected HTTP bodies.
type fixedSource serve.Snapshot

func (s fixedSource) TelemetrySnapshot() (serve.Snapshot, bool) { return serve.Snapshot(s), true }

// TestRecoverParkedFirstReadsConcurrent is the -race test of the lazy
// rebuild. The test holds every parked tenant's rebuild in flight while
// goroutines make first reads of the same tenants through every surface —
// the snapshot, /journal, /metrics, /traces and CheckEquivalence — and
// others call Status, List and Stats and a running tenant steps: none of
// them may wait on a rebuild. Two parked tenants are killed mid-rebuild;
// their late builds must be discarded. Every read of a tenant then serves
// the snapshot it froze before the crash, or the kill's.
func TestRecoverParkedFirstReadsConcurrent(t *testing.T) {
	media := []stable.Medium{stable.NewMemMedium(), stable.NewMemMedium()}
	h := manualHost(t, memConfig(media))
	live, err := h.Spawn(SpawnSpec{ID: "live", Preset: "threeconfig", Seed: 60})
	if err != nil {
		t.Fatalf("spawn live: %v", err)
	}
	live.stepBatch(20)
	specs := []SpawnSpec{
		{ID: "done", Preset: "threeconfig-spares", Seed: 62, Frames: 160},
		{ID: "dead", Preset: "threeconfig-spares4", Seed: 63},
		{ID: "kill-a", Preset: "threeconfig", Seed: 64, Frames: 120},
		{ID: "kill-b", Preset: "threeconfig", Seed: 65},
	}
	frozen, acks := restAll(t, h, specs, map[string]int64{"dead": 110, "kill-b": 90})
	want := map[string]serve.Snapshot{"done": frozen["done"], "dead": frozen["dead"]}
	killIDs := []string{"kill-a", "kill-b"}
	for _, id := range killIDs {
		want[id] = serve.Snapshot{Frame: frozen[id].Frame} // the frame, and nothing else
	}

	h2, _, err := Recover(memConfig(media))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer h2.Close()
	// Deferred in this order so that a failing test opens the gate first
	// and unblocks everything a rebuild in flight may hold up.
	stop := make(chan struct{})
	var polled sync.WaitGroup
	defer func() {
		close(stop)
		polled.Wait()
	}()
	gate := make(chan struct{})
	var opened sync.Once
	open := func() { opened.Do(func() { close(gate) }) }
	defer open()

	live2, _ := h2.Get("live")
	tenants := make(map[string]*Tenant)
	for _, ss := range specs {
		ten, _ := h2.Get(ss.ID)
		if !isParked(ten) {
			t.Fatalf("%s not parked by Recover", ss.ID)
		}
		tenants[ss.ID] = ten
		// Hold the rebuild in flight: this Do runs the one replay every
		// first reader waits on, and it waits for the gate.
		p := ten.parked
		entered := make(chan struct{})
		go p.once.Do(func() {
			close(entered)
			<-gate
			p.rebuild()
		})
		<-entered
	}
	// within fails the test if fn does not return promptly.
	within := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			fn()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s blocked behind a rebuild in flight", what)
		}
	}

	var readers sync.WaitGroup
	var firstReads int // reads that wait on a rebuild
	read := func(fn func()) {
		firstReads++
		readers.Add(1)
		go func() {
			defer readers.Done()
			fn()
		}()
	}
	for id, ten := range tenants {
		for range 2 {
			read(func() {
				if snap, ok := ten.TelemetrySnapshot(); !ok || !reflect.DeepEqual(snap, want[id]) {
					t.Errorf("%s: a first read differs from the snapshot frozen before the crash", id)
				}
			})
		}
		mux, ref := serve.NewMux(ten), serve.NewMux(fixedSource(want[id]))
		for _, path := range []string{"/journal", "/metrics", "/traces"} {
			read(func() {
				got, exp := httptest.NewRecorder(), httptest.NewRecorder()
				mux.ServeHTTP(got, httptest.NewRequest("GET", path, nil))
				ref.ServeHTTP(exp, httptest.NewRequest("GET", path, nil))
				if got.Code != 200 || !bytes.Equal(got.Body.Bytes(), exp.Body.Bytes()) {
					t.Errorf("%s %s: status %d, body differs from the frozen snapshot's", id, path, got.Code)
				}
			})
		}
		if !slices.Contains(killIDs, id) {
			read(func() {
				if err := CheckEquivalence(ten, acks[id]); err != nil {
					t.Error(err)
				}
			})
		}
	}
	polled.Add(1)
	go func() {
		defer polled.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ten := range tenants {
				ten.Status()
			}
			h2.List()
			h2.Stats()
		}
	}()

	// Every rebuild is in flight. The control plane answers, and live steps.
	within("Status, List and Stats", func() {
		for _, ten := range tenants {
			ten.Status()
		}
		h2.List()
		h2.Stats()
	})
	from := live2.Status().Frame
	waitFor(t, "live stepping while every rebuild is in flight", func() bool {
		return live2.Status().Frame > from+int64(h2.cfg.Batch)
	})
	// The kills land under readers already waiting on the rebuild.
	waitFor(t, "every first read waiting on its tenant's rebuild", func() bool {
		return buildWaiters() == firstReads
	})
	for _, id := range killIDs {
		within("Kill "+id, func() {
			if err := h2.Kill(id); err != nil {
				t.Errorf("kill %s: %v", id, err)
			}
		})
	}
	open()
	readers.Wait()

	for _, id := range killIDs {
		ten := tenants[id]
		ten.mu.Lock()
		final, parked := ten.final, ten.parked
		ten.mu.Unlock()
		if parked != nil || !reflect.DeepEqual(final, want[id]) {
			t.Errorf("%s: a build that finished after the kill was installed", id)
		}
	}
	if st := h2.Stats(); st.QuarantineCached != 1 || st.Tenants[StateQuarantined] != 1 {
		t.Errorf("Stats = %+v, want dead's built post-mortem cached", st)
	}
}

// BenchmarkRecoverParked measures the cost parking moves: serve-ms is the
// time until a recovered host serves one completed tenant, first-read-ms
// the first read that rebuilds its snapshot. The tenant has the shape of a
// benchmark workload's (benchmark/README.md), under its 64-frame retention:
// churn flips alt1 every 20 frames for 9200 frames; steady degrades alt1
// once and runs 7667 frames.
func BenchmarkRecoverParked(b *testing.B) {
	churn := func(frames int64) []envmon.Event {
		var ev []envmon.Event
		val := "failed"
		for f := int64(17); f < frames; f += 20 {
			ev = append(ev, envmon.Event{Frame: f, Factor: "alt1", Value: val})
			if val == "failed" {
				val = "ok"
			} else {
				val = "failed"
			}
		}
		return ev
	}
	for _, shape := range []struct {
		name   string
		frames int64
		script []envmon.Event
	}{
		{"churn", 9200, churn(9200)},
		{"steady", 7667, []envmon.Event{{Frame: 23, Factor: "alt1", Value: "failed"}}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			media := []stable.Medium{stable.NewMemMedium(), stable.NewMemMedium()}
			h := newHostNoLoop(memConfig(media))
			ten, err := h.Spawn(SpawnSpec{ID: "t", Preset: "threeconfig", Seed: 1, Frames: shape.frames, Script: shape.script, RetainFrames: 64})
			if err != nil {
				b.Fatal(err)
			}
			for ten.Status().State == StateRunning {
				ten.stepBatch(256)
			}
			h.checkpoint(true)
			var serving, reading time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				h2, _, err := Recover(memConfig(media))
				if err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				ten2, _ := h2.Get("t")
				if _, ok := ten2.TelemetrySnapshot(); !ok {
					b.Fatal("no snapshot")
				}
				reading += time.Since(t1)
				serving += t1.Sub(t0)
				h2.Close()
			}
			b.ReportMetric(float64(serving.Microseconds())/1e3/float64(b.N), "serve-ms/op")
			b.ReportMetric(float64(reading.Microseconds())/1e3/float64(b.N), "first-read-ms/op")
		})
	}
}
