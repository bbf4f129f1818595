package fleet

// Host crash-restart tests: the durability half of ISSUE 10. A durable host
// journals its fleet manifest to replicated stable media; these tests kill
// the host the hard way (abandon without drain — what kill -9 leaves
// behind), remount the surviving media, and demand the recovered fleet be
// byte-identical to an uninterrupted run.

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/stable"
	"repro/internal/telemetry/serve"
)

// mountFileManifest mounts a manifest store over two file media rooted in
// dir — the same layout fleetd -data uses, recovered the same way.
func mountFileManifest(t *testing.T, dir string) *stable.Store {
	t.Helper()
	var media []stable.Medium
	for _, rep := range []string{"r0", "r1"} {
		m, err := stable.NewFileMedium(filepath.Join(dir, rep))
		if err != nil {
			t.Fatalf("NewFileMedium: %v", err)
		}
		media = append(media, m)
	}
	return stable.NewHardened(stable.MountReplicatedStore(media...))
}

func durableConfig(st *stable.Store) Config {
	return Config{Shards: 2, Batch: 4, Manifest: st, CheckpointEvery: 16}
}

// memConfig mounts a durable config over surviving in-memory media, as a
// restarted host does.
func memConfig(media []stable.Medium) Config {
	return durableConfig(stable.NewHardened(stable.MountReplicatedStore(media...)))
}

// TestRestartEquivalence is the tentpole property: spawn a fleet on a
// durable host, inject live faults, hard-stop the host mid-run (no drain, no
// final checkpoint — the kill -9 shape), recover from the on-disk manifest,
// run to completion, and assert each tenant's journal and /trace/<tid> HTTP
// bodies are byte-identical to an uninterrupted standalone run of the same
// recipe.
func TestRestartEquivalence(t *testing.T) {
	dir := t.TempDir()
	h := NewHost(durableConfig(mountFileManifest(t, dir)))

	specs := []SpawnSpec{
		{ID: "r-0", Preset: "threeconfig", Seed: 101, Frames: 200},
		{ID: "r-1", Preset: "threeconfig-spares", Seed: 202, Frames: 200},
		{ID: "r-2", Preset: "threeconfig-spares4", Seed: 303, Frames: 200},
	}
	for _, ss := range specs {
		if _, err := h.Spawn(ss); err != nil {
			t.Fatalf("spawn %s: %v", ss.ID, err)
		}
	}

	// Live injections mid-run: these acks are the replay recipe the crash
	// must not lose.
	acks := make(map[string][]AckedInjection)
	for _, id := range []string{"r-0", "r-1", "r-2"} {
		ten, _ := h.Get(id)
		waitFor(t, id+" past frame 5", func() bool { return ten.Status().Frame > 5 })
		inj := Injection{Kind: "env", Factor: "alt1", Value: "failed", RequestID: "fail-" + id}
		applied, err := h.Inject(id, inj)
		if err != nil {
			t.Fatalf("inject %s: %v", id, err)
		}
		acks[id] = append(acks[id], AckedInjection{Inj: inj, Applied: applied})
	}

	// Wait until the fleet is mid-flight, then kill it the hard way.
	waitFor(t, "fleet mid-run", func() bool {
		for _, st := range h.List() {
			if st.Frame < 60 {
				return false
			}
		}
		return true
	})
	h.Close() // no drain: everything since the last checkpoint is lost

	h2, rec, err := Recover(durableConfig(mountFileManifest(t, dir)))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer h2.Close()
	if rec.Tenants != len(specs) || len(rec.Dropped) > 0 {
		t.Fatalf("recovery = %+v, want %d tenants, none dropped", rec, len(specs))
	}

	// Post-crash injections land on the recovered fleet like nothing
	// happened.
	for _, id := range []string{"r-0", "r-1", "r-2"} {
		inj := Injection{Kind: "env", Factor: "alt1", Value: "ok", RequestID: "repair-" + id}
		applied, err := h2.Inject(id, inj)
		if err != nil {
			t.Fatalf("post-recovery inject %s: %v", id, err)
		}
		acks[id] = append(acks[id], AckedInjection{Inj: inj, Applied: applied})
	}
	waitFor(t, "recovered fleet completed", func() bool {
		for _, st := range h2.List() {
			if st.State != StateCompleted {
				return false
			}
		}
		return true
	})

	for _, ss := range specs {
		ten, ok := h2.Get(ss.ID)
		if !ok {
			t.Fatalf("tenant %s vanished after recovery", ss.ID)
		}
		if err := CheckEquivalence(ten, acks[ss.ID]); err != nil {
			t.Errorf("restart equivalence: %v", err)
		}
	}

	// HTTP byte-identity for one victim: the recovered fleet's serve plane
	// renders /journal and /trace/<tid> exactly as the uninterrupted run.
	ten, _ := h2.Get("r-0")
	ref, err := StandaloneSnapshot(ten.Spec(), acks["r-0"], 200, false)
	if err != nil {
		t.Fatalf("standalone: %v", err)
	}
	wantJournal, err := renderJournal(ref.Events)
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	mux := serve.NewMux(ten)
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/journal", nil))
	if rr.Code != 200 || !bytes.Equal(rr.Body.Bytes(), wantJournal) {
		t.Errorf("/journal after crash-restart differs from uninterrupted run (status %d)", rr.Code)
	}
	tid := firstTraceID(ref.Events)
	if tid == 0 {
		t.Fatal("no reconfiguration trace in reference run (vacuous test)")
	}
	wantTrace, err := renderTraceReport(ref.Events, tid)
	if err != nil {
		t.Fatalf("render trace: %v", err)
	}
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/trace/"+strconv.FormatInt(tid, 16), nil))
	if rr.Code != 200 || !bytes.Equal(rr.Body.Bytes(), wantTrace) {
		t.Errorf("/trace/%x after crash-restart differs from uninterrupted run (status %d)", tid, rr.Code)
	}
}

// TestRecoverDedupeSurvivesRestart: a request id acked before the crash
// replays its pre-crash ack after recovery instead of re-applying.
func TestRecoverDedupeSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	h := NewHost(durableConfig(mountFileManifest(t, dir)))
	if _, err := h.Spawn(SpawnSpec{ID: "d", Preset: "threeconfig", Seed: 9}); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	ten, _ := h.Get("d")
	waitFor(t, "tenant past frame 5", func() bool { return ten.Status().Frame > 5 })
	inj := Injection{Kind: "env", Factor: "alt1", Value: "failed", RequestID: "once"}
	applied, err := h.Inject("d", inj)
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	h.Close()

	h2, _, err := Recover(durableConfig(mountFileManifest(t, dir)))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer h2.Close()
	again, err := h2.Inject("d", inj)
	if err != nil {
		t.Fatalf("replayed inject: %v", err)
	}
	if again != applied {
		t.Fatalf("request %q acked %d after restart, %d before", inj.RequestID, again, applied)
	}
}

// TestRecoverConvergesPastDamage: records torn on every replica quarantine
// only the tenant that owned them; a spawn record missing entirely drops
// only that tenant. Everyone else recovers untouched — self-stabilization,
// not halt-on-corruption.
func TestRecoverConvergesPastDamage(t *testing.T) {
	dir := t.TempDir()
	h := NewHost(durableConfig(mountFileManifest(t, dir)))
	for _, ss := range []SpawnSpec{
		{ID: "ok", Preset: "threeconfig", Seed: 1, Frames: 60},
		{ID: "hurt", Preset: "threeconfig", Seed: 2, Frames: 60},
		{ID: "gone", Preset: "threeconfig", Seed: 3, Frames: 60},
	} {
		if _, err := h.Spawn(ss); err != nil {
			t.Fatalf("spawn %s: %v", ss.ID, err)
		}
	}
	ten, _ := h.Get("hurt")
	waitFor(t, "hurt past frame 5", func() bool { return ten.Status().Frame > 5 })
	if _, err := h.Inject("hurt", Injection{Kind: "env", Factor: "alt1", Value: "failed"}); err != nil {
		t.Fatalf("inject: %v", err)
	}
	h.Close()

	// Corrupt hurt's injection record on BOTH replicas (unrecoverable) and
	// delete gone's spawn record from both (nothing to respawn from).
	for _, rep := range []string{"r0", "r1"} {
		m, err := stable.NewFileMedium(filepath.Join(dir, rep))
		if err != nil {
			t.Fatalf("reopen medium: %v", err)
		}
		for _, key := range m.Keys() {
			if raw, ok := m.Read(key); ok && len(raw) > 4 {
				switch {
				case key == injKey("hurt", 0):
					raw[len(raw)-3] ^= 0xFF
					if err := m.Write(key, raw); err != nil {
						t.Fatalf("corrupt: %v", err)
					}
				case key == spawnKey("gone"):
					m.Delete(key)
				}
			}
		}
	}

	h2, rec, err := Recover(durableConfig(mountFileManifest(t, dir)))
	if err != nil {
		t.Fatalf("Recover must converge past damage, got: %v", err)
	}
	defer h2.Close()

	if len(rec.Dropped) != 1 || rec.Dropped[0] != "gone" {
		t.Fatalf("dropped = %v, want [gone]", rec.Dropped)
	}
	if len(rec.Quarantined) != 1 || rec.Quarantined[0] != "hurt" {
		t.Fatalf("quarantined = %v, want [hurt]", rec.Quarantined)
	}
	hurt, ok := h2.Get("hurt")
	if !ok {
		t.Fatal("hurt vanished")
	}
	if st := hurt.Status(); st.State != StateQuarantined || st.Reason == "" {
		t.Fatalf("hurt = %+v, want quarantined with a recovery reason", st)
	}
	waitFor(t, "ok completed", func() bool {
		st, _ := h2.Get("ok")
		return st.Status().State == StateCompleted
	})
}

// TestRecoverHealsTornRecordAcrossCrashes: each crash tears an acked spawn
// record on one replica only — inside the fault hypothesis — but on a
// different replica each time. Recovery must heal the first tear before
// the second lands, or the record is lost on every replica and the tenant
// is dropped: an acked spawn committed before the crashes must stay
// committed after them.
func TestRecoverHealsTornRecordAcrossCrashes(t *testing.T) {
	dir := t.TempDir()
	h := NewHost(durableConfig(mountFileManifest(t, dir)))
	for _, id := range []string{"a", "b"} {
		if _, err := h.Spawn(SpawnSpec{ID: id, Preset: "threeconfig", Seed: 4, Frames: 40}); err != nil {
			t.Fatalf("spawn %s: %v", id, err)
		}
	}
	h.Close()

	tear := func(rep string) {
		t.Helper()
		m, err := stable.NewFileMedium(filepath.Join(dir, rep))
		if err != nil {
			t.Fatalf("reopen medium: %v", err)
		}
		raw, ok := m.Read(spawnKey("b"))
		if !ok || len(raw) < 4 {
			t.Fatalf("spawn record of b missing on %s", rep)
		}
		raw[len(raw)-3] ^= 0xFF
		if err := m.Write(spawnKey("b"), raw); err != nil {
			t.Fatalf("tear %s: %v", rep, err)
		}
	}
	for i, rep := range []string{"r0", "r1"} {
		tear(rep)
		h, rec, err := Recover(durableConfig(mountFileManifest(t, dir)))
		if err != nil {
			t.Fatalf("Recover after tear %d: %v", i+1, err)
		}
		h.Close()
		if rec.Tenants != 2 || len(rec.Dropped) != 0 || len(rec.Quarantined) != 0 {
			t.Fatalf("recovery after tearing b on %s = %+v, want both tenants back", rep, rec)
		}
	}
}

// TestRecoverReproducesQuarantine: a tenant that panicked pre-crash is
// restored quarantined at the same frame with the same reason, and its
// post-mortem snapshot re-recovers from the replayed stable storage.
func TestRecoverReproducesQuarantine(t *testing.T) {
	dir := t.TempDir()
	h := NewHost(durableConfig(mountFileManifest(t, dir)))
	defer h.Close()
	if _, err := h.Spawn(SpawnSpec{ID: "v", Preset: "threeconfig", Seed: 21}); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	ten, _ := h.Get("v")
	waitFor(t, "tenant past frame 10", func() bool { return ten.Status().Frame > 10 })
	// Default frame: the panic arms at whatever frame is next — frame-exact
	// aims would race the live sweep.
	if _, err := h.Inject("v", Injection{Kind: "panic"}); err != nil {
		t.Fatalf("arm panic: %v", err)
	}
	waitFor(t, "tenant quarantined", func() bool { return ten.Status().State == StateQuarantined })
	pre := ten.Status()
	preSnap, ok := ten.TelemetrySnapshot()
	if !ok {
		t.Fatal("no pre-crash snapshot")
	}
	// The quarantine checkpoint is journaled by the sweep that observed it.
	waitFor(t, "quarantine checkpointed", func() bool {
		ten.mu.Lock()
		defer ten.mu.Unlock()
		return ten.lastCkptState == StateQuarantined
	})
	h.Close()

	h2, rec, err := Recover(durableConfig(mountFileManifest(t, dir)))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer h2.Close()
	if len(rec.Quarantined) != 1 {
		t.Fatalf("recovery = %+v, want one quarantined tenant", rec)
	}
	ten2, _ := h2.Get("v")
	post := ten2.Status()
	if post.State != StateQuarantined || post.Frame != pre.Frame || post.Reason != pre.Reason {
		t.Fatalf("recovered quarantine %+v differs from pre-crash %+v", post, pre)
	}
	postSnap, ok := ten2.TelemetrySnapshot()
	if !ok {
		t.Fatal("no post-recovery snapshot")
	}
	a, _ := renderJournal(preSnap.Events)
	b, _ := renderJournal(postSnap.Events)
	if !bytes.Equal(a, b) {
		t.Fatal("post-mortem journal differs across crash-restart")
	}
}

// TestKilledTenantStaysDead: a kill is durable — the recovered fleet does
// not resurrect a tenant whose manifest range was deleted.
func TestKilledTenantStaysDead(t *testing.T) {
	dir := t.TempDir()
	h := NewHost(durableConfig(mountFileManifest(t, dir)))
	for _, id := range []string{"keep", "dead"} {
		if _, err := h.Spawn(SpawnSpec{ID: id, Preset: "threeconfig", Seed: 5}); err != nil {
			t.Fatalf("spawn %s: %v", id, err)
		}
	}
	if err := h.Kill("dead"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	h.Close()

	h2, rec, err := Recover(durableConfig(mountFileManifest(t, dir)))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer h2.Close()
	if rec.Tenants != 1 {
		t.Fatalf("recovered %d tenants, want 1", rec.Tenants)
	}
	if _, ok := h2.Get("dead"); ok {
		t.Fatal("killed tenant resurrected by recovery")
	}
	if _, ok := h2.Get("keep"); !ok {
		t.Fatal("surviving tenant not recovered")
	}
}

// TestDrainBeatsCrash: Drain checkpoints every tenant before exit, so a
// recovered fleet resumes from the exact drained frames (no progress loss),
// unlike a hard stop which falls back to the last periodic checkpoint.
func TestDrainBeatsCrash(t *testing.T) {
	dir := t.TempDir()
	// A huge cadence so periodic checkpoints never fire after the first
	// sweep: only Drain's final barrier can record late progress.
	cfg := durableConfig(mountFileManifest(t, dir))
	cfg.CheckpointEvery = 1 << 40
	h := NewHost(cfg)
	if _, err := h.Spawn(SpawnSpec{ID: "d", Preset: "threeconfig", Seed: 31}); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	ten, _ := h.Get("d")
	waitFor(t, "tenant past frame 50", func() bool { return ten.Status().Frame > 50 })
	h.Drain()
	drained := ten.Status().Frame

	h2, _, err := Recover(durableConfig(mountFileManifest(t, dir)))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer h2.Close()
	ten2, _ := h2.Get("d")
	if got := ten2.Status().Frame; got < drained {
		t.Fatalf("recovered at frame %d, drained at %d: Drain lost progress", got, drained)
	}
}

// tearOnEveryReplica flips a byte of key's record on every medium: the CRC
// fails everywhere, so the record is lost on all replicas.
func tearOnEveryReplica(t *testing.T, media []stable.Medium, key string) {
	t.Helper()
	for i, m := range media {
		raw, ok := m.Read(key)
		if !ok || len(raw) < 4 {
			t.Fatalf("record %s missing on replica %d", key, i)
		}
		raw[len(raw)-3] ^= 0xFF
		if err := m.Write(key, raw); err != nil {
			t.Fatalf("tear %s on replica %d: %v", key, i, err)
		}
	}
}

// ackManual runs an injection through the host's full control-plane path
// on a host without a scheduler loop: once the injection is applied, it
// steps the tenant one frame so the commit barrier releases the ack.
func ackManual(t *testing.T, h *Host, ten *Tenant, inj Injection) AckedInjection {
	t.Helper()
	ten.mu.Lock()
	ord := ten.injSeq
	ten.mu.Unlock()
	type ack struct {
		applied int64
		err     error
	}
	acked := make(chan ack, 1)
	go func() {
		applied, err := h.Inject(ten.ID(), inj)
		acked <- ack{applied, err}
	}()
	waitFor(t, "injection applied", func() bool {
		ten.mu.Lock()
		defer ten.mu.Unlock()
		return ten.injSeq > ord
	})
	ten.stepBatch(1)
	a := <-acked
	if a.err != nil {
		t.Fatalf("inject %s: %v", ten.ID(), a.err)
	}
	return AckedInjection{Inj: inj, Applied: a.applied}
}

// TestRecoverParallelRebuild drives the parallel rebuild with more tenants
// than twice the worker count, covering every fate a tenant can meet:
// completed, running, re-quarantined, damage-quarantined, and dropped for a
// lost spawn record or a spec that no longer builds. The fates interleave in
// spawn order and tenant ids do not sort in spawn order, so the report, the
// listing and every replayed tenant's bytes must come out exactly as a
// serial rebuild would give them.
func TestRecoverParallelRebuild(t *testing.T) {
	fates := []string{"completed", "running", "requarantined", "damaged", "lost", "retired"}
	perFate := max(2, (2*runtime.GOMAXPROCS(0)+2+len(fates)-1)/len(fates))
	media := []stable.Medium{stable.NewMemMedium(), stable.NewMemMedium()}
	h := manualHost(t, memConfig(media))

	want := &Recovery{Running: perFate, Completed: perFate}
	var order []string // spawn order of the tenants recovery keeps
	var torn, lost []string
	acks := make(map[string][]AckedInjection)
	for i := 0; i < perFate*len(fates); i++ {
		fate := fates[i%len(fates)]
		// Ids sort by fate, not by spawn order.
		id := fmt.Sprintf("%s-%02d", fate, i)
		if fate == "retired" {
			// A CRC-valid spawn record naming a preset this build lacks.
			if err := h.man.recordSpawn(h.spawnSeq, SpawnSpec{ID: id, Preset: "retired-preset", Seed: 1}, false); err != nil {
				t.Fatalf("record %s: %v", id, err)
			}
			h.spawnSeq++
			want.Dropped = append(want.Dropped, id)
			continue
		}
		ss := SpawnSpec{ID: id, Preset: "threeconfig", Seed: int64(500 + i)}
		if fate == "completed" {
			ss.Frames = 48
		}
		ten, err := h.Spawn(ss)
		if err != nil {
			t.Fatalf("spawn %s: %v", id, err)
		}
		ten.stepBatch(12 + i%5)
		acks[id] = append(acks[id], ackManual(t, h, ten, Injection{Kind: "env", Factor: "alt1", Value: "failed", RequestID: "req-" + id}))
		ten.stepBatch(8)
		switch fate {
		case "completed":
			ten.stepBatch(64)
		case "requarantined":
			if _, err := h.Inject(id, Injection{Kind: "panic"}); err != nil {
				t.Fatalf("arm %s: %v", id, err)
			}
			ten.stepBatch(1)
			want.Quarantined = append(want.Quarantined, id)
		case "damaged":
			torn = append(torn, id)
			want.Quarantined = append(want.Quarantined, id)
		case "lost":
			lost = append(lost, id)
			want.Dropped = append(want.Dropped, id)
			continue
		}
		want.Tenants++
		order = append(order, id)
	}
	// The crash: everything journaled so far survives, nothing else.
	h.checkpoint(true)
	for _, id := range torn {
		tearOnEveryReplica(t, media, injKey(id, 0))
	}
	for _, id := range lost {
		for _, m := range media {
			m.Delete(spawnKey(id))
		}
	}
	sort.Strings(want.Quarantined)
	sort.Strings(want.Dropped)

	h2, rec, err := Recover(memConfig(media))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer h2.Close()
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("recovery = %+v\nwant       %+v", rec, want)
	}
	var listed []string
	for _, st := range h2.List() {
		listed = append(listed, st.ID)
	}
	if !reflect.DeepEqual(listed, order) {
		t.Fatalf("List order = %v\nwant spawn order %v", listed, order)
	}

	for _, id := range order {
		ten, _ := h2.Get(id)
		switch st := ten.Status(); {
		case strings.HasPrefix(id, "damaged"):
			if st.State != StateQuarantined || !strings.Contains(st.Reason, "lost on all replicas") {
				t.Errorf("%s = %+v, want quarantined for its lost injection record", id, st)
			}
			continue
		case strings.HasPrefix(id, "running"):
			// Bring it to rest where the sweep has taken it since, so the
			// check covers the replayed prefix and the resumed run.
			inj := Injection{Kind: "panic"}
			applied, err := h2.Inject(id, inj)
			if err != nil {
				t.Fatalf("arm %s: %v", id, err)
			}
			acks[id] = append(acks[id], AckedInjection{Inj: inj, Applied: applied})
			waitFor(t, id+" at rest", func() bool { return ten.Status().State == StateQuarantined })
		}
		if err := CheckEquivalence(ten, acks[id]); err != nil {
			t.Errorf("after parallel rebuild: %v", err)
		}
	}
}

// TestRecoverDropsUnbuildableSpec: a CRC-valid spawn record whose preset
// this build does not have — one an older fleetd wrote — has nothing to
// respawn from. Recovery drops and reports it and leaves its keys alone,
// and the recovered host runs: the sweep's checkpoint barrier, List, Stats
// and Close never meet a tenant without a system.
func TestRecoverDropsUnbuildableSpec(t *testing.T) {
	dir := t.TempDir()
	h := manualHost(t, durableConfig(mountFileManifest(t, dir)))
	ten, err := h.Spawn(SpawnSpec{ID: "ok", Preset: "threeconfig", Seed: 6, Frames: 80})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	ten.stepBatch(8)
	h.checkpoint(true)
	retired := SpawnSpec{ID: "retired", Preset: "retired-preset", Seed: 7}
	if err := h.man.recordSpawn(h.spawnSeq, retired, false); err != nil {
		t.Fatalf("record retired spawn: %v", err)
	}

	h2, rec, err := Recover(durableConfig(mountFileManifest(t, dir)))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer h2.Close()
	// ok comes back running, so only checkpoint barriers after recovery
	// can record its completion.
	if !reflect.DeepEqual(rec, &Recovery{Tenants: 1, Running: 1, Dropped: []string{"retired"}}) {
		t.Fatalf("recovery = %+v, want ok running and retired dropped", rec)
	}
	healthy, _ := h2.Get("ok")
	waitFor(t, "ok completed and checkpointed", func() bool {
		healthy.mu.Lock()
		defer healthy.mu.Unlock()
		return healthy.state == StateCompleted && healthy.lastCkptState == StateCompleted
	})
	if list := h2.List(); len(list) != 1 || list[0].ID != "ok" {
		t.Fatalf("List = %+v, want only ok", list)
	}
	if st := h2.Stats(); st.Tenants[StateCompleted] != 1 || len(st.Tenants) != 1 {
		t.Fatalf("Stats tenants = %v, want one completed", st.Tenants)
	}
	h2.Close()

	var sr spawnRecord
	if found, err := mountFileManifest(t, dir).GetJSON(spawnKey("retired"), &sr); !found || err != nil || !reflect.DeepEqual(sr.Spec, retired) {
		t.Fatalf("retired spawn record after recovery = %+v (found %v, err %v), want it untouched", sr, found, err)
	}
}

// TestRecoverReusedIDDropsLeftoverRecords: a tenant Recover drops keeps its
// manifest records, but only until a spawn reuses its id. That spawn deletes
// them in its own commit, so the next recovery replays the new tenant from
// its own recipe, not the dropped tenant's injections. The spawn record is
// lost either way Recover can meet: deleted, or torn on every replica, which
// leaves a key no replica can read; deleting it must not latch the manifest.
func TestRecoverReusedIDDropsLeftoverRecords(t *testing.T) {
	for _, lose := range []string{"deleted", "torn"} {
		t.Run(lose, func(t *testing.T) {
			media := []stable.Medium{stable.NewMemMedium(), stable.NewMemMedium()}
			h := manualHost(t, memConfig(media))
			old, err := h.Spawn(SpawnSpec{ID: "x", Preset: "threeconfig", Seed: 1})
			if err != nil {
				t.Fatalf("spawn: %v", err)
			}
			// Two injections, so the dropped tenant leaves a record the new
			// tenant's single injection does not overwrite.
			old.stepBatch(20)
			ackManual(t, h, old, Injection{Kind: "env", Factor: "alt1", Value: "failed"})
			old.stepBatch(10)
			ackManual(t, h, old, Injection{Kind: "env", Factor: "alt1", Value: "ok"})
			if lose == "deleted" {
				for _, m := range media {
					m.Delete(spawnKey("x"))
				}
			} else {
				tearOnEveryReplica(t, media, spawnKey("x"))
			}

			h2, rec, err := Recover(memConfig(media))
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if !reflect.DeepEqual(rec.Dropped, []string{"x"}) {
				t.Fatalf("dropped = %v, want [x]", rec.Dropped)
			}
			x, err := h2.Spawn(SpawnSpec{ID: "x", Preset: "threeconfig", Seed: 2, Frames: 2000})
			if err != nil {
				t.Fatalf("respawn x: %v", err)
			}
			inj := Injection{Kind: "env", Factor: "alt1", Value: "failed"}
			applied, err := h2.Inject("x", inj)
			if err != nil {
				t.Fatalf("inject into new x: %v", err)
			}
			waitFor(t, "new x completed", func() bool { return x.Status().State == StateCompleted })
			h2.Drain()

			h3, rec3, err := Recover(memConfig(media))
			if err != nil {
				t.Fatalf("second Recover: %v", err)
			}
			defer h3.Close()
			if rec3.Tenants != 1 || len(rec3.Dropped) != 0 || len(rec3.Quarantined) != 0 {
				t.Fatalf("second recovery = %+v, want new x back and nothing dropped", rec3)
			}
			x3, ok := h3.Get("x")
			if !ok {
				t.Fatal("new x not recovered")
			}
			if err := CheckEquivalence(x3, []AckedInjection{{Inj: inj, Applied: applied}}); err != nil {
				t.Fatalf("recovered new x replays the dropped tenant's records: %v", err)
			}
		})
	}
}

// TestKillDamagedTenantDeletesLostRecords: killing a tenant Recover
// quarantined for an injection record lost on every replica deletes its
// whole range, the lost record included, without latching the manifest.
// Later spawns still journal, and the next recovery finds nothing of it.
func TestKillDamagedTenantDeletesLostRecords(t *testing.T) {
	media := []stable.Medium{stable.NewMemMedium(), stable.NewMemMedium()}
	h := manualHost(t, memConfig(media))
	x, err := h.Spawn(SpawnSpec{ID: "x", Preset: "threeconfig", Seed: 1})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	x.stepBatch(20)
	ackManual(t, h, x, Injection{Kind: "env", Factor: "alt1", Value: "failed"})
	tearOnEveryReplica(t, media, injKey("x", 0))

	h2, rec, err := Recover(memConfig(media))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer h2.Close()
	if !reflect.DeepEqual(rec.Quarantined, []string{"x"}) {
		t.Fatalf("quarantined = %v, want [x]", rec.Quarantined)
	}
	killed := make(chan error, 1)
	go func() { killed <- h2.Kill("x") }()
	select {
	case err := <-killed:
		if err != nil {
			t.Fatalf("kill x: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("kill x still blocked after 5s")
	}
	if _, err := h2.Spawn(SpawnSpec{ID: "y", Preset: "threeconfig", Seed: 2, Frames: 40}); err != nil {
		t.Fatalf("spawn after kill: %v", err)
	}
	h2.Drain()

	h3, rec3, err := Recover(memConfig(media))
	if err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	defer h3.Close()
	if rec3.Tenants != 1 || len(rec3.Dropped) != 0 || len(rec3.Quarantined) != 0 {
		t.Fatalf("second recovery = %+v, want only y and nothing of x", rec3)
	}
}
