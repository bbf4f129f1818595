// Package fleet hosts many concurrent reconfigurable systems — one
// core.System per tenant — behind a single long-running service: the
// production shape of the ROADMAP's "millions of users" claim, where every
// connected vehicle or tenant is its own frame-synchronous system.
//
// The host multiplexes tenants over a shared batched scheduler: a fixed pool
// of shard workers sweeps the running tenants each tick, stepping every
// tenant a batch of frames. A tenant's entire frame executes inside the
// shard worker's goroutine — which is what makes the isolation boundary
// work: a panicking application is caught by the worker's recover, the
// tenant is quarantined with its black box recoverable from committed
// stable storage, and the sweep moves on. A fail-stopped or panicked tenant
// never stalls the scheduler and never touches another tenant's state.
//
// A tenant holds its System exactly while it can still step. Once it
// completes, is quarantined, is killed or its host closes, it freezes the
// snapshot it serves from then on and releases the System: at rest, as
// after a fail-stop halt, only the black box remains.
//
// Determinism survives multiplexing because tenants share nothing: each
// system owns its environment, pool, telemetry and trace RNG (seeded from
// SpawnSpec.Seed), and control-plane injections are serialized with stepping
// by the per-tenant lock, applying between frames exactly like the scripted
// constructs they are defined to mirror (see internal/core/drive.go). A
// tenant stepped by the fleet therefore produces the byte-identical trace of
// the same-seed standalone run — the property the determinism test and the
// CI smoke job hold.
package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/envmon"
	"repro/internal/spec"
	"repro/internal/spectest"
	"repro/internal/stable"
	"repro/internal/telemetry"
	"repro/internal/telemetry/serve"
)

// SpawnSpec names everything needed to construct a tenant: a spec preset
// from the spectest registry, the determinism seed, and an optional frame
// budget. Equal SpawnSpecs produce byte-identically-traced tenants.
type SpawnSpec struct {
	// ID is the tenant identifier; empty lets the host assign one.
	ID string `json:"id,omitempty"`
	// Preset is the named specification preset (spectest.Lookup).
	Preset string `json:"preset"`
	// Seed drives the tenant's trace RNG; equal seeds give equal runs.
	Seed int64 `json:"seed"`
	// Frames caps the tenant's run: after this many frames it completes
	// and stops stepping (still queryable). Zero runs until killed.
	Frames int64 `json:"frames,omitempty"`
	// Script is an optional deterministic environment schedule, applied
	// exactly like a standalone run's scripted events. Runtime injections
	// land on top of (and interleave with) the script.
	Script []envmon.Event `json:"script,omitempty"`
	// RetainFrames bounds the tenant's journal and trace to a sliding
	// window of frames (core.Options.RetainFrames): the weeks-long-run
	// mode, flat memory and stable-store footprint per tenant. Zero
	// inherits the host's Config.RetainFrames default; negative forces
	// unbounded retention on a host with a default. The resolved value is
	// part of the spec (and of the durable manifest): trimming is
	// deterministic, so replays must trim identically.
	RetainFrames int64 `json:"retain_frames,omitempty"`
}

// retainFrames resolves the spec's retention against the host default.
func (ss SpawnSpec) retainFrames() int64 {
	if ss.RetainFrames < 0 {
		return 0
	}
	return ss.RetainFrames
}

// SpawnOptions resolves a SpawnSpec into the core.Options the fleet host
// runs it under. It is exported so a standalone re-execution (the
// determinism test, a post-incident replay) constructs the identical system
// the host did.
func SpawnOptions(ss SpawnSpec) (core.Options, error) {
	preset, err := spectest.Lookup(ss.Preset)
	if err != nil {
		return core.Options{}, err
	}
	rs := preset.New()
	return core.Options{
		Spec:           rs,
		Apps:           core.BasicApps(rs),
		Classifier:     preset.Classifier,
		InitialFactors: preset.Factors(),
		Script:         ss.Script,
		TraceSeed:      ss.Seed,
		RetainFrames:   ss.retainFrames(),
	}, nil
}

// State is a tenant's lifecycle state.
type State string

const (
	// StateRunning tenants are stepped by the shard sweep.
	StateRunning State = "running"
	// StateCompleted tenants reached their frame budget; they are no
	// longer stepped but stay fully queryable.
	StateCompleted State = "completed"
	// StateQuarantined tenants panicked or failed a step; they are
	// isolated from the sweep and serve their post-mortem black box.
	StateQuarantined State = "quarantined"
)

// killedReason is the quarantine reason Kill records.
const killedReason = "killed"

// Tenant is one hosted system. All access to the underlying System is
// serialized by mu: the shard worker holds it while stepping, the control
// plane holds it while injecting or snapshotting, so injections always land
// between frames. The System is held only while the tenant can step; a
// tenant at rest (completed, quarantined, killed, or on a closed host)
// serves the snapshot it froze when it let the System go, or, parked by
// Recover, the one its first read rebuilds.
type Tenant struct {
	id   string
	spec SpawnSpec

	mu sync.Mutex
	// sys is the live system, held exactly while the tenant can still
	// step; nil once the tenant is at rest (see restLocked).
	sys    *core.System
	state  State
	reason string
	// cond (on mu) is the frame barrier: stepBatch broadcasts after every
	// batch and every lifecycle transition, and Inject waits on it until
	// the injected frame has committed — the applied_frame ack is never
	// issued for a frame the tenant did not execute.
	cond *sync.Cond
	// injSeq orders injections within the tenant: assigned under mu at
	// apply time, it is the replay order journaled in the manifest.
	injSeq int64
	// panicAt arms a chaos panic: stepBatch panics before executing this
	// frame (0 disarms). Deterministic, so a recovered tenant re-armed
	// with the same frame re-quarantines identically.
	panicAt int64
	// final is the snapshot a tenant at rest serves, frozen when it
	// released its System. Its Events and Metrics are fresh copies that
	// nothing mutates, so readers share them.
	final serve.Snapshot
	// parked is the recipe of a tenant Recover brought back at rest without
	// replaying it; final holds only its frame until the first
	// TelemetrySnapshot rebuilds the rest. Nil once built, and cleared by
	// restLocked, so a build that finishes after a kill is discarded.
	parked *parking
	// lastCkptFrame/lastCkptState track what the manifest already has, so
	// the checkpoint sweep only stages tenants that moved.
	lastCkptFrame int64
	lastCkptState State

	frameLen time.Duration
}

// newTenant wraps a freshly built System as a running tenant.
func newTenant(ss SpawnSpec, sys *core.System, frameLen time.Duration) *Tenant {
	t := &Tenant{id: ss.ID, spec: ss, sys: sys, state: StateRunning, frameLen: frameLen}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// frameLocked is the next frame the tenant would execute: the live
// system's, or the frame it came to rest at. Callers hold mu.
func (t *Tenant) frameLocked() int64 {
	if t.sys == nil {
		return t.final.Frame
	}
	return t.sys.Frame()
}

// restLocked brings the tenant to rest: it serves final from now on, closes
// and drops its System, and wakes injection barriers. Callers hold mu.
func (t *Tenant) restLocked(final serve.Snapshot) {
	t.final = final
	t.parked = nil
	if t.sys != nil {
		t.sys.Close()
		t.sys = nil
	}
	t.cond.Broadcast()
}

// Status is a tenant's control-plane view.
type Status struct {
	ID     string `json:"id"`
	Preset string `json:"preset"`
	Seed   int64  `json:"seed"`
	State  State  `json:"state"`
	Frame  int64  `json:"frame"`
	// Frames is the frame budget (0 = unbounded).
	Frames int64 `json:"frames,omitempty"`
	// Reason is why the tenant was quarantined, when it was.
	Reason string `json:"reason,omitempty"`
}

// ID returns the tenant identifier.
func (t *Tenant) ID() string { return t.id }

// Status returns the tenant's current control-plane view.
func (t *Tenant) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Status{
		ID:     t.id,
		Preset: t.spec.Preset,
		Seed:   t.spec.Seed,
		State:  t.state,
		Frame:  t.frameLocked(),
		Frames: t.spec.Frames,
		Reason: t.reason,
	}
}

// TelemetrySnapshot implements serve.Source: the per-tenant telemetry plane
// (metrics, journal, traces) reads through here. A running tenant snapshots
// its live system under the tenant lock — consistent because stepping holds
// the same lock; a tenant at rest serves the snapshot it froze. A parked
// tenant's first read rebuilds that snapshot by replay, outside the lock,
// so the sweep, the checkpoint barrier and listings never wait on it.
func (t *Tenant) TelemetrySnapshot() (serve.Snapshot, bool) {
	t.mu.Lock()
	p := t.parked
	if p == nil {
		defer t.mu.Unlock()
		if t.sys == nil {
			return t.final, true
		}
		return t.liveSnapshotLocked(), true
	}
	t.mu.Unlock()
	built := p.build()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.parked == p {
		// As in an eager Recover: damage the replay found quarantines the
		// tenant and clears its checkpoint marks, so the next barrier
		// journals the quarantine.
		t.parked = nil
		t.state, t.reason, t.final = built.state, built.reason, built.final
		t.lastCkptFrame, t.lastCkptState = built.lastCkptFrame, built.lastCkptState
	}
	return t.final, true
}

// liveSnapshotLocked snapshots the live system's telemetry at the current
// frame boundary. Callers hold mu.
func (t *Tenant) liveSnapshotLocked() serve.Snapshot {
	snap := serve.Snapshot{Frame: t.sys.Frame(), FrameLen: t.frameLen}
	if reg, rec := t.sys.Telemetry(); reg != nil {
		snap.Metrics, snap.Events = reg.Snapshot(), rec.Events()
	}
	return snap
}

// Injection is one control-plane fault injection. Kind selects the variant:
//
//   - "env": set environment factor Factor to Value (visible next frame,
//     like a scripted event at the applied frame);
//   - "procfail"/"procrepair": schedule a processor event at Frame
//     (defaulting to the earliest frame that can still apply);
//   - "storage": halt processor Proc with an unrecoverable storage fault;
//   - "panic": arm a deterministic tenant panic at Frame (default: the next
//     frame) — the shard worker's recover quarantines the tenant exactly as
//     a real application panic would. The chaos harness's tenant-level
//     fault.
type Injection struct {
	Kind   string `json:"kind"`
	Factor string `json:"factor,omitempty"`
	Value  string `json:"value,omitempty"`
	Proc   string `json:"proc,omitempty"`
	Frame  int64  `json:"frame,omitempty"`
	// RequestID is the client's idempotency key: the host dedupes repeated
	// requests with the same (tenant, RequestID), replaying the first
	// outcome instead of applying twice. It is journaled with the ack, so
	// dedupe survives a host restart.
	RequestID string `json:"request_id,omitempty"`
}

// Inject applies an injection between frames, waits for the applied frame's
// commit barrier, and returns the frame at which the injection took effect —
// the frame a scripted standalone replay would use to reproduce the run. By
// the time Inject returns nil, that frame has committed (or provably never
// will), so the ack is a faithful replay recipe. A tenant that is not
// running refuses the injection; one that is quarantined or killed, or
// whose host closes, before the frame commits fails the barrier instead.
func (t *Tenant) Inject(inj Injection) (int64, error) {
	_, applied, err := t.inject(inj)
	return applied, err
}

// inject is Inject plus the tenant-local ord — the apply order the host
// journals so recovery replays injections in the order they landed.
func (t *Tenant) inject(inj Injection) (ord, applied int64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ord, applied, err = t.applyLocked(inj)
	if err != nil {
		return 0, 0, err
	}
	if inj.Kind == "panic" {
		// The armed frame never commits — a frame barrier would deadlock.
		// The ack means "armed"; replay re-arms the same frame and the
		// tenant re-quarantines identically.
		return ord, applied, nil
	}
	if err := t.awaitAppliedLocked(applied); err != nil {
		return 0, 0, err
	}
	return ord, applied, nil
}

// applyLocked applies one injection between frames and assigns its ord.
// Callers hold mu.
func (t *Tenant) applyLocked(inj Injection) (ord, applied int64, err error) {
	switch {
	case t.state != StateRunning:
		return 0, 0, fmt.Errorf("fleet: tenant %s is %s, %w", t.id, t.state, errNotRunning)
	case t.sys == nil:
		return 0, 0, fmt.Errorf("fleet: tenant %s: %w", t.id, errHostClosed)
	}
	next := t.sys.Frame()
	switch inj.Kind {
	case "env":
		if inj.Factor == "" {
			return 0, 0, errors.New("fleet: env injection needs a factor")
		}
		t.sys.InjectFactor(envmon.Factor(inj.Factor), inj.Value)
		applied = next
	case "procfail", "procrepair":
		kind := core.ProcFail
		frame := inj.Frame
		if inj.Kind == "procrepair" {
			kind = core.ProcRepair
			if frame == 0 {
				frame = next + 1
			}
		} else if frame == 0 {
			frame = next
		}
		ev := core.ProcEvent{Frame: frame, Proc: spec.ProcID(inj.Proc), Kind: kind}
		if err := t.sys.ScheduleProcEvent(ev); err != nil {
			return 0, 0, err
		}
		applied = ev.Frame
	case "storage":
		if err := t.sys.InjectStorageFault(spec.ProcID(inj.Proc)); err != nil {
			return 0, 0, err
		}
		applied = next
	case "panic":
		frame := inj.Frame
		if frame == 0 {
			frame = next
		}
		if frame < next {
			return 0, 0, fmt.Errorf("fleet: panic at frame %d is in the past (next frame %d)", frame, next)
		}
		t.panicAt = frame
		applied = frame
	default:
		return 0, 0, fmt.Errorf("fleet: unknown injection kind %q (want env, procfail, procrepair, storage or panic)", inj.Kind)
	}
	ord = t.injSeq
	t.injSeq++
	return ord, applied, nil
}

// awaitAppliedLocked is the commit barrier behind every applied_frame ack: it
// blocks (releasing mu via the cond) until the tenant has stepped past the
// applied frame or come to rest. A tenant that completed at or before the
// applied frame acks fine — the injection is a no-op there and in any
// replay, which is still equivalence. A tenant quarantined before the frame
// committed fails the barrier: the frame's effects died with the panic, so
// acking it would hand the client a replay recipe the real run never
// executed. A killed tenant fails it too, since its manifest range is gone,
// and so does a running tenant whose host closed before the frame ran.
// Callers hold mu.
func (t *Tenant) awaitAppliedLocked(applied int64) error {
	for t.sys != nil && t.sys.Frame() <= applied {
		t.cond.Wait()
	}
	switch {
	case t.state == StateQuarantined && (t.reason == killedReason || t.frameLocked() <= applied):
		return fmt.Errorf("fleet: tenant %s quarantined before frame %d committed (%s): %w", t.id, applied, t.reason, errNotRunning)
	case t.state == StateRunning && t.frameLocked() <= applied:
		return fmt.Errorf("fleet: tenant %s: %w before frame %d committed", t.id, errHostClosed, applied)
	}
	return nil
}

// stepBatch advances a running tenant up to n frames, enforcing the frame
// budget and converting panics and step errors into quarantine. It returns
// the number of frames actually stepped.
func (t *Tenant) stepBatch(n int) (stepped int64) {
	t.mu.Lock()
	// The isolation boundary: a panic anywhere under Step — an application
	// bug, a hook, the kernel, an armed chaos panic — quarantines this
	// tenant and returns the shard worker to the sweep. A System runs its
	// whole frame in the caller's goroutine, so the panic surfaces here.
	// A tenant that completed in this batch comes to rest here too. The
	// broadcast wakes injection barriers after every batch.
	defer func() {
		if r := recover(); r != nil {
			t.quarantineLocked(fmt.Sprintf("panic: %v", r))
		}
		if t.state == StateCompleted && t.sys != nil {
			t.restLocked(t.liveSnapshotLocked())
		}
		t.cond.Broadcast()
		t.mu.Unlock()
	}()
	if t.sys == nil {
		return 0
	}
	for i := 0; i < n; i++ {
		if t.spec.Frames > 0 && t.sys.Frame() >= t.spec.Frames {
			t.state = StateCompleted
			return stepped
		}
		if t.panicAt > 0 && t.sys.Frame() >= t.panicAt {
			// Injected chaos panic: deterministic (fires at a fixed frame
			// boundary), so a recovered tenant re-armed with the same frame
			// quarantines byte-identically.
			panic(fmt.Sprintf("injected chaos panic at frame %d", t.sys.Frame()))
		}
		if err := t.sys.Step(); err != nil {
			t.quarantineLocked("step error: " + err.Error())
			return stepped
		}
		stepped++
	}
	if t.spec.Frames > 0 && t.sys.Frame() >= t.spec.Frames {
		t.state = StateCompleted
	}
	return stepped
}

// postMortemLocked builds a quarantined tenant's snapshot. The events come
// from the black box — the journal recovered from the SCRAM host's committed
// stable storage, trailing the halt by at most one frame — not from the live
// ring, whose in-memory state a panic may have torn. Deterministic: the same
// committed storage yields the same snapshot, so a recovered quarantine
// serves what the live one did. Callers hold mu.
func (t *Tenant) postMortemLocked() serve.Snapshot {
	snap := serve.Snapshot{Frame: t.sys.Frame(), FrameLen: t.frameLen}
	if reg, _ := t.sys.Telemetry(); reg != nil {
		snap.Metrics = reg.Snapshot()
	}
	if stable, err := t.sys.Pool().PollStable(t.sys.SCRAMProc()); err == nil {
		if ring, err := telemetry.RecoverRing(stable); err == nil {
			snap.Events = ring
		}
	}
	return snap
}

// quarantineLocked isolates the tenant and brings it to rest on its
// post-mortem snapshot, so the serve plane never touches the possibly-torn
// live system again. Callers hold mu.
func (t *Tenant) quarantineLocked(reason string) {
	t.state = StateQuarantined
	t.reason = reason
	t.restLocked(t.postMortemLocked())
}

// Config sizes the host's shared scheduler and, when Manifest is set, makes
// the host durable.
type Config struct {
	// Shards is the number of worker goroutines sweeping the fleet
	// (default: GOMAXPROCS). Recover does not use it: it rebuilds tenants
	// before the sweep starts, on every core, whatever Shards is.
	Shards int
	// Batch is the number of frames each tenant is stepped per sweep
	// (default 8). Larger batches amortize sweep overhead; smaller ones
	// bound control-plane injection latency in frames.
	Batch int
	// Manifest, when set, journals every spawn, acked injection and kill to
	// this store — the host's own black box. Recover rebuilds the fleet
	// from it after a crash: running tenants replay to their pre-crash
	// frame, and tenants at rest come back parked, replayed on first read.
	// Nil keeps the host purely in-memory (the pre-durability behavior).
	Manifest *stable.Store
	// CheckpointEvery is the per-tenant checkpoint cadence in frames
	// (default 64): once a tenant advances this far past its last
	// checkpoint, the next sweep journals its progress. Checkpoints bound
	// the progress a crash loses, not a running tenant's replay cost: it
	// replays from frame zero either way, because the journal is
	// deterministic.
	CheckpointEvery int64
	// RetainFrames is the retention horizon inherited by tenants whose spec
	// leaves RetainFrames zero. See SpawnSpec.RetainFrames.
	RetainFrames int64
}

// dedupeEntry is one idempotency-cache slot: duplicates of an in-flight
// request wait on done, then replay the recorded outcome.
type dedupeEntry struct {
	done    chan struct{}
	applied int64
	err     error
}

// dedupeCap bounds the idempotency cache; oldest entries evict first. A
// request replayed after falling out of the window re-executes, which is
// safe: equal injections at equal frames are idempotent, and the manifest
// holds the authoritative record.
const dedupeCap = 4096

// Host runs the fleet: a tenant registry plus the shared batched scheduler.
type Host struct {
	cfg Config
	man *manifest // nil when the host is not durable

	mu       sync.Mutex
	tenants  map[string]*Tenant
	order    []string // spawn order, for deterministic listings
	nextID   int64
	spawnSeq int64 // next spawn sequence number (manifest ordering)
	// leftover holds the ids Recover dropped whose records it left in the
	// manifest. A spawn that reuses one deletes them in its own commit.
	leftover map[string]bool

	frames   atomic.Int64 // total frames stepped across all tenants
	draining atomic.Bool  // set by Drain/Close: control plane refuses mutations

	// dmu guards the injection idempotency cache. Never held together with
	// h.mu or a tenant lock.
	dmu    sync.Mutex
	dedupe map[string]*dedupeEntry
	dorder []string // insertion order, for bounded eviction

	stopOnce sync.Once
	wake     chan struct{}
	stop     chan struct{}
	done     chan struct{}
}

// NewHost starts a fleet host and its scheduler loop. Close shuts it down.
// A Config with a Manifest store makes the host durable; use Recover instead
// of NewHost to also rebuild a pre-crash fleet from that store.
func NewHost(cfg Config) *Host {
	h := newHostNoLoop(cfg)
	h.startLoop()
	return h
}

// newHostNoLoop builds the host without starting the scheduler, so Recover
// can replay tenants before the sweep begins stepping them.
func newHostNoLoop(cfg Config) *Host {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 8
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 64
	}
	return &Host{
		cfg:     cfg,
		man:     newManifest(cfg.Manifest),
		tenants: make(map[string]*Tenant),
		dedupe:  make(map[string]*dedupeEntry),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

func (h *Host) startLoop() {
	//lint:allow nofreegoroutine audited scheduler loop: sweeps tenants in shard workers and is joined by Close
	go h.run()
}

// stopLoop halts the scheduler exactly once and waits for it to exit.
func (h *Host) stopLoop() {
	h.stopOnce.Do(func() { close(h.stop) })
	<-h.done
}

// Close stops the scheduler and brings every running tenant to rest. Unlike
// Drain it journals nothing extra: recovery falls back to the last periodic
// checkpoint, exactly as after a crash.
func (h *Host) Close() {
	h.draining.Store(true)
	h.stopLoop()
	h.closeTenants()
}

// Drain is the graceful shutdown of a durable host: it halts the scheduler,
// journals a final checkpoint for every tenant — the manifest-commit barrier
// a SIGTERM'd fleetd waits on before exiting — then brings running tenants
// to rest. A recovered fleet resumes from exactly the drained frames, losing
// nothing.
func (h *Host) Drain() {
	h.draining.Store(true)
	h.stopLoop()
	h.checkpoint(true)
	h.closeTenants()
}

// closeTenants brings every tenant still holding a System to rest on its
// live snapshot. They keep reporting running; injection barriers waiting on
// them fail.
func (h *Host) closeTenants() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, t := range h.tenants {
		t.mu.Lock()
		if t.sys != nil {
			t.restLocked(t.liveSnapshotLocked())
		}
		t.mu.Unlock()
	}
}

// Draining reports whether the host is shutting down (control-plane
// mutations are refused).
func (h *Host) Draining() bool { return h.draining.Load() }

// Spawn constructs a tenant from a SpawnSpec and registers it with the
// scheduler. The system is built synchronously (including the static
// obligations check), so a Spawn that returns nil error is a live tenant —
// and, on a durable host, a journaled one: the manifest records the spawn
// before the tenant becomes visible, so no acked spawn is ever lost.
func (h *Host) Spawn(ss SpawnSpec) (*Tenant, error) {
	if ss.ID != "" {
		if err := ValidateTenantID(ss.ID); err != nil {
			return nil, err
		}
	}
	if ss.RetainFrames == 0 {
		// Resolve the host default into the spec before journaling: replay
		// must trim identically to the live run, so the manifest records
		// the resolved retention, not the host it happened to run on.
		ss.RetainFrames = h.cfg.RetainFrames
	}
	opts, err := SpawnOptions(ss)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(opts)
	if err != nil {
		return nil, fmt.Errorf("fleet: spawning tenant: %w", err)
	}

	h.mu.Lock()
	id := ss.ID
	if id == "" {
		for {
			h.nextID++
			id = fmt.Sprintf("t-%d", h.nextID)
			if _, taken := h.tenants[id]; !taken {
				break
			}
		}
	} else if _, taken := h.tenants[id]; taken {
		h.mu.Unlock()
		sys.Close()
		return nil, fmt.Errorf("fleet: tenant %q: %w", id, errTenantExists)
	}
	ss.ID = id
	seq := h.spawnSeq
	if err := h.man.recordSpawn(seq, ss, h.leftover[id]); err != nil {
		h.mu.Unlock()
		sys.Close()
		return nil, fmt.Errorf("fleet: journaling spawn: %w", err)
	}
	delete(h.leftover, id)
	h.spawnSeq++
	t := newTenant(ss, sys, opts.Spec.FrameLen)
	h.tenants[id] = t
	h.order = append(h.order, id)
	h.mu.Unlock()

	select {
	case h.wake <- struct{}{}:
	default:
	}
	return t, nil
}

// Get returns a tenant by id.
func (h *Host) Get(id string) (*Tenant, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t, ok := h.tenants[id]
	return t, ok
}

// Kill removes a tenant and releases its system. Its telemetry is gone with
// it: killing is the explicit discard, quarantine the recoverable one. On a
// durable host the tenant's whole manifest range is deleted in one commit —
// a recovered fleet never resurrects a killed tenant, and the manifest's
// footprint stays bounded by the live fleet.
func (h *Host) Kill(id string) error {
	h.mu.Lock()
	t, ok := h.tenants[id]
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("fleet: tenant %q: %w", id, errNoTenant)
	}
	delete(h.tenants, id)
	for i, oid := range h.order {
		if oid == id {
			h.order = append(h.order[:i], h.order[i+1:]...)
			break
		}
	}
	h.mu.Unlock()

	// Take the tenant lock so a shard worker mid-batch finishes its frame
	// before the system is closed under it. The snapshot keeps only the
	// frame, which Status goes on reporting.
	t.mu.Lock()
	t.state = StateQuarantined
	t.reason = killedReason
	t.restLocked(serve.Snapshot{Frame: t.frameLocked()})
	t.mu.Unlock()

	if err := h.man.removeTenant(id); err != nil {
		return fmt.Errorf("fleet: journaling kill: %w", err)
	}
	return nil
}

// Inject routes an injection to a tenant with the full control-plane
// contract: request-ID idempotency, the applied-frame commit barrier, and —
// on a durable host — journaling before the ack, so every acked injection is
// in the replay recipe. Unacked injections may be lost with a crash:
// at-most-once, never silently divergent.
func (h *Host) Inject(id string, inj Injection) (int64, error) {
	t, ok := h.Get(id)
	if !ok {
		return 0, fmt.Errorf("fleet: tenant %q: %w", id, errNoTenant)
	}
	var entry *dedupeEntry
	if inj.RequestID != "" {
		var primary bool
		entry, primary = h.claimRequest(id, inj.RequestID)
		if !primary {
			// Duplicate request: wait out the primary and replay its
			// outcome — same applied frame or same error, never a second
			// application.
			<-entry.done
			return entry.applied, entry.err
		}
	}
	applied, err := h.injectPrimary(t, inj)
	if entry != nil {
		entry.applied, entry.err = applied, err
		close(entry.done)
	}
	return applied, err
}

func (h *Host) injectPrimary(t *Tenant, inj Injection) (int64, error) {
	ord, applied, err := t.inject(inj)
	if err != nil {
		return 0, err
	}
	// The frame committed; journal before acking. A manifest failure fails
	// the ack — the client sees the error instead of holding a replay
	// recipe the recovered fleet would not honor.
	rec := injRecord{Ord: ord, Inj: inj, Applied: applied, RequestID: inj.RequestID}
	if err := h.man.recordInjection(t.id, rec); err != nil {
		return 0, fmt.Errorf("fleet: journaling injection: %w", err)
	}
	return applied, nil
}

// claimRequest registers an idempotency key, returning the cache entry and
// whether the caller is the primary (first claimant, responsible for filling
// the entry and closing done).
func (h *Host) claimRequest(tenantID, requestID string) (*dedupeEntry, bool) {
	return h.dedupeInsert(tenantID, requestID, &dedupeEntry{done: make(chan struct{})})
}

// primeDedupe seeds the idempotency cache with a recovered injection's
// outcome, so a client retrying across the crash gets its pre-crash ack
// replayed instead of a double application.
func (h *Host) primeDedupe(tenantID, requestID string, applied int64) {
	if requestID == "" {
		return
	}
	e := &dedupeEntry{done: make(chan struct{}), applied: applied}
	close(e.done)
	h.dedupeInsert(tenantID, requestID, e)
}

// dedupeInsert caches e under the idempotency key unless the key is already
// cached, and returns the cached entry and whether it is e. The cache is
// bounded: past dedupeCap keys the oldest is evicted.
func (h *Host) dedupeInsert(tenantID, requestID string, e *dedupeEntry) (*dedupeEntry, bool) {
	key := tenantID + "\x00" + requestID
	h.dmu.Lock()
	defer h.dmu.Unlock()
	if old, ok := h.dedupe[key]; ok {
		return old, false
	}
	h.dedupe[key] = e
	h.dorder = append(h.dorder, key)
	for len(h.dorder) > dedupeCap {
		delete(h.dedupe, h.dorder[0])
		h.dorder = h.dorder[1:]
	}
	return e, true
}

// checkpoint journals the progress of every tenant that moved since its last
// checkpoint; force (the drain path) stages all of them regardless of
// cadence. One batched commit per sweep keeps the stable-store traffic
// bounded by the live fleet, not the frame rate.
func (h *Host) checkpoint(force bool) {
	if h.man == nil {
		return
	}
	cks := make(map[string]ckptRecord)
	for _, t := range h.ordered() {
		t.mu.Lock()
		if t.reason == killedReason {
			// Kill deletes the tenant's manifest range.
			t.mu.Unlock()
			continue
		}
		frame := t.frameLocked()
		moved := frame != t.lastCkptFrame || t.state != t.lastCkptState
		due := force || t.state != t.lastCkptState || frame-t.lastCkptFrame >= h.cfg.CheckpointEvery
		if moved && due {
			cks[t.id] = ckptRecord{Frame: frame, State: t.state, Reason: t.reason}
			t.lastCkptFrame, t.lastCkptState = frame, t.state
		}
		t.mu.Unlock()
	}
	// Best-effort: a failed checkpoint commit costs recovery progress, not
	// correctness, and the manifest latches the fault for the next mutation.
	_ = h.man.recordCheckpoints(cks)
}

// ordered returns the registered tenants in spawn order.
func (h *Host) ordered() []*Tenant {
	h.mu.Lock()
	defer h.mu.Unlock()
	tenants := make([]*Tenant, 0, len(h.order))
	for _, id := range h.order {
		tenants = append(tenants, h.tenants[id])
	}
	return tenants
}

// List returns every tenant's status in spawn order.
func (h *Host) List() []Status {
	tenants := h.ordered()
	out := make([]Status, 0, len(tenants))
	for _, t := range tenants {
		out = append(out, t.Status())
	}
	return out
}

// Stats is the host's aggregate accounting.
type Stats struct {
	// Tenants counts registered tenants by state.
	Tenants map[State]int `json:"tenants"`
	// FramesStepped is the total frames executed across all tenants.
	FramesStepped int64 `json:"frames_stepped"`
	// Shards and Batch echo the scheduler configuration.
	Shards int `json:"shards"`
	Batch  int `json:"batch"`
	// Durable reports whether the host journals to a manifest store.
	Durable bool `json:"durable"`
	// QuarantineCached counts quarantined tenants holding their post-mortem
	// snapshot in memory: every one but those Recover parked, until their
	// first read builds it.
	QuarantineCached int `json:"quarantine_cached"`
	// Draining reports a host refusing control-plane mutations on its way
	// down.
	Draining bool `json:"draining,omitempty"`
}

// Stats returns the host's aggregate counters.
func (h *Host) Stats() Stats {
	st := Stats{
		Tenants:  make(map[State]int),
		Shards:   h.cfg.Shards,
		Batch:    h.cfg.Batch,
		Durable:  h.man != nil,
		Draining: h.draining.Load(),
	}
	for _, t := range h.ordered() {
		t.mu.Lock()
		st.Tenants[t.state]++
		if t.state == StateQuarantined && t.parked == nil {
			st.QuarantineCached++
		}
		t.mu.Unlock()
	}
	st.FramesStepped = h.frames.Load()
	return st
}

// FramesStepped returns the total frames executed across all tenants.
func (h *Host) FramesStepped() int64 { return h.frames.Load() }

// run is the scheduler loop: each tick snapshots the running tenants and
// sweeps them with the shard workers, every tenant advancing Batch frames.
// The barrier between ticks keeps the sweep fair — a tenant can't hog a
// shard for more than one batch while others wait.
func (h *Host) run() {
	defer close(h.done)
	for {
		select {
		case <-h.stop:
			return
		default:
		}
		batch := h.running()
		if len(batch) == 0 {
			// Idle: wait for a spawn (wake), shutdown, or a short poll
			// tick (a tenant un-idles only via spawn, so the poll is
			// just a safety net).
			select {
			case <-h.stop:
				return
			case <-h.wake:
			case <-time.After(5 * time.Millisecond):
			}
			continue
		}
		forEach(len(batch), h.cfg.Shards, func(i int) {
			h.frames.Add(batch[i].stepBatch(h.cfg.Batch))
		})
		// The sweep barrier is also the checkpoint barrier: no tenant is
		// mid-frame here, so every journaled frame is a committed boundary.
		h.checkpoint(false)
	}
}

// forEach calls fn(i) for every i in [0, n) on at most workers goroutines,
// each taking the next index from a shared counter, and returns once every
// call has returned. Callers give each index state no other index touches.
func forEach(n, workers int, fn func(i int)) {
	workers = min(workers, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		//lint:allow nofreegoroutine audited worker pool: each call runs disjoint indices (tenants) and is joined by the WaitGroup barrier before forEach returns
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// running snapshots the currently running tenants in spawn order.
func (h *Host) running() []*Tenant {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Tenant, 0, len(h.order))
	for _, id := range h.order {
		t := h.tenants[id]
		t.mu.Lock()
		run := t.state == StateRunning
		t.mu.Unlock()
		if run {
			out = append(out, t)
		}
	}
	return out
}

// Presets returns the spawnable preset names, sorted — the control plane's
// discovery surface.
func Presets() []string {
	names := spectest.Names()
	sort.Strings(names)
	return names
}
