package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/envmon"
	"repro/internal/spec"
	"repro/internal/telemetry/serve"
)

// This file is the host's crash-restart path. A fleet host is itself a
// fail-stop system: kill -9 loses everything staged in memory, but the
// manifest — committed to the CRC-checksummed replicated store — survives.
// Recover rebuilds the fleet from that manifest alone: each tenant is
// re-spawned from its journaled SpawnSpec and replayed through its acked
// injections to its last checkpointed frame. Tenants are deterministic, so
// the replay reproduces the pre-crash execution byte-identically — journal,
// trace chunks, metrics, post-mortem snapshots — which is exactly what the
// restart-equivalence checker (and the CI smoke job) asserts.
//
// A tenant whose checkpoint records it at rest never steps again, so Recover
// parks it instead: the checkpoint alone answers Status, and the replay runs
// on the first read of its telemetry. Recovery is thereby closed: a second
// Recover over the media the first one left, with nothing read in between,
// replays nothing and gives the same fleet.
//
// Failure handling is self-stabilizing: a tenant whose replay recipe is
// damaged (a record lost on every replica, an undecodable record, a replay
// that errors) is quarantined with the damage as its reason; a tenant whose
// spawn record is gone entirely, or whose spec no longer builds, is dropped
// and reported. No single tenant's damage stops any other tenant from
// recovering.

// Recovery reports what a Recover call rebuilt.
type Recovery struct {
	// Tenants is the number of tenants restored into the fleet, any state.
	Tenants int `json:"tenants"`
	// Running/Completed count tenants restored into those states.
	Running   int `json:"running"`
	Completed int `json:"completed"`
	// Quarantined lists tenants restored quarantined — either restored into
	// their pre-crash quarantine, or damaged beyond faithful replay. Damage
	// a parked tenant's replay finds shows only on its first read.
	Quarantined []string `json:"quarantined,omitempty"`
	// Dropped lists tenants (or foreign manifest keys) that could not be
	// restored at all: nothing to respawn from, because the spawn record is
	// lost or its spec no longer builds. Converged past, reported, sorted.
	// Their manifest keys stay until a spawn reuses the id, which deletes
	// them.
	Dropped []string `json:"dropped,omitempty"`
}

// Recover builds a host from a durable Config and rebuilds the pre-crash
// fleet out of cfg.Manifest before starting the scheduler. It is NewHost for
// a store that already has history; on a fresh store it degenerates to an
// empty durable host.
//
// Tenants share nothing, so their rebuilds run in parallel on every core
// (GOMAXPROCS, not cfg.Shards: nothing else on the host runs until Recover
// returns). Registration then runs in spawn order, so listings, the sweep
// and the dedupe cache see the fleet exactly as a serial rebuild would.
func Recover(cfg Config) (*Host, *Recovery, error) {
	return RecoverPrimed(cfg, nil)
}

// RecoverPrimed is Recover with prime, when non-nil, run on the recovered
// host before its sweep starts. No tenant steps until prime returns, so a
// tenant it spawns is still at frame 0 and a panic it arms always lands,
// however the scheduler would have raced it. prime must not wait on a frame
// barrier, which no frame would release: it may spawn, kill and arm panics,
// but an env, proc or storage injection would block forever.
func RecoverPrimed(cfg Config, prime func(*Host)) (*Host, *Recovery, error) {
	if cfg.Manifest == nil {
		return nil, nil, errors.New("fleet: Recover needs Config.Manifest")
	}
	manifests, dropped, err := loadManifest(cfg.Manifest)
	if err != nil {
		return nil, nil, err
	}
	h := newHostNoLoop(cfg)
	h.leftover = make(map[string]bool)
	rec := &Recovery{Dropped: dropped}

	// Seq order is spawn order: listings and the scheduler sweep see the
	// fleet in the same order the original host did.
	ids := make([]string, 0, len(manifests))
	for id := range manifests {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := manifests[ids[i]], manifests[ids[j]]
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return ids[i] < ids[j]
	})

	rebuilt := make([]*Tenant, len(ids))
	forEach(len(ids), runtime.GOMAXPROCS(0), func(i int) {
		rebuilt[i] = recoverTenant(manifests[ids[i]], true)
	})

	maxSeq := int64(-1)
	for i, id := range ids {
		tm := manifests[id]
		// A dropped tenant's keys stay in the manifest, so its seq stays
		// taken: later spawns must not reorder the next recovery.
		maxSeq = max(maxSeq, tm.Seq)
		t := rebuilt[i]
		if t == nil {
			rec.Dropped = append(rec.Dropped, id)
			continue
		}
		h.tenants[id] = t
		h.order = append(h.order, id)
		rec.Tenants++
		switch t.state {
		case StateRunning:
			rec.Running++
		case StateCompleted:
			rec.Completed++
		case StateQuarantined:
			rec.Quarantined = append(rec.Quarantined, id)
		}
		for _, ir := range tm.Injections {
			h.primeDedupe(id, ir.RequestID, ir.Applied)
		}
	}
	sort.Strings(rec.Quarantined)
	sort.Strings(rec.Dropped)
	// Entries naming foreign keys never match a spawn: ids hold no '/'.
	for _, id := range rec.Dropped {
		h.leftover[id] = true
	}
	h.spawnSeq = maxSeq + 1

	if prime != nil {
		prime(h)
	}
	h.startLoop()
	return h, rec, nil
}

// recoverTenant rebuilds one tenant from its manifest recipe, touching no
// other tenant and no host state, so rebuilds may run in parallel. With park
// set, a tenant the recipe leaves at rest is parked, its replay left to its
// first read; any other is replayed now. Damage becomes quarantine, so the
// rest of the fleet recovers regardless. A spec that no longer builds — a
// preset this build does not have — leaves nothing to respawn from:
// recoverTenant returns nil and the tenant is dropped. The returned tenant
// is not yet registered or stepped.
func recoverTenant(tm *tenantManifest, park bool) *Tenant {
	opts, err := SpawnOptions(tm.Spec)
	if err != nil {
		return nil
	}
	sys, err := core.NewSystem(opts)
	if err != nil {
		return nil
	}
	t := newTenant(tm.Spec, sys, opts.Spec.FrameLen)
	if park && tm.parks() {
		// The System was built only so that a spec which no longer builds
		// is dropped here, as by a replay, and not at the first read.
		t.state = tm.Ckpt.State
		if t.state == StateQuarantined {
			t.reason = tm.Ckpt.Reason
		}
		t.restLocked(serve.Snapshot{Frame: tm.Ckpt.Frame})
		t.parked = &parking{tm: tm}
		t.lastCkptFrame, t.lastCkptState = tm.Ckpt.Frame, tm.Ckpt.State
		t.injSeq = tm.nextOrd()
		return t
	}
	if tm.Damaged != "" {
		// Quarantined on the fresh, unstepped system, so the control plane
		// can report it like any other quarantined tenant.
		t.quarantineLocked("recovery: " + tm.Damaged)
		return t
	}
	if err := t.replay(tm); err != nil {
		t.quarantineLocked("recovery: " + err.Error())
		return t
	}
	// Replay landed; the checkpoint's lifecycle state (or the frame budget)
	// decides how the tenant rejoins the fleet.
	t.lastCkptFrame, t.lastCkptState = tm.Ckpt.Frame, tm.Ckpt.State
	switch {
	case tm.HasCkpt && tm.Ckpt.State == StateQuarantined:
		// The pre-crash quarantine, reproduced: same frame boundary, same
		// reason, and a post-mortem polled from the byte-identical
		// committed stable storage the replay rebuilt.
		t.quarantineLocked(tm.Ckpt.Reason)
	case tm.Spec.Frames > 0 && t.sys.Frame() >= tm.Spec.Frames:
		t.state = StateCompleted
		t.restLocked(t.liveSnapshotLocked())
	}
	return t
}

// parks reports whether the recipe leaves its tenant at rest exactly where
// its checkpoint says: undamaged, checkpointed completed or quarantined, at
// the frame its replay would run to. The checkpoint then holds all that
// Status reports, and the replay can wait for the first read.
func (tm *tenantManifest) parks() bool {
	if tm.Damaged != "" || !tm.HasCkpt || tm.replayTarget() != tm.Ckpt.Frame {
		return false
	}
	switch tm.Ckpt.State {
	case StateQuarantined:
		return true
	case StateCompleted:
		return tm.Spec.Frames > 0 && tm.Ckpt.Frame >= tm.Spec.Frames
	}
	return false
}

// parking holds a parked tenant's recipe. Its replay runs once, outside the
// tenant lock; every first reader waits on that one build.
type parking struct {
	tm    *tenantManifest
	once  sync.Once
	built *Tenant
}

// build returns the tenant the recipe's replay brings to rest, replaying
// it on the first call only.
func (p *parking) build() *Tenant {
	p.once.Do(p.rebuild)
	return p.built
}

// rebuild replays the recipe on a private tenant, as Recover would have.
func (p *parking) rebuild() {
	if p.built = recoverTenant(p.tm, false); p.built == nil {
		// Construction is deterministic and this spec built when Recover
		// parked the tenant; should it fail anyway, say so.
		p.built = &Tenant{state: StateQuarantined, reason: "recovery: spec no longer builds"}
	}
}

// replay re-executes the tenant's pre-crash run on its freshly spawned
// system: schedule the acked processor events up front (scheduling early is
// observably identical to scripting them), then walk the remaining acked
// injections in ord order, stepping to each one's applied frame before
// applying it. The final StepTo lands on replayTarget — every frame up to
// there re-executes with the same deterministic inputs as the first time.
func (t *Tenant) replay(tm *tenantManifest) (err error) {
	sys := t.sys
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("replay panicked: %v", r)
		}
	}()

	for _, ir := range tm.Injections {
		if ir.Inj.Kind != "procfail" && ir.Inj.Kind != "procrepair" {
			continue
		}
		kind := core.ProcFail
		if ir.Inj.Kind == "procrepair" {
			kind = core.ProcRepair
		}
		ev := core.ProcEvent{Frame: ir.Applied, Proc: spec.ProcID(ir.Inj.Proc), Kind: kind}
		if err := sys.ScheduleProcEvent(ev); err != nil {
			return fmt.Errorf("replaying injection %d: %w", ir.Ord, err)
		}
	}

	// Env and storage injections applied in ord order; their applied frames
	// are non-decreasing in ord (apply order is time order on a monotonic
	// frame counter), so StepTo never runs backward.
	for _, ir := range tm.Injections {
		switch ir.Inj.Kind {
		case "env":
			if err := sys.StepTo(ir.Applied); err != nil {
				return fmt.Errorf("replaying injection %d: %w", ir.Ord, err)
			}
			sys.InjectFactor(envmon.Factor(ir.Inj.Factor), ir.Inj.Value)
		case "storage":
			if err := sys.StepTo(ir.Applied); err != nil {
				return fmt.Errorf("replaying injection %d: %w", ir.Ord, err)
			}
			if err := sys.InjectStorageFault(spec.ProcID(ir.Inj.Proc)); err != nil {
				return fmt.Errorf("replaying injection %d: %w", ir.Ord, err)
			}
		case "panic":
			// Re-arm; the sweep re-fires it at the same frame.
			t.panicAt = ir.Applied
		}
	}
	target := tm.replayTarget()
	if err := sys.StepTo(target); err != nil {
		return fmt.Errorf("replaying to frame %d: %w", target, err)
	}
	t.injSeq = tm.nextOrd()
	return err
}

// nextOrd is the ord a recovered tenant's next injection takes: past
// everything journaled, so manifest keys stay unique across the restart.
func (tm *tenantManifest) nextOrd() int64 {
	if n := len(tm.Injections); n > 0 {
		return tm.Injections[n-1].Ord + 1
	}
	return 0
}

// replayTarget is the frame boundary replay runs a tenant to: its last
// checkpoint, or just past its last acked env or storage injection if that
// is later, capped at the frame budget. A non-panic ack means the applied
// frame committed before the crash, so the replay must cross it even if no
// checkpoint recorded it; an acked panic has no frame barrier.
func (tm *tenantManifest) replayTarget() int64 {
	target := int64(0)
	if tm.HasCkpt {
		target = tm.Ckpt.Frame
	}
	for _, ir := range tm.Injections {
		if (ir.Inj.Kind == "env" || ir.Inj.Kind == "storage") && ir.Applied+1 > target {
			target = ir.Applied + 1
		}
	}
	if tm.Spec.Frames > 0 && target > tm.Spec.Frames {
		target = tm.Spec.Frames
	}
	return target
}
