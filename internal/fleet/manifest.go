// The fleet manifest is the host's own black box: a CRC-checksummed,
// replicated stable store journaling everything needed to rebuild the fleet
// after the *process* dies — every SpawnSpec, every acked injection (the
// applied_frame ack is exactly the replay recipe), and a periodic per-tenant
// checkpoint of the frame reached. Tenants themselves are deterministic, so
// the manifest never stores tenant state: recovery re-spawns each tenant
// from its spec and replays its acked injections at their applied frames,
// reproducing the pre-crash execution byte-identically — at once for a
// running tenant, on the first read for one its checkpoint records at rest.
//
// Storage layout (all values JSON, all records CRC-framed by the stable
// layer underneath):
//
//	manifest/t/<id>/spawn          spawnRecord{Seq, Spec}
//	manifest/t/<id>/inj/<ord hex>  injRecord{Ord, Injection, Applied, RequestID}
//	manifest/t/<id>/ckpt           ckptRecord{Frame, State, Reason}
//
// Killing a tenant deletes its whole key range in one commit, so the
// manifest's footprint is bounded by the live fleet, not its history. A
// tenant Recover drops keeps its range until a spawn reuses its id; that
// spawn's commit deletes the range.
//
// Failure handling is self-stabilizing, not halting: a record torn on one
// replica is healed by the scrub that recovery runs before reading the
// manifest, so a later crash tearing the other replica's copy still finds
// one intact; a record lost on every replica is converged past — the tenant
// that record belonged to is quarantined (lost spawn or injection) or merely
// loses checkpoint progress (lost ckpt), and every other tenant recovers
// untouched.
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/stable"
)

const (
	manifestPrefix   = "manifest/t/"
	spawnSuffix      = "/spawn"
	ckptSuffix       = "/ckpt"
	injSuffixPrefix  = "/inj/"
	maxTenantIDBytes = 128
)

// ValidateTenantID rejects identifiers that cannot live in manifest keys or
// URL paths. The host enforces it for every spawn, durable or not, so specs
// stay portable between the two modes.
func ValidateTenantID(id string) error {
	if id == "" {
		return errors.New("fleet: empty tenant id")
	}
	if len(id) > maxTenantIDBytes {
		return fmt.Errorf("fleet: tenant id longer than %d bytes", maxTenantIDBytes)
	}
	for i := 0; i < len(id); i++ {
		if id[i] == '/' || id[i] < 0x20 {
			return fmt.Errorf("fleet: tenant id %q contains %q", id, id[i])
		}
	}
	return nil
}

// spawnRecord journals one tenant's creation. Seq is the spawn sequence
// number, preserved so a recovered fleet lists tenants in their original
// spawn order.
type spawnRecord struct {
	Seq  int64     `json:"seq"`
	Spec SpawnSpec `json:"spec"`
}

// injRecord journals one acked injection: the ord fixes the apply order
// within the tenant (assigned under the tenant lock at apply time), Applied
// is the acked frame, and RequestID carries the client's idempotency key so
// the dedupe cache survives a restart.
type injRecord struct {
	Ord       int64     `json:"ord"`
	Inj       Injection `json:"inj"`
	Applied   int64     `json:"applied"`
	RequestID string    `json:"request_id,omitempty"`
}

// ckptRecord journals a tenant's progress: the highest frame boundary known
// committed, plus the lifecycle state so completed and quarantined tenants
// restore without guessing. Recovery replays a running tenant to Frame;
// anything it ran past its last checkpoint is progress lost to the crash,
// bounded by Config.CheckpointEvery. A checkpoint that records the tenant at
// rest is all Recover needs to register it, parked; the replay waits for
// the first read of its telemetry.
type ckptRecord struct {
	Frame  int64  `json:"frame"`
	State  State  `json:"state"`
	Reason string `json:"reason,omitempty"`
}

func spawnKey(id string) string { return manifestPrefix + id + spawnSuffix }
func ckptKey(id string) string  { return manifestPrefix + id + ckptSuffix }
func injKey(id string, ord int64) string {
	return fmt.Sprintf("%s%s%s%016x", manifestPrefix, id, injSuffixPrefix, ord)
}

// manifest serializes all commits to the fleet's durable store. A nil
// manifest (host without a Config.Manifest store) turns every method into a
// no-op, which is the pre-durability in-memory behavior.
type manifest struct {
	mu sync.Mutex
	st *stable.Store
	// errMu guards err apart from mu: the store calls the fault sink from
	// inside the commits that hold mu.
	errMu sync.Mutex
	err   error // first commit/storage fault; latched, fails later mutations
}

func newManifest(st *stable.Store) *manifest {
	if st == nil {
		return nil
	}
	m := &manifest{st: st}
	st.SetFaultSink(func(err error) {
		m.errMu.Lock()
		if m.err == nil {
			m.err = err
		}
		m.errMu.Unlock()
	})
	return m
}

// fault returns the latched fault, if any.
func (m *manifest) fault() error {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	if m.err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", errManifest, m.err)
}

// commitLocked commits the staged batch and surfaces a latched fault.
func (m *manifest) commitLocked() error {
	m.st.Commit()
	return m.fault()
}

// recordSpawn durably journals a tenant before it becomes visible. With
// leftover set, the id belonged to a tenant Recover dropped: its records
// are deleted in the same commit, so the new tenant replays only its own.
// Only then does the spawn list keys: the listing walks every key the
// store holds, so listing on every spawn makes set-up quadratic in the
// fleet size.
func (m *manifest) recordSpawn(seq int64, ss SpawnSpec, leftover bool) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.fault(); err != nil {
		return err
	}
	if leftover {
		m.deleteRangeLocked(ss.ID)
	}
	if err := m.st.PutJSON(spawnKey(ss.ID), spawnRecord{Seq: seq, Spec: ss}); err != nil {
		return err
	}
	return m.commitLocked()
}

// recordInjection durably journals an acked injection. It runs after the
// injection's frame barrier and before the ack leaves the control plane:
// an acked injection is always replayable, an unacked one may be lost with
// the crash — at-most-once, never silently divergent.
func (m *manifest) recordInjection(tenantID string, rec injRecord) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.fault(); err != nil {
		return err
	}
	if err := m.st.PutJSON(injKey(tenantID, rec.Ord), rec); err != nil {
		return err
	}
	return m.commitLocked()
}

// recordCheckpoints journals a batch of tenant checkpoints in one commit —
// the sweep loop's periodic progress barrier and the drain path's final one.
func (m *manifest) recordCheckpoints(cks map[string]ckptRecord) error {
	if m == nil || len(cks) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.fault(); err != nil {
		return err
	}
	for id, ck := range cks {
		if err := m.st.PutJSON(ckptKey(id), ck); err != nil {
			return err
		}
	}
	return m.commitLocked()
}

// removeTenant deletes a killed tenant's whole manifest range in one
// commit, keeping the manifest bounded by the live fleet.
func (m *manifest) removeTenant(tenantID string) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.fault(); err != nil {
		return err
	}
	m.deleteRangeLocked(tenantID)
	return m.commitLocked()
}

// deleteRangeLocked stages the deletion of every record under a tenant id,
// records lost on every replica included. It lists them without the fault
// sink: a lost record in a range being deleted is no fault, and the
// tombstone the commit writes over it is its repair.
func (m *manifest) deleteRangeLocked(tenantID string) {
	prefix := manifestPrefix + tenantID + "/"
	var keys []string
	if rep := m.st.Hardened(); rep != nil {
		var err error
		if keys, err = rep.KeysWithPrefix(prefix); errors.Is(err, stable.ErrUnrecoverable) {
			keys = append(keys, rep.LostKeys(prefix)...)
		}
	} else {
		keys = m.st.Keys(prefix)
	}
	for _, k := range keys {
		m.st.Delete(k)
	}
}

// tenantManifest is one tenant's parsed manifest: the replay recipe.
type tenantManifest struct {
	Seq        int64
	Spec       SpawnSpec
	Injections []injRecord // ord order; gaps are legal (barrier-failed ords)
	Ckpt       ckptRecord  // zero value when no checkpoint was committed
	HasCkpt    bool
	// Damaged, when non-empty, names why this tenant cannot be replayed
	// faithfully (a lost injection record); recovery quarantines it.
	Damaged string
}

// loadManifest heals the manifest store, then parses the manifest out of
// it, converging past unrecoverable records. It returns the per-tenant
// recipes plus the ids of tenants whose spawn record is lost entirely
// (nothing to respawn from — reported, then dropped).
func loadManifest(st *stable.Store) (map[string]*tenantManifest, []string, error) {
	rep := st.Hardened()
	if rep == nil {
		return nil, nil, errors.New("fleet: manifest store is not hardened")
	}
	// Spawn and injection records are written once and never rewritten, and
	// the snapshot below does not repair what it reads: without this scrub a
	// record torn on one replica at one crash stays torn until the next
	// crash tears the other copy, and the acked record is lost. A key lost
	// on every replica is not an error here — the snapshot reports it and
	// LostKeys scopes the damage below.
	if _, err := rep.Scrub(nil); err != nil && !errors.Is(err, stable.ErrUnrecoverable) {
		return nil, nil, fmt.Errorf("fleet: scrubbing manifest: %w", err)
	}
	snap, err := rep.SnapshotPrefix(manifestPrefix)
	var lost []string
	if err != nil {
		if !errors.Is(err, stable.ErrUnrecoverable) {
			return nil, nil, fmt.Errorf("fleet: loading manifest: %w", err)
		}
		// Converge past: structured list of the dead keys, damage scoped
		// to the tenants that owned them.
		lost = rep.LostKeys(manifestPrefix)
	}

	tenants := make(map[string]*tenantManifest)
	get := func(id string) *tenantManifest {
		tm := tenants[id]
		if tm == nil {
			tm = &tenantManifest{}
			tenants[id] = tm
		}
		return tm
	}
	var parseErrs []string
	for key, raw := range snap {
		id, kind, ord, ok := parseManifestKey(key)
		if !ok {
			parseErrs = append(parseErrs, fmt.Sprintf("unparseable key %q", key))
			continue
		}
		tm := get(id)
		switch kind {
		case "spawn":
			var sr spawnRecord
			if err := json.Unmarshal(raw, &sr); err != nil {
				tm.Damaged = "spawn record undecodable: " + err.Error()
				continue
			}
			sr.Spec.ID = id
			tm.Seq, tm.Spec = sr.Seq, sr.Spec
		case "inj":
			var ir injRecord
			if err := json.Unmarshal(raw, &ir); err != nil {
				tm.Damaged = fmt.Sprintf("injection record %d undecodable: %v", ord, err)
				continue
			}
			tm.Injections = append(tm.Injections, ir)
		case "ckpt":
			var ck ckptRecord
			if err := json.Unmarshal(raw, &ck); err != nil {
				// A bad checkpoint only costs progress, never correctness.
				continue
			}
			tm.Ckpt, tm.HasCkpt = ck, true
		}
	}
	for _, key := range lost {
		id, kind, ord, ok := parseManifestKey(key)
		if !ok {
			continue
		}
		tm := get(id)
		switch kind {
		case "spawn":
			tm.Damaged = "spawn record lost on all replicas"
		case "inj":
			tm.Damaged = fmt.Sprintf("injection record %d lost on all replicas", ord)
		case "ckpt":
			// Progress loss only: replay falls back to the injection
			// barrier frames.
		}
	}

	var unrecoverable []string
	for id, tm := range tenants {
		if tm.Spec.Preset == "" && tm.Damaged == "" {
			tm.Damaged = "spawn record missing"
		}
		if tm.Spec.Preset == "" {
			// Nothing to respawn from: drop the tenant, report it.
			unrecoverable = append(unrecoverable, id)
			delete(tenants, id)
			continue
		}
		sort.Slice(tm.Injections, func(i, j int) bool { return tm.Injections[i].Ord < tm.Injections[j].Ord })
	}
	// Foreign keys under the manifest prefix are converged past too, but
	// deserve a surfaced note rather than silence.
	return tenants, append(unrecoverable, parseErrs...), nil
}

// parseManifestKey splits manifest/t/<id>/spawn|ckpt|inj/<ord>.
func parseManifestKey(key string) (id, kind string, ord int64, ok bool) {
	rest, found := strings.CutPrefix(key, manifestPrefix)
	if !found {
		return "", "", 0, false
	}
	// Tenant ids cannot contain '/', so the first slash ends the id.
	i := strings.IndexByte(rest, '/')
	if i <= 0 {
		return "", "", 0, false
	}
	id, rest = rest[:i], rest[i:]
	switch {
	case rest == spawnSuffix:
		return id, "spawn", 0, true
	case rest == ckptSuffix:
		return id, "ckpt", 0, true
	case strings.HasPrefix(rest, injSuffixPrefix):
		n, err := strconv.ParseInt(rest[len(injSuffixPrefix):], 16, 64)
		if err != nil {
			return "", "", 0, false
		}
		return id, "inj", n, true
	}
	return "", "", 0, false
}
