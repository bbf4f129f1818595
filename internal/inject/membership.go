package inject

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/envmon"
	"repro/internal/frame"
	"repro/internal/membership"
	"repro/internal/spec"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// MembershipCampaign runs the canonical three-configuration system with two
// spare processors and dynamic membership enabled, then attacks the
// membership layer itself: spare join/leave churn, crash evictions of
// members mid-reconfiguration, and direct corruption of the committed
// membership record on the authoritative host's stable storage (the S3
// workload).
//
// The campaign checks the assured-reconfiguration contract extended to
// membership: every change re-verifies online before its epoch commits,
// rejected changes leave the prior epoch serving, a corrupted record drives
// bounded convergence instead of service from garbage, and the
// epoch-monotonicity, no-split-brain and safe-handoff invariants hold over
// the whole run alongside SP1-SP4.
type MembershipCampaign struct {
	// Seed drives all randomness; equal seeds give equal runs.
	Seed int64
	// Frames is the campaign length.
	Frames int
	// EnvEvents is the number of alternator state changes to script.
	EnvEvents int
	// Churn is the number of spare join/leave cycles to schedule on the
	// two spare processors. Any churn also schedules one unverifiable
	// leave of the FCS's host, which must be rejected with the prior
	// epoch still serving.
	Churn int
	// Evictions is the number of member fail/repair pairs to script; the
	// FCS's host and the first spare alternate as victims. The SCRAM's
	// host (p1) is never failed — the paper's dependable-SCRAM
	// assumption.
	Evictions int
	// CorruptRecords is the number of committed membership-record
	// corruptions to inject, cycling through undecodable garbage, a
	// valid-checksum record naming an undeclared processor under an
	// inflated epoch, and a torn (bit-flipped) record.
	CorruptRecords int
}

// plan derives the full deterministic schedule from the seed: the core
// options (environment script, processor events, membership events) plus the
// record-corruption frames, keyed by frame with the corruption variant as
// value.
func (c MembershipCampaign) plan() (core.Options, map[int64]int) {
	rng := rand.New(rand.NewSource(c.Seed))
	preset := mustPreset("threeconfig-spares")
	rs := preset.New()

	var script []envmon.Event
	for i := 0; i < c.EnvEvents; i++ {
		f := int64(1 + rng.Intn(max(1, c.Frames-2)))
		alt := envmon.Factor("alt1")
		if rng.Intn(2) == 0 {
			alt = "alt2"
		}
		val := "ok"
		if rng.Intn(2) == 0 {
			val = "failed"
		}
		script = append(script, envmon.Event{Frame: f, Factor: alt, Value: val})
	}

	spares := []spec.ProcID{"p3", "p4"}
	var memEvents []membership.Event
	for i := 0; i < c.Churn; i++ {
		sp := spares[i%len(spares)]
		join := int64(2 + rng.Intn(max(1, c.Frames-25)))
		memEvents = append(memEvents,
			membership.Event{Frame: join, Proc: sp, Op: membership.OpJoin},
			membership.Event{Frame: join + int64(8+rng.Intn(8)), Proc: sp, Op: membership.OpLeave},
		)
	}
	if c.Churn > 0 {
		// One deliberately unverifiable change per run: draining the
		// FCS's host, which every configuration still places the FCS on.
		memEvents = append(memEvents, membership.Event{
			Frame: int64(max(2, c.Frames/2)), Proc: "p2", Op: membership.OpLeave,
		})
	}

	victims := []spec.ProcID{"p2", "p3"}
	var procEvents []core.ProcEvent
	for i := 0; i < c.Evictions; i++ {
		v := victims[i%len(victims)]
		f := int64(2 + rng.Intn(max(1, c.Frames-30)))
		procEvents = append(procEvents,
			core.ProcEvent{Frame: f, Proc: v, Kind: core.ProcFail},
			core.ProcEvent{Frame: f + int64(10+rng.Intn(10)), Proc: v, Kind: core.ProcRepair},
		)
	}

	corrupt := make(map[int64]int, c.CorruptRecords)
	for i := 0; i < c.CorruptRecords; i++ {
		f := int64(2 + rng.Intn(max(1, c.Frames-4)))
		corrupt[f] = i % 3
	}

	opts := core.Options{
		Spec:           rs,
		Apps:           basicApps(rs),
		Classifier:     preset.Classifier,
		InitialFactors: preset.Factors(),
		Script:         script,
		ProcEvents:     procEvents,
		TraceSeed:      c.Seed,
		Membership:     &core.MembershipOptions{Events: memEvents},
	}
	return opts, corrupt
}

// Options builds the core.Options the campaign would run, without building
// or running anything, for up-front matrix validation.
func (c MembershipCampaign) Options() core.Options {
	opts, _ := c.plan()
	return opts
}

// MembershipMetrics extends the campaign metrics with the membership layer's
// accounting and invariant results.
type MembershipMetrics struct {
	Metrics
	// Epoch is the final membership epoch.
	Epoch int64
	// Membership is the manager's cumulative counters: joins, leaves,
	// rejections, evictions and convergences.
	Membership membership.Stats
	// Rejections are the membership changes that failed online
	// re-verification; the prior epoch kept serving through each.
	Rejections []membership.Rejection
	// MembershipViolations holds every epoch-monotonicity, split-brain or
	// unsafe-handoff violation found in the per-frame membership log. It
	// must be empty on every run.
	MembershipViolations []membership.Violation
	// Registry is the live telemetry registry's final snapshot.
	Registry telemetry.Snapshot
	// Ring is the flight-recorder journal recovered from the SCRAM host's
	// committed stable storage after the campaign.
	Ring []telemetry.Event `json:"-"`
}

// corruptRecordBytes renders one committed-record corruption. Variant 1 is
// the nastiest: a record with a valid checksum whose view names a processor
// the platform never declared, under an epoch far in the future — the
// convergence path must still move strictly past that epoch.
func corruptRecordBytes(variant int, mgr *membership.Manager) []byte {
	switch variant {
	case 1:
		v := mgr.View()
		v.Epoch += 97
		v.Members = append(v.Members, membership.Member{
			Proc: "zombie", Status: membership.StatusActive, CaughtUp: true,
		})
		if raw, err := membership.EncodeRecord(v); err == nil {
			return raw
		}
	case 2:
		if raw, err := membership.EncodeRecord(mgr.View()); err == nil && len(raw) > 4 {
			raw[len(raw)/2] ^= 0xFF // torn write: one flipped byte
			return raw
		}
	}
	return []byte("{{membership-record-garbage")
}

// Run executes the campaign and returns its metrics and trace.
func (c MembershipCampaign) Run() (MembershipMetrics, *trace.Trace, error) {
	opts, corrupt := c.plan()
	rs := opts.Spec

	sys, err := core.NewSystem(opts)
	if err != nil {
		return MembershipMetrics{}, nil, fmt.Errorf("inject: building system: %w", err)
	}
	defer sys.Close()

	if len(corrupt) > 0 {
		// User commit hooks run after every built-in, so the Put+Commit
		// pair overwrites the record the frame just committed: the
		// corruption is exactly what a reader polls at the next frame,
		// and the self-stabilization path must detect it there.
		sys.AddCommitHook(func(ctx frame.Context) error {
			variant, ok := corrupt[ctx.Frame]
			if !ok {
				return nil
			}
			mgr := sys.Membership()
			p, err := sys.Pool().Proc(mgr.View().Auth)
			if err != nil || !p.Alive() {
				return nil
			}
			st := p.Stable()
			st.Put(membership.RecordKey, corruptRecordBytes(variant, mgr))
			st.Commit()
			return nil
		})
	}

	if err := sys.Run(c.Frames); err != nil {
		return MembershipMetrics{}, nil, fmt.Errorf("inject: running membership campaign: %w", err)
	}

	tr := sys.Trace()
	m, err := Collect(tr, rs, int64(rs.DwellFrames)+2)
	if err != nil {
		return MembershipMetrics{}, nil, err
	}
	mgr := sys.Membership()
	out := MembershipMetrics{
		Metrics:              m,
		Epoch:                mgr.Epoch(),
		Membership:           mgr.Stats(),
		Rejections:           mgr.Rejections(),
		MembershipViolations: sys.CheckMembership(),
		Ring:                 recoverRing(sys),
	}
	if reg, _ := sys.Telemetry(); reg != nil {
		out.Registry = reg.Snapshot()
	}
	return out, tr, nil
}
