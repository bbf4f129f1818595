// Package core assembles the complete reconfigurable system architecture of
// Strunk, Knight and Aiello (DSN 2005, Figure 1): reconfigurable
// applications hosted on fail-stop processors, environment monitors, the
// SCRAM kernel (optionally replicated), the time-triggered bus, and the
// synchronous frame scheduler — together with the trace recorder that feeds
// the SP1-SP4 property checkers.
//
// Building a System statically discharges the specification's proof
// obligations first (package statics), mirroring the paper's PVS type check
// of an instantiation against the abstract architecture: a specification
// whose obligations fail does not produce a runnable system.
package core

import (
	"fmt"
	"time"

	"repro/internal/bus"
	"repro/internal/failstop"
	"repro/internal/frame"
	"repro/internal/scram"
	"repro/internal/spec"
	"repro/internal/stable"
)

// FrameEnv is what an application sees during one frame: timing, its
// current (or target) functional specification, its private stable-storage
// region on its current host processor, and its bus endpoint.
//
// The pointer passed to an App method is a per-application buffer reused
// every frame; applications must read what they need during the call and
// must not retain the pointer.
type FrameEnv struct {
	// Frame is the frame number.
	Frame int64
	// VirtualTime is the virtual time at the start of the frame.
	VirtualTime time.Duration
	// FrameLen is the frame length.
	FrameLen time.Duration
	// Seq is the reconfiguration plan sequence number of the governing
	// command (0 during boot); it changes on every new plan and on every
	// retarget, letting applications reset partial phase work.
	Seq int64
	// Spec is the functional specification in effect: the current one
	// during Step and Halt, the target during Prepare and Init.
	Spec spec.SpecID
	// Store is the application's private region of its host processor's
	// stable storage. Writes are staged and committed at the frame
	// boundary.
	Store *stable.Region
	// Bus is the application's bus endpoint, or nil if the system was
	// built without a bus schedule.
	Bus *bus.Endpoint
}

// App is a reconfigurable application: the paper's basic software building
// block (section 5.2). Each method is one unit of work in one frame; the
// three reconfiguration methods realize the bounded-time halt / prepare /
// start responses of section 5.3.
//
// Methods are called from the goroutine stepping the system, one call per
// frame, never concurrently.
type App interface {
	// ID returns the application identifier, matching the declaration in
	// the reconfiguration specification.
	ID() spec.AppID
	// Step performs one unit of normal work under env.Spec.
	Step(env *FrameEnv) error
	// Halt works toward establishing the application's postcondition and
	// ceasing operation. It returns done=true once the postcondition is
	// established; it is called once per frame of the halt window.
	Halt(env *FrameEnv) (done bool, err error)
	// Prepare works toward establishing the condition needed to
	// transition to target.
	Prepare(env *FrameEnv, target spec.SpecID) (done bool, err error)
	// Init works toward establishing the precondition of target; after
	// done=true the application resumes normal operation under target at
	// the window's end.
	Init(env *FrameEnv, target spec.SpecID) (done bool, err error)
	// Postcondition reports whether the halt postcondition currently
	// holds.
	Postcondition() bool
	// Precondition reports whether the precondition of operating under
	// target currently holds. SP4 is checked against this at the end of
	// every reconfiguration.
	Precondition(target spec.SpecID) bool
}

// appRuntime hosts one App: it reads the application's configuration_status
// command each frame, dispatches the commanded phase, performs
// stable-storage migration when the placement changes, and tracks the
// precondition flag the trace recorder reports for SP4.
type appRuntime struct {
	sys  *System
	app  App
	decl *spec.App

	proc        *failstop.Processor
	spare       *failstop.Processor // hot standby host, nil unless configured
	curSpec     spec.SpecID
	lastSeq     int64
	lastPhase   spec.Phase
	phaseDone   bool
	migratedSeq int64
	preOK       bool
	ep          *bus.Endpoint

	// lastEpoch is the largest membership epoch obeyed so far (always 0
	// without dynamic membership): a command stamped with an older epoch is
	// stale — written before a takeover the application already followed —
	// and is ignored rather than obeyed.
	lastEpoch int64

	// regionProc/regionCache memoize the host's stable-storage region so
	// the per-frame region lookup does not allocate in steady state.
	regionProc  *failstop.Processor
	regionCache *stable.Region

	// cmdReader caches the raw command record and its decode across frames;
	// env is the FrameEnv buffer reused for every phase call. Both keep the
	// steady-state Tick allocation-free.
	cmdReader *scram.CommandReader
	env       FrameEnv
}

// TaskID implements frame.Task.
func (r *appRuntime) TaskID() string { return "app:" + string(r.decl.ID) }

// Tick implements frame.Task: one unit of work per frame, as commanded.
func (r *appRuntime) Tick(ctx frame.Context) error {
	cmd, ok, err := r.cmdReader.Read(r.sys.manager.store())
	if err != nil {
		return err
	}
	if !ok {
		// Boot frame: the kernel has not committed yet; operate
		// normally under the start configuration, in the last obeyed
		// membership epoch (still the boot epoch).
		startCfg, _ := r.sys.rs.Config(r.sys.rs.StartConfig)
		target, _ := startCfg.SpecOf(r.decl.ID)
		cmd = scram.Command{Phase: spec.PhaseNormal, Target: target, Config: r.sys.rs.StartConfig, Epoch: r.lastEpoch}
	} else if cmd.Epoch < r.lastEpoch {
		// The command predates a membership epoch this application has
		// already obeyed; holding the current behavior is safe, obeying
		// a stale command is not.
		return nil
	} else {
		r.lastEpoch = cmd.Epoch
	}
	if cmd.Seq != r.lastSeq || cmd.Phase != r.lastPhase {
		if cmd.Seq != r.lastSeq && cmd.Phase != spec.PhaseNormal {
			// A new reconfiguration begins: the precondition must be
			// re-established by Init before the window ends (SP4).
			r.preOK = false
		}
		r.phaseDone = false
		r.lastSeq, r.lastPhase = cmd.Seq, cmd.Phase
	}

	switch cmd.Phase {
	case spec.PhaseNormal:
		return r.tickNormal(ctx, cmd)
	case spec.PhaseHalt:
		return r.tickHalt(ctx, cmd)
	case spec.PhasePrepare, spec.PhaseInit:
		return r.tickEntry(ctx, cmd)
	default:
		return fmt.Errorf("core: app %q received command with phase %v", r.decl.ID, cmd.Phase)
	}
}

func (r *appRuntime) tickNormal(ctx frame.Context, cmd scram.Command) error {
	r.curSpec = cmd.Target
	if cmd.Target == spec.SpecOff || !r.proc.Alive() {
		return nil
	}
	return r.app.Step(r.frameEnv(ctx, cmd.Target))
}

func (r *appRuntime) tickHalt(ctx frame.Context, cmd scram.Command) error {
	if r.phaseDone || !cmd.Active(ctx.Frame) {
		return nil // ceased execution; awaiting its window or already halted
	}
	if !r.proc.Alive() {
		// Fail-stop: a failed processor's application has trivially
		// ceased operation; its recovery begins from the last
		// committed stable state ("we assume nothing about the state
		// of an application when it fails").
		r.phaseDone = true
		return nil
	}
	done, err := r.app.Halt(r.frameEnv(ctx, r.curSpec))
	if err != nil {
		return fmt.Errorf("core: app %q halt: %w", r.decl.ID, err)
	}
	r.phaseDone = done
	return nil
}

// tickEntry handles the prepare and initialize phases, including
// stable-storage migration to the target configuration's placement.
func (r *appRuntime) tickEntry(ctx frame.Context, cmd scram.Command) error {
	if cmd.Target == spec.SpecOff {
		return nil // off in the target configuration: hold halted
	}
	if err := r.maybeMigrate(cmd); err != nil {
		return err
	}
	if r.phaseDone || !cmd.Active(ctx.Frame) {
		return nil
	}
	if !r.proc.Alive() {
		// The (possibly new) host is down; the phase cannot make
		// progress. The precondition will be unsatisfied at the
		// window's end, which SP4 surfaces.
		return nil
	}
	env := r.frameEnv(ctx, cmd.Target)
	var (
		done bool
		err  error
	)
	if cmd.Phase == spec.PhasePrepare {
		done, err = r.app.Prepare(env, cmd.Target)
	} else {
		done, err = r.app.Init(env, cmd.Target)
	}
	if err != nil {
		return fmt.Errorf("core: app %q %s: %w", r.decl.ID, cmd.Phase, err)
	}
	r.phaseDone = done
	if done && cmd.Phase == spec.PhaseInit {
		r.preOK = r.app.Precondition(cmd.Target)
		r.curSpec = cmd.Target
	}
	return nil
}

// maybeFailover masks a host failure using the application's hot standby
// (the section 5.1 masking/reconfiguration hybrid): if the current host has
// failed and the spare is alive, the application restores its last committed
// state from the failed host's stable storage — readable after a fail-stop
// failure — and continues on the spare within the same frame, with no
// reconfiguration. The spare is consumed by the failover; a subsequent
// failure is handled by reconfiguration like any other.
func (r *appRuntime) maybeFailover() {
	if r.spare == nil || r.proc.Alive() || !r.spare.Alive() || r.spare.ID() == r.proc.ID() {
		return
	}
	r.region(r.spare).Restore(r.region(r.proc).Snapshot())
	r.proc = r.spare
	r.spare = nil
}

// maybeMigrate moves the application's stable-storage region to the target
// configuration's placement, once per plan sequence number. Migration pulls
// a snapshot of the committed region from the old host — which works even if
// the old host has failed, because stable storage survives fail-stop
// failures and remains pollable.
func (r *appRuntime) maybeMigrate(cmd scram.Command) error {
	if r.migratedSeq == cmd.Seq {
		return nil
	}
	r.migratedSeq = cmd.Seq
	cfg, ok := r.sys.rs.Config(cmd.Config)
	if !ok {
		return fmt.Errorf("core: app %q commanded into unknown configuration %q", r.decl.ID, cmd.Config)
	}
	newProcID, ok := cfg.Placement[r.decl.ID]
	if !ok || newProcID == r.proc.ID() {
		return nil
	}
	newProc, err := r.sys.pool.Proc(newProcID)
	if err != nil {
		return err
	}
	oldRegion := r.region(r.proc)
	newRegion := r.region(newProc)
	newRegion.Restore(oldRegion.Snapshot())
	// Reset preOK: it must be re-established by Init on the new host.
	r.preOK = false
	r.proc = newProc
	return nil
}

func (r *appRuntime) region(p *failstop.Processor) *stable.Region {
	if p != r.regionProc {
		r.regionProc = p
		r.regionCache = p.Stable().Region("app/" + string(r.decl.ID))
	}
	return r.regionCache
}

// frameEnv fills the runtime's reusable FrameEnv buffer for one phase call.
// The pointer is valid only for the duration of that call: the next frame
// overwrites it in place, which is why FrameEnv documents that applications
// must not retain it.
func (r *appRuntime) frameEnv(ctx frame.Context, sp spec.SpecID) *FrameEnv {
	r.env = FrameEnv{
		Frame:       ctx.Frame,
		VirtualTime: ctx.VirtualTime(),
		FrameLen:    ctx.Len,
		Seq:         r.lastSeq,
		Spec:        sp,
		Store:       r.region(r.proc),
		Bus:         r.ep,
	}
	return &r.env
}
