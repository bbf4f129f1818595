package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bus"
	"repro/internal/det"
	"repro/internal/envmon"
	"repro/internal/failstop"
	"repro/internal/frame"
	"repro/internal/membership"
	"repro/internal/scram"
	"repro/internal/spec"
	"repro/internal/stable"
	"repro/internal/statics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ObligationError reports that a specification's static proof obligations
// failed, refusing system construction — the analog of a failed PVS type
// check of an instantiation against the abstract architecture.
type ObligationError struct {
	Report *statics.Report
}

// Error lists the failed obligations.
func (e *ObligationError) Error() string {
	return fmt.Sprintf("core: static obligations failed: %v", e.Report.Failures())
}

// ProcEventKind selects a processor fault-injection action.
type ProcEventKind int

// Processor event kinds.
const (
	// ProcFail makes the processor fail with fail-stop semantics during
	// the event's frame: the frame's staged stable writes are lost, the
	// last committed state survives, and monitors observe the failure in
	// the same frame.
	ProcFail ProcEventKind = iota + 1
	// ProcRepair restores the processor between frames: it is alive from
	// the event's frame on.
	ProcRepair
)

// ProcEvent schedules a processor failure or repair.
type ProcEvent struct {
	Frame int64
	Proc  spec.ProcID
	Kind  ProcEventKind
}

// ProcHealthFactor returns the environment factor name carrying a
// processor's health, which classifiers can consult. It delegates to
// envmon.ProcHealth so spec-level packages can name the factor without
// importing the runtime.
func ProcHealthFactor(id spec.ProcID) envmon.Factor {
	return envmon.ProcHealth(id)
}

// Health factor values.
const (
	ProcOK     = envmon.ProcOK
	ProcFailed = envmon.ProcFailed
)

// Options configures NewSystem.
type Options struct {
	// Spec is the reconfiguration specification. Required.
	Spec *spec.ReconfigSpec
	// Apps provides the implementation of every non-virtual application
	// declared in the specification. Required.
	Apps map[spec.AppID]App
	// Classifier abstracts environment factors into the specification's
	// environment states. Required.
	Classifier envmon.Classifier
	// InitialFactors seeds the environment. Processor health factors are
	// added automatically (all "ok").
	InitialFactors map[envmon.Factor]string
	// Script drives deterministic environment evolution.
	Script []envmon.Event
	// ProcEvents schedules processor failures and repairs.
	ProcEvents []ProcEvent
	// BusSchedule, when non-nil, attaches a time-triggered bus with the
	// given TDMA schedule; every application gets an endpoint named by
	// its application ID.
	BusSchedule bus.Schedule
	// SCRAMProc selects the processor hosting the SCRAM kernel; defaults
	// to the first platform processor.
	SCRAMProc spec.ProcID
	// StandbyProc, when set, enables the replicated SCRAM: a standby on
	// this processor takes over if the SCRAM's processor fails.
	StandbyProc spec.ProcID
	// Membership, when non-nil, enables dynamic processor membership: a
	// frame-synchronous membership view with epochs persisted to stable
	// storage, online re-verification of every join and leave against the
	// static obligations, crash-detected eviction, catch-up of joining
	// standbys from the SCRAM's stable state, and the self-stabilization
	// path that converges from a corrupted membership record. The SCRAM's
	// hosts (primary and configured standby) are always required members.
	Membership *MembershipOptions
	// HotStandby maps applications to spare processors, enabling the
	// section 5.1 hybrid: a failure of a hot-standby application's host
	// is masked — the application fails over to the spare within the
	// failure frame, restoring from the failed host's stable storage —
	// while failures of everything else still trigger reconfiguration.
	HotStandby map[spec.AppID]spec.ProcID
	// HardenedStorage, when non-nil, mounts checksummed, replicated stable
	// storage (built from deliberately unreliable media per the profile) on
	// every processor instead of the default perfect in-memory store. The
	// SCRAM's host processors always get fault-free media: the paper
	// assumes a dependable SCRAM, so storage-fault campaigns target the
	// application processors. An unrecoverable storage fault halts the
	// owning processor with fail-stop semantics.
	HardenedStorage *stable.MediaProfile
	// TelemetryCapacity sizes the flight-recorder ring. Zero selects the
	// default capacity; a negative value disables the telemetry layer
	// entirely (no registry, no recorder, no per-frame persistence) —
	// the ablation arm of the observability-overhead benchmark.
	TelemetryCapacity int
	// TraceSeed salts the causal-trace identities: runs with different
	// seeds produce distinct trace IDs, equal seeds reproduce them
	// byte-identically. Campaign drivers pass their per-run seed; zero is
	// a valid (and deterministic) default.
	TraceSeed int64
	// RetainFrames bounds the system's history to a sliding window of
	// frames: the flight recorder drops journal events (live and persisted
	// chunks alike) older than the horizon at every frame, and the
	// sys_trace and the SCRAM kernel's protocol log (Kernel().Events())
	// drop theirs whenever they reach twice the window, so a tenant's
	// memory and stable-store footprint are flat in frames — the
	// "weeks-long run" mode. Zero (the default) retains everything, the
	// full protocol log included. Retention is configuration, not runtime
	// state: property checks and flightrec cover the retained window, and
	// a replayed or recovered run must use the same horizon for its
	// journal and trace to stay byte-identical with the original.
	RetainFrames int64
	// DisableTracing turns the causal trace layer off while leaving the
	// rest of the telemetry stack on — the ablation arm of the tracing
	// overhead benchmark.
	DisableTracing bool
	// Paced runs frames against the wall clock (soft real time) instead
	// of as fast as possible.
	Paced bool
	// SkipObligations builds the system even if static obligations fail.
	// It exists so tests can execute deliberately broken specifications
	// and watch the runtime property checkers catch them; production
	// callers must not set it.
	SkipObligations bool
}

// MembershipOptions configures the dynamic-membership layer.
type MembershipOptions struct {
	// Events schedules join and leave operations; each one is re-verified
	// online before its epoch commits, and an unverifiable change is
	// rejected with the prior epoch still serving.
	Events []membership.Event
	// CatchUpFrames is the number of catch-up copy frames a joining
	// processor needs before it is takeover-eligible; 0 selects the
	// default of 3.
	CatchUpFrames int
}

// System is a fully wired reconfigurable system.
type System struct {
	rs       *spec.ReconfigSpec
	report   *statics.Report
	sched    *frame.Scheduler
	pool     *failstop.Pool
	env      *envmon.Environment
	bus      *bus.Bus
	manager  *scramManager
	classify envmon.Classifier

	// mem is the dynamic-membership manager, nil unless Options.Membership
	// was set; memOwners is its reused per-frame app-ownership scratch map.
	mem       *membership.Manager
	memOwners map[spec.AppID]spec.ProcID

	runtimes map[spec.AppID]*appRuntime
	monitors []*envmon.Monitor
	script   *envmon.Script
	events   []ProcEvent
	tr       *trace.Trace
	// retain is Options.RetainFrames: the sliding history window recordHook
	// trims the trace and the kernel's protocol log behind (0 keeps
	// everything).
	retain int64

	// realApps caches rs.RealApps() (declaration order) and procHealth the
	// per-processor health factor names, so the per-frame hooks do not
	// rebuild the slice or re-concatenate factor strings every frame.
	realApps   []spec.App
	procHealth []envmon.Factor // indexed like pool.Procs()

	// envSeen/envState cache the classified environment keyed on the
	// environment's change version: recordHook and the trace need the
	// classification every frame, but it can only change when some factor
	// changed.
	envSeen  uint64
	envValid bool
	envState spec.EnvState

	// lastApps is the Apps map of the most recently appended trace state
	// (owned by the trace, never mutated in place). On frames whose per-app
	// states all match the previous frame's, recordHook reuses the map
	// instead of allocating an identical one — the steady-state case.
	// appScratch holds the frame's computed per-app states (indexed like
	// rs.Apps) while deciding.
	lastApps   map[spec.AppID]trace.AppState
	appScratch []trace.AppState
	// procScratch and lowScratch are the reused needed/low-power sets of
	// the power hooks, cleared per use so reconfiguration frames apply
	// processor modes without rebuilding maps.
	procScratch map[spec.ProcID]bool
	lowScratch  map[spec.ProcID]bool
	// stateChanged reports whether the state recordHook just appended
	// differs from the previous frame's (config, env, or any app state).
	// telemetryHook keys its run-length-encoded frame-state sampling off
	// this flag instead of re-walking the app maps every frame.
	stateChanged bool
	lastCfgRec   spec.ConfigID
	lastEnvRec   spec.EnvState

	// telReg and telRec are the system's metrics registry and
	// flight-recorder ring; nil when telemetry is disabled. telSink is the
	// always non-nil recording surface (the no-op sink under ablation),
	// selected once at construction. lastFS and lastFSFrame run-length-
	// encode the frame-state samples: a sample is recorded only when the
	// state differs from the previous frame's, and telFrame tracks the
	// last frame the telemetry hook observed so FlushTelemetry can close
	// the final run with one last sample.
	telReg      *telemetry.Registry
	telRec      *telemetry.Recorder
	telSink     telemetry.Sink
	book        *telemetry.SpanBook
	lastFS      *telemetry.FrameState
	lastFSFrame int64
	telFrame    int64

	// lastPowerIsPlan/lastPowerSeq/lastPowerTarget identify the power-mode
	// decision already applied (a plan's transition modes or a completed
	// configuration's steady-state modes), compared field-wise so the
	// per-frame power hook builds no key strings.
	lastPowerIsPlan bool
	lastPowerSeq    int64
	lastPowerTarget spec.ConfigID
	stagedHighWater int
}

// telObserver feeds the frame scheduler's per-frame reports into the
// telemetry layer: it stamps the recorder with the current frame at each
// frame start and counts frames and task and hook errors at each frame end.
// All counts are frame-synchronous — no wall-clock quantities cross into
// telemetry.
type telObserver struct {
	rec      *telemetry.Recorder
	frames   *telemetry.Counter
	taskErrs *telemetry.Counter
	hookErrs *telemetry.Counter
	tasks    *telemetry.Gauge
	hooks    *telemetry.Gauge
}

func newTelObserver(reg *telemetry.Registry, rec *telemetry.Recorder) *telObserver {
	return &telObserver{
		rec:      rec,
		frames:   reg.Counter("frame/frames"),
		taskErrs: reg.Counter("frame/task_errors"),
		hookErrs: reg.Counter("frame/hook_errors"),
		tasks:    reg.Gauge("frame/tasks"),
		hooks:    reg.Gauge("frame/hooks"),
	}
}

func (o *telObserver) BeginFrame(ctx frame.Context) { o.rec.SetFrame(ctx.Frame) }

func (o *telObserver) EndFrame(rep frame.Report) {
	o.frames.Inc()
	o.taskErrs.Add(int64(rep.TaskErrs))
	o.hookErrs.Add(int64(rep.HookErrs))
	o.tasks.Set(int64(rep.Tasks))
	o.hooks.Set(int64(rep.Hooks))
}

// NewSystem validates the specification, discharges its static obligations,
// and wires the full architecture. The returned system has executed no
// frames yet.
func NewSystem(opts Options) (*System, error) {
	// Per-field options validation is delegated to Validate so callers
	// (notably the campaign engine) can run the same checks up front over a
	// whole run matrix and dispatch on the typed errors.
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	report, err := statics.Check(opts.Spec)
	if err != nil {
		return nil, err
	}
	if !report.AllDischarged() && !opts.SkipObligations {
		return nil, &ObligationError{Report: report}
	}
	rs := opts.Spec

	// SCRAM placement is resolved before the pool is built so hardened
	// storage can exempt the kernel's hosts from injected media faults.
	scramProcID := opts.SCRAMProc
	if scramProcID == "" {
		scramProcID = rs.Platform.Procs[0].ID
	}
	var mkStore func(spec.ProcID) *stable.Store
	if opts.HardenedStorage != nil {
		prof := *opts.HardenedStorage
		mkStore = func(id spec.ProcID) *stable.Store {
			p := prof
			if id == scramProcID || (opts.StandbyProc != "" && id == opts.StandbyProc) {
				p.Faults = stable.FaultProfile{}
			}
			return stable.NewHardenedStore(p, string(id))
		}
	}

	s := &System{
		rs:       rs,
		report:   report,
		pool:     failstop.NewPoolWithStores(rs.Platform, mkStore),
		classify: opts.Classifier,
		runtimes: make(map[spec.AppID]*appRuntime),
		events:   append([]ProcEvent(nil), opts.ProcEvents...),
		tr:       &trace.Trace{System: rs.Name, FrameLen: rs.FrameLen},
		retain:   opts.RetainFrames,
		telSink:  telemetry.NopSink{},
	}
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].Frame < s.events[j].Frame })

	// Environment: user factors plus processor health.
	factors := make(map[envmon.Factor]string, len(opts.InitialFactors)+len(rs.Platform.Procs))
	for _, k := range det.SortedKeys(opts.InitialFactors) {
		factors[k] = opts.InitialFactors[k]
	}
	for _, p := range rs.Platform.Procs {
		factors[ProcHealthFactor(p.ID)] = ProcOK
	}
	s.env = envmon.NewEnvironment(factors)
	s.script = envmon.NewScript(s.env, opts.Script)
	s.script.Init()
	s.realApps = rs.RealApps()
	for _, p := range s.pool.Procs() {
		s.procHealth = append(s.procHealth, ProcHealthFactor(p.ID()))
	}
	s.appScratch = make([]trace.AppState, len(rs.Apps))
	s.procScratch = make(map[spec.ProcID]bool, len(rs.Platform.Procs))
	s.lowScratch = make(map[spec.ProcID]bool, len(rs.Platform.Procs))

	// SCRAM placement.
	primary, err := s.pool.Proc(scramProcID)
	if err != nil {
		return nil, fmt.Errorf("core: SCRAM processor: %w", err)
	}
	var standby *failstop.Processor
	if opts.StandbyProc != "" {
		standby, err = s.pool.Proc(opts.StandbyProc)
		if err != nil {
			return nil, fmt.Errorf("core: SCRAM standby processor: %w", err)
		}
		if standby.ID() == primary.ID() {
			return nil, errors.New("core: SCRAM standby must differ from primary")
		}
	}
	s.manager, err = newSCRAMManager(rs, primary, standby)
	if err != nil {
		return nil, err
	}

	// Dynamic membership.
	if opts.Membership != nil {
		required := []spec.ProcID{primary.ID()}
		if standby != nil {
			required = append(required, standby.ID())
		}
		s.mem, err = membership.NewManager(membership.Config{
			Spec:          rs,
			Pool:          s.pool,
			Auth:          primary.ID(),
			Events:        opts.Membership.Events,
			CatchUpFrames: opts.Membership.CatchUpFrames,
			Required:      required,
		})
		if err != nil {
			return nil, err
		}
		s.memOwners = make(map[spec.AppID]spec.ProcID, len(rs.RealApps()))
		s.manager.pool = s.pool
		s.manager.mem = s.mem
	}

	// Bus.
	if opts.BusSchedule != nil {
		s.bus = bus.New(opts.BusSchedule)
	}

	// Telemetry: one registry and one flight-recorder ring for the whole
	// system, persisted through the SCRAM host's stable storage (which is
	// exempt from injected media faults) so the journal survives any
	// application processor's fail-stop halt — the black box.
	if opts.TelemetryCapacity >= 0 {
		s.telReg = telemetry.NewRegistry()
		s.telRec = telemetry.NewRecorder(opts.TelemetryCapacity)
		if opts.RetainFrames > 0 {
			s.telRec.SetRetention(opts.RetainFrames)
		}
		s.telSink = s.telRec
		s.manager.setTelemetry(s.telReg, s.telRec)
		if !opts.DisableTracing {
			// One span book for the whole system: the kernel, the SCRAM
			// manager, and the membership layer share its deterministic
			// counters, and its events ride the same black-box ring.
			s.book = telemetry.NewSpanBook(opts.TraceSeed, s.telRec)
			s.manager.setTracing(s.book)
			if s.mem != nil {
				s.mem.SetTracing(s.book)
			}
		}
		if s.mem != nil {
			s.mem.SetTelemetry(s.telReg, s.telRec)
		}
		if s.bus != nil {
			s.bus.Instrument(s.telReg, s.telRec)
		}
		for _, p := range s.pool.Procs() {
			p := p
			if h := p.Stable().Hardened(); h != nil {
				h.Instrument(s.telReg, s.telRec, string(p.ID()))
			}
			p.SetFailObserver(func(frameNum int64, storageFault error) {
				e := telemetry.Event{
					Kind:  telemetry.KindProcHalt,
					Host:  string(p.ID()),
					Attrs: map[string]int64{"halt_frame": frameNum},
				}
				if storageFault != nil {
					e.Detail = storageFault.Error()
				}
				s.telRec.Record(e)
				s.telReg.Counter("failstop/halts").Inc()
			})
		}
	}

	// Scheduler, tasks, hooks.
	var schedOpts []frame.Option
	if opts.Paced {
		schedOpts = append(schedOpts, frame.WithPacing())
	}
	s.sched, err = frame.NewScheduler(rs.FrameLen, schedOpts...)
	if err != nil {
		return nil, err
	}

	startCfg, _ := rs.Config(rs.StartConfig)
	for _, decl := range rs.RealApps() {
		decl := decl
		rt := &appRuntime{sys: s, app: opts.Apps[decl.ID], decl: &decl, cmdReader: scram.NewCommandReader(decl.ID)}
		// Initial host: the start configuration's placement, or the
		// first processor for applications that start off.
		procID, placed := startCfg.Placement[decl.ID]
		if !placed {
			procID = rs.Platform.Procs[0].ID
		}
		rt.proc, _ = s.pool.Proc(procID)
		if spareID, ok := opts.HotStandby[decl.ID]; ok {
			spare, err := s.pool.Proc(spareID)
			if err != nil {
				return nil, fmt.Errorf("core: hot standby for %q: %w", decl.ID, err)
			}
			rt.spare = spare
		}
		startSpec, _ := startCfg.SpecOf(decl.ID)
		rt.curSpec = startSpec
		if startSpec == spec.SpecOff {
			rt.preOK = true
		} else {
			rt.preOK = rt.app.Precondition(startSpec)
		}
		if s.bus != nil {
			ep, err := s.bus.Attach(bus.EndpointID(decl.ID))
			if err != nil {
				return nil, err
			}
			rt.ep = ep
		}
		s.runtimes[decl.ID] = rt
		if err := s.sched.AddTask(rt); err != nil {
			return nil, err
		}
	}
	for _, decl := range rs.Apps {
		if !decl.Virtual {
			continue
		}
		m := envmon.NewMonitor(decl.ID, s.env, s.classify, s.manager.Signal)
		s.monitors = append(s.monitors, m)
		if err := s.sched.AddTask(m); err != nil {
			return nil, err
		}
	}

	// Hook order matters; see each hook's comment.
	s.sched.AddCommitHook(s.failureHook)    // fail-stop failures of this frame (staged writes must die)
	s.sched.AddCommitHook(s.failoverHook)   // hot-standby failovers mask within the failure frame
	s.sched.AddCommitHook(s.syncProcHealth) // hardware fault signals: health factors + direct SCRAM signal
	if s.mem != nil {
		s.sched.AddCommitHook(s.membershipHook) // membership view advances before the kernel plans
	}
	s.sched.AddCommitHook(s.manager.hook) // SCRAM plans and writes next-frame commands
	if s.bus != nil {
		s.sched.AddCommitHook(func(ctx frame.Context) error {
			s.bus.DeliverFrame(ctx.Frame)
			return nil
		})
	}
	if s.mem != nil {
		s.sched.AddCommitHook(s.membershipFinishHook) // stage the frame's membership record before commits
	}
	s.sched.AddCommitHook(s.commitHook)  // frame-atomic stable-storage commits
	s.sched.AddCommitHook(s.scrubHook)   // hardened-storage scrub + media fault clock
	s.sched.AddCommitHook(s.powerHook)   // apply the new configuration's processor modes
	s.sched.AddCommitHook(s.recordHook)  // append tr(cycle) to the trace
	s.sched.AddCommitHook(s.injectHook)  // stage next frame's env changes and repairs
	s.sched.AddCommitHook(s.script.Hook) // scripted env events for the next frame
	if s.telSink.Enabled() {
		s.sched.AddCommitHook(s.telemetryHook) // sample tr(cycle) into the ring; stage ring + metrics
		s.sched.SetObserver(newTelObserver(s.telReg, s.telRec))
	}

	s.lastPowerIsPlan, s.lastPowerTarget = false, rs.StartConfig
	s.applyProcModes(rs.StartConfig)
	return s, nil
}

// failureHook applies ProcFail events scheduled for the frame that just
// executed: the failing processors' staged writes are discarded before the
// commit hook runs, realizing "stops at the end of the last instruction it
// completed successfully".
func (s *System) failureHook(ctx frame.Context) error {
	for _, ev := range s.events {
		if ev.Frame == ctx.Frame && ev.Kind == ProcFail {
			if err := s.pool.Fail(ev.Proc, ctx.Frame); err != nil {
				return err
			}
		}
	}
	return nil
}

// failoverHook performs hot-standby failovers within the failure frame: the
// application's last committed state is restored onto the spare (staged now,
// committed by this frame's commit hook) and the recorder never observes the
// application interrupted — the failure is masked.
func (s *System) failoverHook(frame.Context) error {
	for _, decl := range s.realApps {
		if rt, ok := s.runtimes[decl.ID]; ok {
			rt.maybeFailover()
		}
	}
	return nil
}

// syncProcHealth is the hardware-fault-signal path of Figure 1: at the end
// of every frame it reconciles the processor-health environment factors with
// the pool's actual state, and delivers a newly detected failure straight to
// the SCRAM within the same frame — covering both scheduled ProcEvents and
// spontaneous failures raised during the frame (for example a self-checking
// pair halting its processor on divergence).
func (s *System) syncProcHealth(ctx frame.Context) error {
	changed := false
	for i, p := range s.pool.Procs() {
		factor := s.procHealth[i]
		want := ProcOK
		if p.State() == failstop.StateFailed {
			want = ProcFailed
		}
		cur, _ := s.env.Get(factor)
		if cur == want {
			continue
		}
		s.env.Set(factor, want)
		if want == ProcFailed {
			changed = true
		}
	}
	if changed {
		s.manager.Signal(envmon.Signal{
			Source: s.failureSignalSource(),
			State:  s.classifyEnv(),
			Frame:  ctx.Frame,
			Urgent: true,
		})
	}
	return nil
}

// classifyEnv returns the classification of the current environment, cached
// on the environment's change version: the classifier is a pure function of
// the factor map, so while no factor changed the previous result stands.
func (s *System) classifyEnv() spec.EnvState {
	ver := s.env.Version()
	if !s.envValid || ver != s.envSeen {
		s.envState = s.classify(s.env.Snapshot())
		s.envSeen = ver
		s.envValid = true
	}
	return s.envState
}

// failureSignalSource picks the application attributed as the source of a
// hardware fault signal: the first virtual (monitor) application, since the
// platform's failure detectors play the monitor role for processor health.
func (s *System) failureSignalSource() spec.AppID {
	for _, a := range s.rs.Apps {
		if a.Virtual {
			return a.ID
		}
	}
	return s.rs.Apps[0].ID
}

// commitHook commits every alive processor's stable storage: the end-of-frame
// commit of section 6.1. Failed processors do not commit (their staged
// writes died with them); powered-off processors have nothing staged.
func (s *System) commitHook(frame.Context) error {
	for _, p := range s.pool.Procs() {
		if p.Alive() {
			if n := p.Stable().StagedLen(); n > s.stagedHighWater {
				s.stagedHighWater = n
			}
			p.Stable().Commit()
		}
	}
	return nil
}

// scrubHook runs the end-of-frame scrub pass over every alive processor's
// hardened storage: latent corruption is found and repaired from healthy
// replicas while enough redundancy remains, and each medium's fault clock
// advances to the next frame. An unrecoverable scrub finding halts the owning
// processor through its fault sink, which syncProcHealth detects next frame
// exactly like any other fail-stop processor failure. Plain stores scrub as
// a no-op.
func (s *System) scrubHook(frame.Context) error {
	for _, p := range s.pool.Procs() {
		if p.Alive() {
			// The error, if any, was already routed to the store's
			// fault sink (halting the processor); the scrub report is
			// for campaigns, which read cumulative stats instead.
			//lint:allow stableerr scrub faults reach the halt path via the store's fault sink
			_, _ = p.Stable().Scrub()
		}
	}
	return nil
}

// powerHook sequences processor power modes around reconfigurations.
// Processors the target configuration needs are powered up as soon as the
// plan starts (the prepare and initialize phases execute on them); the
// orderly shutdown and low-power switches of the new configuration are
// applied only after the window completes, when every application has left
// the old placement.
func (s *System) powerHook(frame.Context) error {
	k := s.manager.kernel()
	if target, seq, ok := k.PlanTarget(); ok {
		if !s.lastPowerIsPlan || seq != s.lastPowerSeq || target != s.lastPowerTarget {
			s.lastPowerIsPlan, s.lastPowerSeq, s.lastPowerTarget = true, seq, target
			s.applyTransitionModes(k.Current(), target)
		}
		return nil
	}
	if cur := k.Current(); s.lastPowerIsPlan || cur != s.lastPowerTarget {
		s.lastPowerIsPlan, s.lastPowerTarget = false, cur
		s.applyProcModes(cur)
	}
	return nil
}

// membershipHook advances the membership view by one frame, before the
// SCRAM manager's hook: a takeover in this frame then draws from the
// updated candidate set and the kernel stamps the frame's epoch into its
// commands. It runs against the active kernel's stable store — during a
// takeover frame still the failed primary's, whose committed state survives
// the halt and stays readable.
func (s *System) membershipHook(ctx frame.Context) error {
	s.mem.Step(ctx.Frame, s.manager.store())
	return nil
}

// membershipFinishHook closes the frame's membership processing after the
// kernel ran and before the stable-storage commits: the frame's (possibly
// converged or takeover-bumped) view is staged onto the active kernel's
// store so the epoch commits at this frame's boundary, and the frame's
// application ownership is appended to the invariant log.
func (s *System) membershipFinishHook(ctx frame.Context) error {
	clear(s.memOwners)
	if cfg, ok := s.rs.Config(s.manager.kernel().Current()); ok {
		for _, decl := range s.realApps {
			if _, placed := cfg.Placement[decl.ID]; !placed {
				continue
			}
			if rt, ok := s.runtimes[decl.ID]; ok {
				s.memOwners[decl.ID] = rt.proc.ID()
			}
		}
	}
	return s.mem.Finish(ctx.Frame, s.manager.store(), s.memOwners)
}

// scramProcs returns the processors that must never be shut down: the
// kernel's hosts, plus — with dynamic membership — every non-down member
// (joining processors need frames to catch up; caught-up standbys must stay
// warm to remain takeover-eligible).
func (s *System) scramProcs(needed map[spec.ProcID]bool) {
	needed[s.manager.primary.ID()] = true
	if s.manager.standby != nil {
		needed[s.manager.standby.ID()] = true
	}
	if s.mem != nil {
		for _, id := range s.mem.StandbyProcs() {
			needed[id] = true
		}
	}
}

// applyTransitionModes powers up (at full capacity) every processor either
// the source or the target configuration places applications on, so entry
// phases can execute. Nothing is shut down mid-transition.
func (s *System) applyTransitionModes(source, target spec.ConfigID) {
	clear(s.procScratch)
	needed := s.procScratch
	for _, id := range [2]spec.ConfigID{source, target} {
		if cfg, ok := s.rs.Config(id); ok {
			for _, p := range cfg.PlacedProcs() {
				needed[p] = true
			}
		}
	}
	s.scramProcs(needed)
	for _, p := range s.pool.Procs() {
		if !needed[p.ID()] || p.State() == failstop.StateFailed {
			continue
		}
		if p.State() == failstop.StateOff {
			p.Repair()
		}
		// SetLowPower cannot fail here: failed and off states are
		// handled above.
		_ = p.SetLowPower(false)
	}
}

// applyProcModes applies a configuration's steady-state power modes:
// low-power processors per the configuration, orderly shutdown of
// processors hosting nothing (excluding the SCRAM's processors), restart of
// previously powered-off processors the configuration needs again.
func (s *System) applyProcModes(cfgID spec.ConfigID) {
	cfg, ok := s.rs.Config(cfgID)
	if !ok {
		return
	}
	clear(s.procScratch)
	needed := s.procScratch
	for _, p := range cfg.PlacedProcs() {
		needed[p] = true
	}
	s.scramProcs(needed)
	clear(s.lowScratch)
	lowPower := s.lowScratch
	for _, p := range cfg.LowPower {
		lowPower[p] = true
	}
	for _, p := range s.pool.Procs() {
		switch {
		case p.State() == failstop.StateFailed:
			// Failed processors stay failed until repaired.
		case !needed[p.ID()]:
			p.PowerOff()
		default:
			if p.State() == failstop.StateOff {
				p.Repair()
			}
			// SetLowPower cannot fail here: failed and off states
			// are handled above.
			_ = p.SetLowPower(lowPower[p.ID()])
		}
	}
}

// storageHaltPending reports a processor halted by a storage fault during
// the current frame's commit or scrub — after its applications completed the
// frame's work and delivered their outputs, but before the health factors
// were reconciled. The frame's service was rendered, so the trace records
// this boundary frame as normal; the interruption (and the SCRAM's reaction
// to it) starts at the next frame, when the failure becomes observable.
func (s *System) storageHaltPending(p *failstop.Processor) bool {
	if p.StorageFault() == nil {
		return false
	}
	cur, _ := s.env.Get(ProcHealthFactor(p.ID()))
	return cur == ProcOK
}

// recordHook appends the frame's system state to the trace: the formal
// model's tr(cycle).
func (s *System) recordHook(ctx frame.Context) error {
	k := s.manager.kernel()
	cur := k.Current()
	st := trace.SysState{
		Cycle:  ctx.Frame,
		Config: cur,
		Env:    s.classifyEnv(),
	}
	// Compute every application's state into the scratch slice first. In the
	// steady state the per-app states match the previous frame's exactly, and
	// the previous frame's Apps map — immutable once appended to the trace —
	// is shared instead of allocating an identical copy every frame.
	unchanged := s.lastApps != nil && len(s.lastApps) == len(s.rs.Apps)
	for i, decl := range s.rs.Apps {
		status := k.StatusOf(decl.ID, ctx.Frame)
		appSpec := k.SpecOf(decl.ID)
		preOK := true
		if !decl.Virtual {
			rt := s.runtimes[decl.ID]
			if appSpec != spec.SpecOff {
				preOK = rt.preOK
			}
			// An application that should be running but whose actual
			// host processor is down is interrupted: its AFTA cannot
			// complete and awaits system recovery. (The runtime's
			// host, not the static placement: a hot-standby failover
			// or a migration may have moved the application.)
			if status == trace.StatusNormal && appSpec != spec.SpecOff && !rt.proc.Alive() &&
				!s.storageHaltPending(rt.proc) {
				status = trace.StatusInterrupted
			}
		}
		as := trace.AppState{Status: status, Spec: appSpec, PreOK: preOK}
		s.appScratch[i] = as
		if unchanged && s.lastApps[decl.ID] != as {
			unchanged = false
		}
	}
	if unchanged {
		st.Apps = s.lastApps
	} else {
		//lint:allow allocfree the trace retains this map forever, so it cannot be scratch; built only on a state change, never in steady state
		st.Apps = make(map[spec.AppID]trace.AppState, len(s.rs.Apps))
		for i, decl := range s.rs.Apps {
			st.Apps[decl.ID] = s.appScratch[i]
		}
		s.lastApps = st.Apps
	}
	s.stateChanged = !unchanged || st.Config != s.lastCfgRec || st.Env != s.lastEnvRec
	s.lastCfgRec, s.lastEnvRec = st.Config, st.Env
	if err := s.tr.Append(st); err != nil {
		return err
	}
	// Retention: once the trace holds two full windows, drop back to one,
	// and drop the active kernel's protocol log to the same horizon.
	// Trimming in window-sized chunks amortizes the copy to O(1)/frame and
	// the allocation to one slice per window, and the 2x slack means every
	// cycle inside the horizon stays addressable between trims. Driven only
	// by the frame number, so replays trim at exactly the same frames.
	if s.retain > 0 && s.tr.Len() >= 2*s.retain {
		horizon := s.tr.End() - s.retain
		//lint:allow allocfree retention trim: one slice copy per retain-frames window, amortized O(1) per frame
		s.tr.Trim(horizon)
		k.TrimEvents(horizon)
	}
	return nil
}

// metricsPersistEvery is the frame cadence of metrics-snapshot staging. The
// flight-recorder ring is the authoritative black box and is staged every
// frame it changes; the metrics snapshot is a convenience export, so staging
// it every frame would spend a full JSON marshal per frame for freshness
// nobody reads. After a halt the recovered snapshot may trail the ring by up
// to this many frames.
const metricsPersistEvery = 512

// telemetryHook is the last built-in hook: it samples the frame's recorded
// system state into the flight-recorder ring and stages the ring delta
// (plus, periodically, a metrics snapshot) onto the SCRAM host's stable
// storage. Samples are run-length-encoded — recorded only when the state
// differs from the previous frame's — and because the hook runs after
// commitHook, frame k's staging commits with frame k+1: the recovered black
// box trails the live system by at most one frame, exactly matching the
// fail-stop model (writes staged in the halt frame die with the halt).
func (s *System) telemetryHook(ctx frame.Context) error {
	s.telFrame = ctx.Frame
	if n := len(s.tr.States); n > 0 {
		if st := s.tr.States[n-1]; st.Cycle == ctx.Frame {
			// stateChanged chains frame over frame: while it stays false
			// the appended states are all identical, so the last captured
			// sample still describes the current frame.
			if s.lastFS == nil || s.stateChanged {
				fs := telemetry.CaptureState(st)
				s.telRec.Record(telemetry.Event{
					Frame:  ctx.Frame,
					Kind:   telemetry.KindFrameState,
					Config: string(st.Config),
					State:  fs,
				})
				s.lastFS = fs
				s.lastFSFrame = ctx.Frame
			}
		}
	}
	persistMetrics := ctx.Frame%metricsPersistEvery == metricsPersistEvery-1
	return s.persistTelemetry(persistMetrics)
}

// persistTelemetry stages the ring delta (and, when asked, the metrics
// snapshot) onto the active SCRAM host's stable storage. Skipped while no
// SCRAM host is alive: with the kernel gone there is nowhere dependable to
// write, and the last committed journal already records everything up to
// the halt.
func (s *System) persistTelemetry(metrics bool) error {
	if !s.telSink.Enabled() || !s.manager.activeProc.Alive() {
		return nil
	}
	store := s.manager.store()
	if metrics {
		if err := s.telReg.Persist(store); err != nil {
			return err
		}
	}
	return s.telSink.Persist(store)
}

// FlushTelemetry persists any un-staged telemetry and commits the SCRAM
// host's stable storage, making the full journal — including the final
// frame's events, which the one-frame staging lag would otherwise leave
// uncommitted — recoverable via PollStable. It also closes the run-length
// encoding with a final frame-state sample, so the reconstructed trace
// covers every executed frame. Call it after the last frame of a run; it is
// a no-op when telemetry is disabled or the SCRAM host is down.
func (s *System) FlushTelemetry() error {
	if !s.telSink.Enabled() || !s.manager.activeProc.Alive() {
		return nil
	}
	if s.lastFS != nil && s.telFrame > s.lastFSFrame {
		s.telSink.Record(telemetry.Event{
			Frame:  s.telFrame,
			Kind:   telemetry.KindFrameState,
			Config: string(s.lastFS.Config),
			State:  s.lastFS,
		})
		s.lastFSFrame = s.telFrame
	}
	if err := s.persistTelemetry(true); err != nil {
		return err
	}
	s.manager.store().Commit()
	return nil
}

// Telemetry returns the system's metrics registry and flight recorder; both
// are nil when Options.TelemetryCapacity is negative.
func (s *System) Telemetry() (*telemetry.Registry, *telemetry.Recorder) {
	return s.telReg, s.telRec
}

// SpanBook returns the system's causal-trace span book; nil when telemetry
// or tracing is disabled.
func (s *System) SpanBook() *telemetry.SpanBook { return s.book }

// SCRAMProc returns the processor currently hosting the SCRAM kernel (the
// standby after a takeover). Its stable storage holds the black box.
func (s *System) SCRAMProc() spec.ProcID { return s.manager.activeProc.ID() }

// injectHook applies, at the end of frame k, the health-factor changes and
// repairs that must be visible in frame k+1.
func (s *System) injectHook(ctx frame.Context) error {
	next := ctx.Frame + 1
	for _, ev := range s.events {
		if ev.Frame != next {
			continue
		}
		switch ev.Kind {
		case ProcFail:
			// Applied by failureHook during frame k+1; detection is
			// handled uniformly by syncProcHealth.
		case ProcRepair:
			if err := s.pool.Repair(ev.Proc); err != nil {
				return err
			}
		default:
			return fmt.Errorf("core: unknown processor event kind %d", ev.Kind)
		}
	}
	return nil
}

// Step executes one frame in the caller's goroutine. It is the
// frame-synchronous root: every task and commit hook — kernel planning,
// membership, stable-storage commit, telemetry — runs beneath it, so the
// allocfree discipline holds for everything Step can reach, and a panic
// anywhere beneath it reaches Step's caller.
//
//lint:frame-entry the root of the frame-synchronous call graph
func (s *System) Step() error { return s.sched.Step() }

// Run executes n frames, stopping at the first error.
func (s *System) Run(n int) error { return s.sched.Run(n) }

// RunUntil executes frames until stop returns true or maxFrames elapse.
func (s *System) RunUntil(maxFrames int, stop func() bool) (bool, error) {
	return s.sched.RunUntil(maxFrames, stop)
}

// Frame returns the number of executed frames.
func (s *System) Frame() int64 { return s.sched.Frame() }

// Trace returns the recorded system trace. The caller must not mutate it
// while frames are executing.
func (s *System) Trace() *trace.Trace { return s.tr }

// Kernel returns the active SCRAM kernel.
func (s *System) Kernel() *scram.Kernel { return s.manager.kernel() }

// Report returns the static-obligations report computed at construction.
func (s *System) Report() *statics.Report { return s.report }

// Pool returns the processor pool.
func (s *System) Pool() *failstop.Pool { return s.pool }

// StagedHighWater returns the largest number of staged stable-storage writes
// any single processor carried into a frame commit — a sizing diagnostic for
// the commit batch a real stable store would have to make atomic.
func (s *System) StagedHighWater() int { return s.stagedHighWater }

// Env returns the environment.
func (s *System) Env() *envmon.Environment { return s.env }

// Bus returns the time-triggered bus, or nil if none was configured.
func (s *System) Bus() *bus.Bus { return s.bus }

// AddTask registers an extra frame task (for example a sensor interface unit
// or a physics model). Tasks may be added between frames.
func (s *System) AddTask(t frame.Task) error { return s.sched.AddTask(t) }

// AddCommitHook registers an extra frame-end hook. User hooks run after all
// built-in hooks (bus delivery, commits, trace recording, environment
// scripting), so a hook that mutates shared state does so deterministically
// between frames — the right place for physics and plant models.
func (s *System) AddCommitHook(h frame.CommitHook) { s.sched.AddCommitHook(h) }

// TookOverAt reports whether (and when) the standby SCRAM took over.
func (s *System) TookOverAt() (int64, bool) { return s.manager.TookOverAt() }

// CheckProperties runs the SP1-SP4 checkers over the recorded trace.
func (s *System) CheckProperties() []trace.Violation {
	return trace.CheckAll(s.tr, s.rs)
}

// Membership returns the dynamic-membership manager, or nil when the system
// runs with the static processor set.
func (s *System) Membership() *membership.Manager { return s.mem }

// CheckMembership runs the membership invariant checkers (epoch
// monotonicity, no-split-brain, safe handoff) over the per-frame membership
// log; it returns nil when membership is disabled.
func (s *System) CheckMembership() []membership.Violation {
	if s.mem == nil {
		return nil
	}
	return membership.CheckLog(s.mem.Log())
}

// Close ends the system: every later Step, Run and RunUntil returns
// frame.ErrClosed. Close is idempotent.
func (s *System) Close() { s.sched.Close() }
