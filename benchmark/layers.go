package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/envmon"
	"repro/internal/fleet"
	"repro/internal/spectest"
	"repro/internal/statics"
	"repro/internal/telemetry"
)

// fleetProbes are the traced pass's calls into single layers of the fleet:
// some run beside the control-plane traffic during the window, the rest
// re-execute sampled tenants' recipes standalone after the run.
type fleetProbes struct {
	ringEvents []float64

	// Per-Step time and allocation of standalone replays, split by
	// whether the kernel was reconfiguring before or after the step.
	stepUS          map[string][]float64
	allocFrames     map[string]int64
	allocs, bytes   map[string]uint64
	replayPerFrame  []float64 // µs, StepTo replay as Recover does it
	replayPerTenant []float64 // s
	reconfigs       []float64
	kernelEvents    []float64
	recoverOther    float64 // s
}

// startFleetProbes launches the in-window probes; they stop with stop.
func startFleetProbes(b *fleetBench, h *fleet.Host, parent int64, stop <-chan struct{}, wg *sync.WaitGroup) *fleetProbes {
	p := &fleetProbes{
		stepUS:      map[string][]float64{},
		allocFrames: map[string]int64{},
		allocs:      map[string]uint64{},
		bytes:       map[string]uint64{},
	}
	// The sweep period, seen from outside: the interval between a sampled
	// tenant's batch advances, by polling its status.
	wg.Add(1)
	go func() {
		defer wg.Done()
		t, _ := h.Get(b.sample[0])
		last, lastAt := t.Status().Frame, time.Time{}
		for {
			select {
			case <-stop:
				return
			case <-time.After(500 * time.Microsecond):
			}
			now := time.Now()
			if f := t.Status().Frame; f != last {
				if !lastAt.IsZero() {
					b.tr.record("fleet.sweep", t.ID(), parent, lastAt, now)
				}
				last, lastAt = f, now
			}
		}
	}()
	// Telemetry reads and direct injections on sampled tenants.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
			}
			t, _ := h.Get(b.sample[k%len(b.sample)])
			var events []telemetry.Event
			b.tr.timed("telemetry.snapshot", t.ID(), parent, func() {
				s, _ := t.TelemetrySnapshot()
				events = s.Events
			})
			b.tr.timed("telemetry.assemble", t.ID(), parent, func() { telemetry.AssembleTraces(events) })
			p.ringEvents = append(p.ringEvents, float64(len(events)))
			if k%4 == 0 {
				inj := injectOf(fmt.Sprintf("probe-%d-%d", b.p.seed, k))
				var applied int64
				var err error
				b.tr.timed("fleet.inject_direct", t.ID(), parent, func() { applied, err = h.Inject(t.ID(), inj) })
				if err == nil {
					b.addAck(t.ID(), inj, applied)
				}
			}
		}
	}()
	return p
}

// afterRun times set-up's layers per preset and replays one sampled tenant
// of each preset standalone.
func (p *fleetProbes) afterRun(b *fleetBench) error {
	parent := b.tr.begin("fleet.probes", "", 0)
	defer b.tr.end(parent)
	seen := map[string]bool{}
	for _, id := range b.sample {
		ss := b.spec(id)
		if seen[ss.Preset] {
			continue
		}
		seen[ss.Preset] = true
		preset, err := spectest.Lookup(ss.Preset)
		if err != nil {
			return err
		}
		for r := 0; r < b.p.probeReps; r++ {
			rs := preset.New()
			var cerr error
			b.tr.timed("statics.check", ss.Preset, parent, func() { _, cerr = statics.Check(rs) })
			if cerr != nil {
				return fmt.Errorf("statics.Check(%s): %w", ss.Preset, cerr)
			}
			var sys *core.System
			b.tr.timed("core.new_system", ss.Preset, parent, func() {
				var opts core.Options
				if opts, cerr = fleet.SpawnOptions(ss); cerr == nil {
					sys, cerr = core.NewSystem(opts)
				}
			})
			if cerr != nil {
				return fmt.Errorf("NewSystem(%s): %w", ss.Preset, cerr)
			}
			sys.Close()
		}
		acks := b.recipe(id)
		if err := p.replay(b, parent, ss, acks); err != nil {
			return err
		}
		if err := p.stepFrames(b, parent, ss, acks, false); err != nil {
			return err
		}
		if err := p.stepFrames(b, parent, ss, acks, true); err != nil {
			return err
		}
	}
	return nil
}

// replay re-executes a recipe the way Recover does — NewSystem, StepTo each
// acked injection's frame and apply it, StepTo the budget — and times it.
func (p *fleetProbes) replay(b *fleetBench, parent int64, ss fleet.SpawnSpec, acks []fleet.AckedInjection) error {
	var err error
	start := time.Now()
	func() {
		var opts core.Options
		if opts, err = fleet.SpawnOptions(ss); err != nil {
			return
		}
		var sys *core.System
		if sys, err = core.NewSystem(opts); err != nil {
			return
		}
		defer sys.Close()
		for _, a := range acks {
			if err = sys.StepTo(a.Applied); err != nil {
				return
			}
			sys.InjectFactor(envmon.Factor(a.Inj.Factor), a.Inj.Value)
		}
		err = sys.StepTo(ss.Frames)
	}()
	d := time.Since(start)
	b.tr.record("fleet.recover.replay", ss.ID, parent, start, start.Add(d))
	if err != nil {
		return fmt.Errorf("replaying %s: %w", ss.ID, err)
	}
	p.replayPerTenant = append(p.replayPerTenant, d.Seconds())
	p.replayPerFrame = append(p.replayPerFrame, us(d)/float64(ss.Frames))
	return nil
}

// stepFrames replays a recipe one Step at a time. Each frame is classed
// "reconfig" when the kernel is reconfiguring before or after it, "steady"
// otherwise. countAllocs reads runtime.MemStats around every step instead
// of timing it.
func (p *fleetProbes) stepFrames(b *fleetBench, parent int64, ss fleet.SpawnSpec, acks []fleet.AckedInjection, countAllocs bool) error {
	opts, err := fleet.SpawnOptions(ss)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(opts)
	if err != nil {
		return err
	}
	defer sys.Close()
	start := time.Now()
	var m0, m1 runtime.MemStats
	next := 0
	for sys.Frame() < ss.Frames {
		for next < len(acks) && acks[next].Applied <= sys.Frame() {
			sys.InjectFactor(envmon.Factor(acks[next].Inj.Factor), acks[next].Inj.Value)
			next++
		}
		before := sys.Kernel().Reconfiguring()
		if countAllocs {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		err := sys.Step()
		d := time.Since(t0)
		if countAllocs {
			runtime.ReadMemStats(&m1)
		}
		if err != nil {
			return fmt.Errorf("stepping %s: %w", ss.ID, err)
		}
		class := "steady"
		if before || sys.Kernel().Reconfiguring() {
			class = "reconfig"
		}
		if countAllocs {
			p.allocFrames[class]++
			p.allocs[class] += m1.Mallocs - m0.Mallocs
			p.bytes[class] += m1.TotalAlloc - m0.TotalAlloc
		} else {
			p.stepUS[class] = append(p.stepUS[class], us(d))
		}
	}
	name := "core.step_frames"
	if countAllocs {
		name = "core.alloc_frames"
	} else {
		reg, _ := sys.Telemetry()
		p.reconfigs = append(p.reconfigs, float64(reg.Snapshot().Counters["scram/completes"]))
		p.kernelEvents = append(p.kernelEvents, float64(len(sys.Kernel().Events())))
	}
	b.tr.record(name, ss.ID, parent, start, time.Now())
	return nil
}
