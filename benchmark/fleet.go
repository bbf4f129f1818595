package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/envmon"
	"repro/internal/fleet"
	"repro/internal/stable"
)

// shape is one fleet workload: its tenants, their environment scripts and
// the control-plane traffic offered while they run.
type shape struct {
	tenants int
	// nominalFPS is the aggregate frame rate the frame budget is sized
	// for: at that rate the measured window lasts --seconds.
	nominalFPS float64
	readRate   float64
	injectRate float64
	script     func(rng *rand.Rand, frames int64) []envmon.Event
}

var shapes = map[string]shape{
	// A hosted tenant spends almost all its life between
	// reconfigurations: one early alt1 degrade, then quiet.
	"fleet-steady": {
		tenants:    400,
		nominalFPS: 230_000,
		readRate:   400,
		injectRate: 40,
		script: func(rng *rand.Rand, _ int64) []envmon.Event {
			return []envmon.Event{{Frame: 10 + rng.Int63n(40), Factor: "alt1", Value: "failed"}}
		},
	},
	// alt1 flips every 20 frames (the churn20 shape of BENCH_frame.json),
	// so about a fifth of frames sit inside a reconfiguration window. A
	// per-tenant phase keeps tenants from reconfiguring in lockstep.
	"fleet-churn": {
		tenants:    100,
		nominalFPS: 69_000,
		readRate:   400,
		injectRate: 25,
		script: func(rng *rand.Rand, frames int64) []envmon.Event {
			var ev []envmon.Event
			val := "failed"
			for f := 10 + rng.Int63n(20); f < frames; f += 20 {
				ev = append(ev, envmon.Event{Frame: f, Factor: "alt1", Value: val})
				if val == "failed" {
					val = "ok"
				} else {
					val = "failed"
				}
			}
			return ev
		},
	},
}

const (
	// windowShare ends the measured window once this share of the fleet's
	// total frame budget has been stepped: before any tenant completes,
	// so neither ramp-up nor tail is in it.
	windowShare = 0.9
	// retainFrames is every tenant's journal and trace retention window.
	retainFrames = 64
	// sliceLen cuts the window into slices for query_p99_ms, the median of
	// the slices' p99: a slice still holds about 1200 reads, 12 beyond its
	// p99, and one slice hit by a stall of the machine moves the median
	// far less than it moves a p99 over the whole window.
	sliceLen = 3 * time.Second
)

// fleetOut is what one fleet phase measured.
type fleetOut struct {
	setups        []time.Duration
	window        time.Duration
	windowFrames  int64
	reads         *stream
	injects       *stream
	heapPerTenant float64 // bytes
	recover       time.Duration
	recovered     tally
	spawns        tally
	commits       int64
	batch         int
	gc            gcDelta
	probes        *fleetProbes // traced pass only
}

// fleetBench holds one fleet phase's state.
type fleetBench struct {
	p      params
	tr     *tracer
	rng    *rand.Rand
	specs  []fleet.SpawnSpec
	bodies [][]byte
	ids    []string
	sample []string

	mu   sync.Mutex
	acks map[string][]fleet.AckedInjection
}

func newFleetBench(p params, tr *tracer) (*fleetBench, error) {
	b := &fleetBench{
		p:    p,
		tr:   tr,
		rng:  rand.New(rand.NewSource(p.seed)),
		acks: make(map[string][]fleet.AckedInjection),
	}
	presets := fleet.Presets()
	byPreset := make([][]string, len(presets))
	for i := 0; i < p.shape.tenants; i++ {
		ss := fleet.SpawnSpec{
			ID:     fmt.Sprintf("t-%04d", i),
			Preset: presets[i%len(presets)],
			Seed:   b.rng.Int63(),
			Frames: p.frames,
			Script: p.shape.script(b.rng, p.frames),
		}
		body, err := json.Marshal(ss)
		if err != nil {
			return nil, err
		}
		b.specs = append(b.specs, ss)
		b.bodies = append(b.bodies, body)
		b.ids = append(b.ids, ss.ID)
		byPreset[i%len(presets)] = append(byPreset[i%len(presets)], ss.ID)
	}
	// The equivalence sample spans every preset.
	for _, ids := range byPreset {
		for _, k := range b.rng.Perm(len(ids))[:min(p.sample, len(ids))] {
			b.sample = append(b.sample, ids[k])
		}
	}
	return b, nil
}

func (b *fleetBench) config(st *stable.Store) fleet.Config {
	return fleet.Config{Shards: b.p.shards, Manifest: st, RetainFrames: retainFrames}
}

func (b *fleetBench) addAck(id string, inj fleet.Injection, applied int64) {
	b.mu.Lock()
	b.acks[id] = append(b.acks[id], fleet.AckedInjection{Inj: inj, Applied: applied})
	b.mu.Unlock()
}

// recipe returns a tenant's acked injections in applied-frame order, the
// order a standalone replay applies them in.
func (b *fleetBench) recipe(id string) []fleet.AckedInjection {
	b.mu.Lock()
	acks := append([]fleet.AckedInjection(nil), b.acks[id]...)
	b.mu.Unlock()
	sort.SliceStable(acks, func(i, j int) bool { return acks[i].Applied < acks[j].Applied })
	return acks
}

func (b *fleetBench) spec(id string) fleet.SpawnSpec {
	for _, ss := range b.specs {
		if ss.ID == id {
			return ss
		}
	}
	panic("benchmark: unknown tenant " + id)
}

// apiServer serves a host's control plane on loopback.
type apiServer struct {
	srv  *http.Server
	base string
	done chan struct{}
}

func startAPI(h *fleet.Host) (*apiServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &apiServer{
		srv:  &http.Server{Handler: fleet.NewAPI(h).Handler()},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// close stops the server after its requests finish and waits for it.
func (s *apiServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
	}
	<-s.done
}

// hostUp is a live durable host and its control plane.
type hostUp struct {
	media []stable.Medium
	store *stable.Store
	host  *fleet.Host
	api   *apiServer
}

func (u *hostUp) close() {
	u.api.close()
	u.host.Close()
}

// setUp boots a durable host on fresh replicated media and spawns every
// tenant over POST /systems, one request at a time.
func (b *fleetBench) setUp(parent int64) (*hostUp, time.Duration, error) {
	media := []stable.Medium{stable.NewMemMedium(), stable.NewMemMedium()}
	st := stable.NewHardened(stable.MountReplicatedStore(media...))
	u := &hostUp{media: media, store: st, host: fleet.NewHost(b.config(st))}
	api, err := startAPI(u.host)
	if err != nil {
		u.host.Close()
		return nil, 0, err
	}
	u.api = api
	client := newClient()
	defer client.CloseIdleConnections()
	start := time.Now()
	for i, body := range b.bodies {
		t0 := time.Now()
		resp, err := client.Post(api.base+"/systems", "application/json", bytes.NewReader(body))
		if err == nil {
			err = drain(resp)
			if err == nil && resp.StatusCode != http.StatusCreated {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		b.tr.record("fleet.spawn", b.ids[i], parent, t0, time.Now())
		if err != nil {
			u.close()
			return nil, 0, fmt.Errorf("spawning %s: %w", b.ids[i], err)
		}
	}
	return u, time.Since(start), nil
}

// run executes the fleet phase: set-up trials, the measured window under
// control-plane load, the run to completion, the hard stop and Recover,
// with the correctness gate after the run and again after recovery.
func (b *fleetBench) run() (fleetOut, error) {
	var out fleetOut
	n := len(b.specs)
	// Set up several times and keep the last host: the median set-up time
	// is steadier than one sample.
	var u *hostUp
	var heapBefore uint64
	for trial := 0; trial < b.p.setupTrials; trial++ {
		last := trial == b.p.setupTrials-1
		if last {
			heapBefore = liveHeap()
		}
		trialSpan := b.tr.begin("fleet.setup", fmt.Sprint(trial), 0)
		up, d, err := b.setUp(trialSpan)
		b.tr.end(trialSpan)
		out.spawns.Attempted += n
		if err != nil {
			out.spawns.Failed++
			return out, err
		}
		out.setups = append(out.setups, d)
		if !last {
			up.close()
		} else {
			u = up
		}
	}

	out.batch = u.host.Stats().Batch

	// The measured window: from the last spawn until windowShare of the
	// total frame budget has been stepped.
	total := int64(n) * b.p.frames
	target := int64(windowShare * float64(total))
	perTenant := func() int64 { return u.host.FramesStepped() / int64(n) }
	rng := rand.New(rand.NewSource(b.rng.Int63()))
	reads := &stream{
		name: "read", base: u.api.base, client: newClient(),
		period:       time.Duration(float64(time.Second) / b.p.shape.readRate),
		next:         readSchedule(rand.New(rand.NewSource(rng.Int63())), b.ids),
		journalSince: func() int64 { return max(0, perTenant()-retainFrames) },
		tr:           b.tr,
	}
	injects := &stream{
		name: "inject", base: u.api.base, client: newClient(),
		period: time.Duration(float64(time.Second) / b.p.shape.injectRate),
		next:   injectSchedule(rand.New(rand.NewSource(rng.Int63())), b.ids, fmt.Sprintf("r%d", b.p.seed)),
		tr:     b.tr,
	}
	window := b.tr.begin("fleet.window", "", 0)
	reads.parent, injects.parent = window, window
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var probes *fleetProbes
	if b.tr != nil {
		probes = startFleetProbes(b, u.host, window, stop, &wg)
	}
	start := time.Now()
	f0 := u.host.FramesStepped()
	gc0 := readGC()
	for _, s := range []*stream{reads, injects} {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.run(start, stop)
		}()
	}
	deadline := start.Add(b.p.timeout)
	for u.host.FramesStepped() < target {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			u.close()
			return out, fmt.Errorf("window did not reach %d frames within %s", target, b.p.timeout)
		}
		time.Sleep(time.Millisecond)
	}
	out.window = time.Since(start)
	out.windowFrames = u.host.FramesStepped() - f0
	out.gc = readGC().sub(gc0)
	close(stop)
	wg.Wait()
	b.tr.end(window)
	reads.client.CloseIdleConnections()
	injects.client.CloseIdleConnections()
	out.reads, out.injects, out.probes = reads, injects, probes
	for _, o := range injects.outcomes {
		if o.ok && o.op.dupOf < 0 {
			b.addAck(o.op.tenant, injectOf(o.op.reqID), o.applied)
		}
	}

	if err := b.awaitCompletion(u.host, deadline); err != nil {
		u.close()
		return out, err
	}
	if err := b.gate(u.host, "after the run"); err != nil {
		u.close()
		return out, err
	}
	if len(injects.mismatches) > 0 {
		u.close()
		return out, errors.New(injects.mismatches[0])
	}
	out.heapPerTenant = float64(liveHeap()-heapBefore) / float64(n)
	out.commits = u.store.Hardened().Stats().Commits
	if probes != nil {
		if err := probes.afterRun(b); err != nil {
			u.close()
			return out, err
		}
	}

	// The hard stop: Close journals nothing more, exactly as after kill -9,
	// and Recover rebuilds every tenant from the surviving media.
	media := u.media
	u.close()
	u = nil
	// A restarted host is a fresh process: hand the dead host's heap back
	// to the OS so Recover allocates the way it would after kill -9.
	debug.FreeOSMemory()
	recoverSpan := b.tr.begin("fleet.recover", "", 0)
	t0 := time.Now()
	h, rec, err := fleet.Recover(b.config(stable.NewHardened(stable.MountReplicatedStore(media...))))
	out.recover = time.Since(t0)
	b.tr.end(recoverSpan)
	if err != nil {
		return out, fmt.Errorf("recover: %w", err)
	}
	defer h.Close()
	out.recovered = tally{Attempted: n, Failed: n - rec.Completed}
	if rec.Tenants != n || rec.Completed != n || len(rec.Dropped) > 0 || len(rec.Quarantined) > 0 {
		return out, fmt.Errorf("recover rebuilt %d of %d tenants (%d completed, dropped %v, quarantined %v)",
			rec.Tenants, n, rec.Completed, rec.Dropped, rec.Quarantined)
	}
	if err := b.gate(h, "after recovery"); err != nil {
		return out, err
	}
	if probes != nil {
		// What Recover spends beyond replaying the tenants: manifest load,
		// decoding and bookkeeping.
		probes.recoverOther = out.recover.Seconds() - float64(n)*mean(probes.replayPerTenant)
	}
	return out, nil
}

// drain reads and closes a response body so its connection is reused.
func drain(resp *http.Response) error {
	defer resp.Body.Close()
	_, err := io.Copy(io.Discard, resp.Body)
	return err
}

func injectOf(reqID string) fleet.Injection {
	return fleet.Injection{Kind: "env", Factor: "alt2", Value: "ok", RequestID: reqID}
}

// awaitCompletion waits until no tenant is running any more.
func (b *fleetBench) awaitCompletion(h *fleet.Host, deadline time.Time) error {
	for {
		running := 0
		for _, st := range h.List() {
			if st.State == fleet.StateRunning {
				running++
			}
		}
		if running == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d tenants still running at the deadline", running)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// gate is the fleet's correctness check: every tenant completed at its
// budget, none quarantined, and the sample byte-identical to its recipe's
// standalone run.
func (b *fleetBench) gate(h *fleet.Host, when string) error {
	list := h.List()
	if len(list) != len(b.specs) {
		return fmt.Errorf("%s: host lists %d tenants, want %d", when, len(list), len(b.specs))
	}
	for _, st := range list {
		if st.State != fleet.StateCompleted || st.Frame != b.p.frames {
			return fmt.Errorf("%s: tenant %s is %s at frame %d (%s), want completed at %d",
				when, st.ID, st.State, st.Frame, st.Reason, b.p.frames)
		}
	}
	for _, id := range b.sample {
		t, ok := h.Get(id)
		if !ok {
			return fmt.Errorf("%s: tenant %s missing", when, id)
		}
		if err := fleet.CheckEquivalence(t, b.recipe(id)); err != nil {
			return fmt.Errorf("%s: %w", when, err)
		}
	}
	return nil
}

// liveHeap returns the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// gcDelta is the collector's work over an interval.
type gcDelta struct {
	cycles   uint64
	gcCPU    float64
	totalCPU float64
}

func (d gcDelta) sub(o gcDelta) gcDelta {
	return gcDelta{cycles: d.cycles - o.cycles, gcCPU: d.gcCPU - o.gcCPU, totalCPU: d.totalCPU - o.totalCPU}
}

func readGC() gcDelta {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcDelta{cycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}
