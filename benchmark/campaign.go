package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/stable"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// storageFaultRate is the s1 preset's base per-medium fault rate, as
// cmd/campaign documents it: torn writes and stuck reads at half, bit rot
// at full.
const storageFaultRate = 0.05

func s1Faults() stable.FaultProfile {
	return stable.FaultProfile{
		TornWriteRate: storageFaultRate / 2,
		BitRotRate:    storageFaultRate,
		StuckReadRate: storageFaultRate / 2,
	}
}

// campaignOut is what one campaign phase measured.
type campaignOut struct {
	walls  []time.Duration // one per timed execution, matrix build through BuildReport
	frames int64           // simulated frames per execution
	runs   tally
	totals campaign.Totals

	// traced pass only
	hardenedStepUS []float64
	scrubUS        []float64
}

// framesPerS is the campaign's throughput: simulated frames over wall time
// from building the matrix through BuildReport, median over the executions
// at nproc workers.
func (c campaignOut) framesPerS() float64 {
	rates := make([]float64, len(c.walls))
	for i, d := range c.walls {
		rates[i] = float64(c.frames) / d.Seconds()
	}
	return median(rates)
}

// runCampaign builds, executes and reports the s1 matrix reps times at
// p.workers, then once at one worker; every report must be byte-identical.
func runCampaign(p params, tr *tracer) (campaignOut, error) {
	var out campaignOut
	baseSeed := rand.New(rand.NewSource(p.seed)).Int63n(1 << 30)
	build := func() (campaign.Matrix, error) {
		m := campaign.S1Matrix(p.campaignSeeds, p.campaignFrames, s1Faults())
		m.BaseSeed = baseSeed
		return m, m.Validate()
	}
	var digest string
	check := func(rep campaign.Report, results []campaign.Result, workers int) error {
		for _, r := range results {
			out.runs.Attempted++
			if r.Err != "" || r.Violations > 0 || r.SilentWrongData > 0 {
				out.runs.Failed++
			}
		}
		t := rep.Totals
		if t.Errors > 0 || t.Violations > 0 || t.SilentWrongData > 0 {
			return fmt.Errorf("campaign s1: %d errors, %d SP violations, %d silent wrong data (first error: %v)",
				t.Errors, t.Violations, t.SilentWrongData, rep.FirstError())
		}
		var buf bytes.Buffer
		if err := cli.WriteJSON(&buf, rep); err != nil {
			return err
		}
		sum := sha256.Sum256(buf.Bytes())
		d := hex.EncodeToString(sum[:])
		if digest == "" {
			digest = d
		} else if d != digest {
			return fmt.Errorf("campaign s1 report at %d workers differs from the first report", workers)
		}
		out.totals = t
		return nil
	}

	for rep := 0; rep < p.campaignReps; rep++ {
		execSpan := tr.begin("campaign.execute", fmt.Sprint(p.workers), 0)
		start := time.Now()
		m, err := build()
		if err != nil {
			return out, err
		}
		runs := m.Expand()
		results := campaign.Engine{Workers: p.workers}.Execute(runs)
		var report campaign.Report
		tr.timed("campaign.report", "", execSpan, func() { report = campaign.BuildReport(m, results) })
		out.walls = append(out.walls, time.Since(start))
		tr.end(execSpan)
		out.frames = int64(len(runs) * m.Frames)
		if err := check(report, results, p.workers); err != nil {
			return out, err
		}
	}

	// One worker: the determinism half of the gate, and in the traced pass
	// the per-run times, from Progress timestamps.
	m, err := build()
	if err != nil {
		return out, err
	}
	execSpan := tr.begin("campaign.execute", "1", 0)
	last := time.Now()
	eng := campaign.Engine{Workers: 1}
	if tr != nil {
		eng.Progress = func(_, _ int, res campaign.Result) {
			now := time.Now()
			tr.record("campaign.run."+res.Run.Arm, fmt.Sprint(res.Run.ID), execSpan, last, now)
			last = now
		}
	}
	results := eng.Execute(m.Expand())
	tr.end(execSpan)
	if err := check(campaign.BuildReport(m, results), results, 1); err != nil {
		return out, err
	}
	if tr != nil {
		if err := probeHardened(p, tr, baseSeed, &out); err != nil {
			return out, err
		}
	}
	return out, nil
}

// probeHardened runs shielded-arm systems standalone: per-Step time on
// hardened storage, then the post-mortem path every campaign run ends in —
// a scrub of each alive store, the black-box ring recovered from committed
// storage, and the SP1-SP4 check over the trace.
func probeHardened(p params, tr *tracer, baseSeed int64, out *campaignOut) error {
	parent := tr.begin("campaign.probes", "", 0)
	defer tr.end(parent)
	for s := 0; s < p.probeSystems; s++ {
		c := inject.StorageCampaign{
			Seed:      baseSeed + int64(s),
			Frames:    p.campaignFrames,
			EnvEvents: p.campaignFrames / 25,
			Replicas:  3,
			Faults:    s1Faults(),
		}
		if err := probeHardenedSystem(c, tr, parent, out); err != nil {
			return fmt.Errorf("hardened probe seed %d: %w", c.Seed, err)
		}
	}
	return nil
}

func probeHardenedSystem(c inject.StorageCampaign, tr *tracer, parent int64, out *campaignOut) error {
	opts := c.Options()
	sys, err := core.NewSystem(opts)
	if err != nil {
		return err
	}
	defer sys.Close()
	key := fmt.Sprint(c.Seed)
	for sys.Frame() < int64(c.Frames) {
		t0 := time.Now()
		err := sys.Step()
		out.hardenedStepUS = append(out.hardenedStepUS, us(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("step: %w", err)
		}
	}
	for _, proc := range sys.Pool().Procs() {
		if !proc.Alive() {
			continue
		}
		t0 := time.Now()
		_, err := proc.Stable().Scrub()
		out.scrubUS = append(out.scrubUS, us(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("scrub of %s: %w", proc.ID(), err)
		}
	}
	if err := sys.FlushTelemetry(); err != nil {
		return err
	}
	snap, err := sys.Pool().PollStable(sys.SCRAMProc())
	if err != nil {
		return err
	}
	var ringErr error
	tr.timed("telemetry.recover_ring", key, parent, func() { _, ringErr = telemetry.RecoverRing(snap) })
	if ringErr != nil {
		return fmt.Errorf("recovering the ring: %w", ringErr)
	}
	var violations []trace.Violation
	tr.timed("trace.check", key, parent, func() { violations = trace.CheckAll(sys.Trace(), opts.Spec) })
	if len(violations) > 0 {
		return fmt.Errorf("%d SP violations", len(violations))
	}
	return nil
}
