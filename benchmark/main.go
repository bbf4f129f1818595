// Command benchmark is the repository's end-to-end benchmark. One run
// drives a durable fleet host through its HTTP control plane on loopback,
// hard-stops it and recovers it with fleet.Recover, then executes the s1
// storage-fault campaign through campaign.Engine. The workload chooses the
// fleet's load shape (fleet-steady or fleet-churn); the campaign phase is
// the same in both. README.md explains the workloads and metrics.
//
//	go run . --workload fleet-steady --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object holding
// every end-to-end metric. With --trace 1 the run makes an untraced pass and
// then a traced pass, prints both passes' end-to-end metrics and their
// difference (the tracing overhead), writes the traced pass's spans as JSON
// lines, and ends with a JSON object holding every per-layer metric. A run
// whose correctness gate fails prints the failure and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// params sizes one run. newParams gives the full size; the self-test
// shrinks it.
type params struct {
	workload string
	seed     int64
	seconds  float64
	shape    shape
	// frames is every tenant's frame budget.
	frames int64
	// shards leaves one core to the control plane and the generator.
	shards      int
	workers     int // campaign workers
	setupTrials int
	// sample tenants per preset are checked for equivalence and probed.
	sample         int
	probeReps      int
	probeSystems   int
	campaignSeeds  int
	campaignFrames int
	campaignReps   int
	timeout        time.Duration
}

func newParams(workload string, seed int64, seconds float64) (params, error) {
	sh, ok := shapes[workload]
	if !ok {
		names := make([]string, 0, len(shapes))
		for name := range shapes {
			names = append(names, name)
		}
		sort.Strings(names)
		return params{}, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(names, ", "))
	}
	if seconds <= 0 {
		return params{}, fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	nproc := runtime.NumCPU()
	return params{
		workload:       workload,
		seed:           seed,
		seconds:        seconds,
		shape:          sh,
		frames:         int64(math.Ceil(seconds * sh.nominalFPS / (windowShare * float64(sh.tenants)))),
		shards:         max(1, nproc-1),
		workers:        nproc,
		setupTrials:    7,
		sample:         2,
		probeReps:      10,
		probeSystems:   3,
		campaignSeeds:  25,
		campaignFrames: 300,
		campaignReps:   5,
		timeout:        150 * time.Second,
	}, nil
}

// tally counts one class of operations.
type tally struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the fleet or the campaign tool sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"frames_per_s", "frames/s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"heap_kb_per_tenant", "KB"},
	{"recover_s", "s"},
}

// perLayer are the traced pass's metrics, each measured at the boundary of
// one module (or the Go runtime).
var perLayer = []metricDef{
	{"fleet.spawn_ms", "ms"},
	{"statics.check_ms", "ms"},
	{"core.new_system_ms", "ms"},
	{"fleet.api.status_ms.p50", "ms"},
	{"fleet.api.status_ms.p99", "ms"},
	{"fleet.api.metrics_ms.p50", "ms"},
	{"fleet.api.metrics_ms.p99", "ms"},
	{"fleet.api.traces_ms.p50", "ms"},
	{"fleet.api.traces_ms.p99", "ms"},
	{"fleet.api.journal_ms.p50", "ms"},
	{"fleet.api.journal_ms.p99", "ms"},
	{"telemetry.snapshot_us", "us"},
	{"telemetry.assemble_us", "us"},
	{"telemetry.ring_events", "count"},
	{"fleet.api.inject_ms.p50", "ms"},
	{"fleet.api.inject_ms.p90", "ms"},
	{"fleet.sweep_ms", "ms"},
	{"fleet.inject_direct_ms", "ms"},
	{"fleet.dedupe_hits", "count"},
	{"core.step_us.steady", "us"},
	{"core.step_us.reconfig", "us"},
	{"core.allocs_per_frame.steady", "allocs/frame"},
	{"core.allocs_per_frame.reconfig", "allocs/frame"},
	{"core.bytes_per_frame.steady", "B/frame"},
	{"core.bytes_per_frame.reconfig", "B/frame"},
	{"fleet.manifest_commits", "count"},
	{"fleet.recover.replay_us_per_frame", "us"},
	{"fleet.recover.other_s", "s"},
	{"scram.reconfigs", "count"},
	{"scram.kernel_events", "count"},
	{"core.step_us.hardened", "us"},
	{"stable.scrub_us", "us"},
	{"stable.faults_injected", "count"},
	{"stable.read_repairs", "count"},
	{"stable.scrub_repairs", "count"},
	{"stable.repairs_per_fault", "ratio"},
	{"campaign.frames_per_s", "frames/s"},
	{"campaign.run_ms.shielded", "ms"},
	{"campaign.run_ms.defeat", "ms"},
	{"campaign.report_ms", "ms"},
	{"trace.check_ms", "ms"},
	{"telemetry.recover_ring_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gen_lag_p99_ms", "ms"},
}

// pass is one execution of the workload: the fleet phase, then the
// campaign phase.
type pass struct {
	fleet fleetOut
	camp  campaignOut
}

func runPass(p params, tr *tracer) (pass, error) {
	var out pass
	b, err := newFleetBench(p, tr)
	if err != nil {
		return out, err
	}
	if out.fleet, err = b.run(); err != nil {
		return out, fmt.Errorf("%s: %w", p.workload, err)
	}
	// A campaign is a process of its own: hand the fleet phase's freed
	// heap back to the OS so every run's campaign starts from the same
	// memory state, not from whatever the scavenger has returned so far.
	debug.FreeOSMemory()
	if out.camp, err = runCampaign(p, tr); err != nil {
		return out, fmt.Errorf("campaign-s1: %w", err)
	}
	return out, nil
}

// ops is the failure accounting, by operation class.
func (ps pass) ops() map[string]tally {
	f := ps.fleet
	return map[string]tally{
		"spawn":        f.spawns,
		"read":         {Attempted: len(f.reads.outcomes), Failed: f.reads.failed()},
		"inject":       {Attempted: len(f.injects.outcomes), Failed: f.injects.failed()},
		"recovered":    f.recovered,
		"campaign_run": ps.camp.runs,
	}
}

func (ps pass) endToEnd() map[string]float64 {
	f := ps.fleet
	setups := make([]float64, len(f.setups))
	for i, d := range f.setups {
		setups[i] = d.Seconds()
	}
	reads := f.reads.latencies(f.window, "")
	return map[string]float64{
		"setup_s":            median(setups),
		"frames_per_s":       float64(f.windowFrames) / f.window.Seconds(),
		"query_p50_ms":       quantile(reads, 0.50),
		"query_p99_ms":       f.reads.sliceQuantile(f.window, sliceLen, 0.99),
		"heap_kb_per_tenant": f.heapPerTenant / 1024,
		"recover_s":          f.recover.Seconds(),
	}
}

// perLayer computes the traced pass's layer metrics from its spans and
// probes.
func (ps pass) perLayer(tr *tracer) map[string]float64 {
	f, c, pr := ps.fleet, ps.camp, ps.fleet.probes
	spanMS := func(name string, q float64) float64 {
		var xs []float64
		for _, d := range tr.durations(name) {
			xs = append(xs, ms(d))
		}
		return quantile(xs, q)
	}
	spanUS := func(name string) float64 { return spanMS(name, 0.5) * 1000 }
	perFrame := func(total map[string]uint64, class string) float64 {
		return float64(total[class]) / float64(pr.allocFrames[class])
	}
	dedupe := 0
	for _, o := range f.injects.outcomes {
		if o.ok && o.op.dupOf >= 0 {
			dedupe++
		}
	}
	st := c.totals
	faults := st.Injected.TornWrites + st.Injected.BitFlips + st.Injected.StuckReads
	repairs := st.Storage.ReadRepairs + st.Storage.ScrubRepairs
	lags := append(f.reads.lagMS(), f.injects.lagMS()...)
	m := map[string]float64{
		"fleet.spawn_ms":                    spanMS("fleet.spawn", 0.5),
		"statics.check_ms":                  spanMS("statics.check", 0.5),
		"core.new_system_ms":                spanMS("core.new_system", 0.5),
		"telemetry.snapshot_us":             spanUS("telemetry.snapshot"),
		"telemetry.assemble_us":             spanUS("telemetry.assemble"),
		"telemetry.ring_events":             median(pr.ringEvents),
		"fleet.sweep_ms":                    spanMS("fleet.sweep", 0.5),
		"fleet.inject_direct_ms":            spanMS("fleet.inject_direct", 0.5),
		"fleet.dedupe_hits":                 float64(dedupe),
		"core.step_us.steady":               median(pr.stepUS["steady"]),
		"core.step_us.reconfig":             median(pr.stepUS["reconfig"]),
		"core.allocs_per_frame.steady":      perFrame(pr.allocs, "steady"),
		"core.allocs_per_frame.reconfig":    perFrame(pr.allocs, "reconfig"),
		"core.bytes_per_frame.steady":       perFrame(pr.bytes, "steady"),
		"core.bytes_per_frame.reconfig":     perFrame(pr.bytes, "reconfig"),
		"fleet.manifest_commits":            float64(f.commits),
		"fleet.recover.replay_us_per_frame": median(pr.replayPerFrame),
		"fleet.recover.other_s":             pr.recoverOther,
		"scram.reconfigs":                   median(pr.reconfigs),
		"scram.kernel_events":               median(pr.kernelEvents),
		"core.step_us.hardened":             median(c.hardenedStepUS),
		"stable.scrub_us":                   median(c.scrubUS),
		"stable.faults_injected":            float64(faults),
		"stable.read_repairs":               float64(st.Storage.ReadRepairs),
		"stable.scrub_repairs":              float64(st.Storage.ScrubRepairs),
		"stable.repairs_per_fault":          float64(repairs) / float64(faults),
		"campaign.frames_per_s":             c.framesPerS(),
		"campaign.run_ms.shielded":          spanMS("campaign.run.shielded", 0.5),
		"campaign.run_ms.defeat":            spanMS("campaign.run.defeat", 0.5),
		"campaign.report_ms":                spanMS("campaign.report", 0.5),
		"trace.check_ms":                    spanMS("trace.check", 0.5),
		"telemetry.recover_ring_ms":         spanMS("telemetry.recover_ring", 0.5),
		"runtime.gc_cycles":                 float64(f.gc.cycles),
		"runtime.gc_cpu_fraction":           f.gc.gcCPU / f.gc.totalCPU,
		"runtime.gen_lag_p99_ms":            quantile(lags, 0.99),
	}
	for _, route := range []string{"status", "metrics", "traces", "journal"} {
		xs := f.reads.latencies(f.window, route)
		m["fleet.api."+route+"_ms.p50"] = quantile(xs, 0.50)
		m["fleet.api."+route+"_ms.p99"] = quantile(xs, 0.99)
	}
	injects := f.injects.latencies(f.window, "")
	m["fleet.api.inject_ms.p50"] = quantile(injects, 0.50)
	m["fleet.api.inject_ms.p90"] = quantile(injects, 0.90)
	return m
}

// value is one metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// collect checks that every defined metric has a finite value.
func collect(defs []metricDef, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no value (%v)", d.name, v)
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	return out, nil
}

// hostBlock is what every result is measured on and with.
func hostBlock(p params, ps pass) map[string]any {
	rev := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go":                runtime.Version(),
		"git_rev":           rev,
		"workload":          p.workload,
		"seed":              p.seed,
		"shards":            p.shards,
		"batch":             ps.fleet.batch,
		"tenants":           p.shape.tenants,
		"frames_per_tenant": p.frames,
		"window_share":      windowShare,
		"retain_frames":     retainFrames,
		"read_rate":         p.shape.readRate,
		"inject_rate":       p.shape.injectRate,
		"campaign":          fmt.Sprintf("s1 %d seeds x 2 arms x %d frames, fault rate %g, %d workers", p.campaignSeeds, p.campaignFrames, storageFaultRate, p.workers),
	}
}

// report prints one pass's accounting and end-to-end table.
func report(w io.Writer, label string, p params, ps pass) {
	f := ps.fleet
	host, _ := json.Marshal(hostBlock(p, ps))
	fmt.Fprintf(w, "%s host %s\n", label, host)
	ops := ps.ops()
	classes := make([]string, 0, len(ops))
	for c := range ops {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Fprintf(w, "%s ops", label)
	for _, c := range classes {
		fmt.Fprintf(w, " %s %d/%d failed", c, ops[c].Failed, ops[c].Attempted)
	}
	fmt.Fprintln(w)
	samples := func(ds []time.Duration) string {
		out := make([]string, len(ds))
		for i, d := range ds {
			out[i] = fmt.Sprintf("%.3f", d.Seconds())
		}
		return strings.Join(out, " ")
	}
	fmt.Fprintf(w, "%s samples set-up s %s; campaign s %s (median %.1f frames/s)\n",
		label, samples(f.setups), samples(ps.camp.walls), ps.camp.framesPerS())
	lags := append(f.reads.lagMS(), f.injects.lagMS()...)
	injects := f.injects.latencies(f.window, "")
	fmt.Fprintf(w, "%s inject ack p50 %.3f ms p90 %.3f ms over %d injects\n",
		label, quantile(injects, 0.5), quantile(injects, 0.9), len(injects))
	fmt.Fprintf(w, "%s window %.2fs %d frames; generator lag p50 %.3f ms p99 %.3f ms; busy read %.3f inject %.3f; gc %d cycles\n",
		label, f.window.Seconds(), f.windowFrames, quantile(lags, 0.5), quantile(lags, 0.99),
		f.reads.busy.Seconds()/f.window.Seconds(), f.injects.busy.Seconds()/f.window.Seconds(), f.gc.cycles)
	e2e := ps.endToEnd()
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%s %-24s %14.4f %s\n", label, d.name, e2e[d.name], d.unit)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "fleet-steady or fleet-churn")
	seed := fs.Int64("seed", 1, "workload seed: spawn specs, op schedule and campaign matrix derive from it")
	seconds := fs.Float64("seconds", 12, "length of the measured fleet window at the nominal frame rate")
	traced := fs.Int("trace", 0, "1 adds a traced pass and prints per-layer metrics")
	spansOut := fs.String("spans-out", "", "where the traced pass writes its spans (default .bench_build/spans/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "benchmark: --trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	p, err := newParams(*workload, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	path := *spansOut
	if path == "" {
		path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", p.workload, p.seed))
	}
	res, err := execute(p, *traced == 1, path, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// execute runs the untraced pass and, when traced, the traced pass, and
// returns the result line. Any gate failure is an error.
func execute(p params, traced bool, spansPath string, w io.Writer) (result, error) {
	fmt.Fprintf(w, "benchmark %s seed %d seconds %g trace %v\n", p.workload, p.seed, p.seconds, traced)
	var res result
	count := func(ps pass) {
		for _, t := range ps.ops() {
			res.Attempted += t.Attempted
			res.Failed += t.Failed
		}
	}
	plain, err := runPass(p, nil)
	if err != nil {
		return res, err
	}
	count(plain)
	report(w, "untraced", p, plain)
	e2e, err := collect(endToEnd, plain.endToEnd())
	if err != nil {
		return res, err
	}
	if !traced {
		res.Metrics, res.Correct = e2e, true
		return res, nil
	}

	tr := newTracer()
	withSpans, err := runPass(p, tr)
	if err != nil {
		return res, err
	}
	count(withSpans)
	report(w, "traced", p, withSpans)
	if _, err := collect(endToEnd, withSpans.endToEnd()); err != nil {
		return res, err
	}
	a, b := plain.endToEnd(), withSpans.endToEnd()
	for _, d := range endToEnd {
		fmt.Fprintf(w, "overhead %-24s untraced %14.4f traced %14.4f %+7.2f%%\n",
			d.name, a[d.name], b[d.name], 100*(b[d.name]-a[d.name])/a[d.name])
	}
	layers := withSpans.perLayer(tr)
	for _, d := range perLayer {
		fmt.Fprintf(w, "layer %-34s %14.4f %s\n", d.name, layers[d.name], d.unit)
	}
	if err := tr.write(spansPath); err != nil {
		return res, err
	}
	fmt.Fprintf(w, "spans: %s\n", spansPath)
	if res.Metrics, err = collect(perLayer, layers); err != nil {
		return res, err
	}
	res.Correct = true
	return res, nil
}
