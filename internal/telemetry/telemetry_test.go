package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/trace"
)

// memKV is an in-memory stable-storage stand-in for persistence tests.
type memKV map[string][]byte

func (m memKV) Put(key string, val []byte) { m[key] = append([]byte(nil), val...) }
func (m memKV) Delete(key string)          { delete(m, key) }

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("a/b")
	c.Add(3)
	if got := reg.Counter("a/b").Value(); got != 3 {
		t.Errorf("Counter re-resolve = %d, want 3", got)
	}
	g := reg.Gauge("g")
	g.Set(7)
	if got := reg.Gauge("g").Value(); got != 7 {
		t.Errorf("Gauge re-resolve = %d, want 7", got)
	}
	h := reg.Histogram("h")
	h.Observe(4)
	if got := reg.Histogram("h").Snapshot().Count; got != 1 {
		t.Errorf("Histogram re-resolve count = %d, want 1", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewRegistry().Histogram("h", 1, 3, 10)
	for _, v := range []int64{0, 1, 2, 3, 5, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if want := []int64{2, 2, 1, 1}; len(s.Counts) != len(want) {
		t.Fatalf("Counts = %v, want %v", s.Counts, want)
	} else {
		for i := range want {
			if s.Counts[i] != want[i] {
				t.Errorf("Counts[%d] = %d, want %d (all %v)", i, s.Counts[i], want[i], s.Counts)
			}
		}
	}
	if s.Count != 6 || s.Sum != 111 || s.Max != 100 {
		t.Errorf("Count/Sum/Max = %d/%d/%d, want 6/111/100", s.Count, s.Sum, s.Max)
	}
}

func TestMetricsPersistRecover(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("scram/signals").Add(5)
	reg.Gauge("frame/tasks").Set(4)
	reg.Histogram("w", 2, 4).Observe(3)

	kv := memKV{}
	if err := reg.Persist(kv); err != nil {
		t.Fatal(err)
	}
	snap, ok, err := RecoverSnapshot(map[string][]byte(kv))
	if err != nil || !ok {
		t.Fatalf("RecoverSnapshot: ok=%v err=%v", ok, err)
	}
	if snap.Counters["scram/signals"] != 5 {
		t.Errorf("recovered counter = %d, want 5", snap.Counters["scram/signals"])
	}
	if snap.Gauges["frame/tasks"] != 4 {
		t.Errorf("recovered gauge = %d, want 4", snap.Gauges["frame/tasks"])
	}
	if h := snap.Histograms["w"]; h.Count != 1 || h.Counts[1] != 1 {
		t.Errorf("recovered histogram = %+v", h)
	}

	if _, ok, _ := RecoverSnapshot(map[string][]byte{}); ok {
		t.Error("RecoverSnapshot on empty storage reported ok")
	}
}

func TestWritePromDeterministic(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b").Inc()
	reg.Counter("a").Inc()
	reg.Gauge("scram/active").Set(1)
	reg.Histogram("lat", 1, 2).Observe(2)

	var first string
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		if err := reg.Snapshot().WriteProm(&buf, 10, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.String()
			continue
		}
		if buf.String() != first {
			t.Fatalf("WriteProm output differs between runs:\n%s\nvs\n%s", first, buf.String())
		}
	}
	for _, want := range []string{
		"# frame 10 virtual_time_ms 10",
		"a 1 10",
		"scram_active 1 10",
		`lat_bucket{le="2"} 1 10`,
		`lat_bucket{le="+Inf"} 1 10`,
		"lat_count 1 10",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("WriteProm output missing %q:\n%s", want, first)
		}
	}
	if strings.Index(first, "\na ") > strings.Index(first, "\nb ") {
		t.Errorf("WriteProm counters not sorted:\n%s", first)
	}
}

// TestRingEvictionAndDropped fills rings past their capacity from empty: one
// smaller than the buffer's first allocation, and one the buffer reaches
// only by doubling several times. Either way the surviving tail and the
// eviction count are those of a ring allocated full-size up front.
func TestRingEvictionAndDropped(t *testing.T) {
	for _, tc := range []struct{ capacity, records int }{{3, 5}, {100, 250}} {
		rec := NewRecorder(tc.capacity)
		for i := 0; i < tc.records; i++ {
			rec.SetFrame(int64(i))
			rec.Record(Event{Kind: KindSignal})
		}
		drop := tc.records - tc.capacity
		if rec.Len() != tc.capacity || rec.Dropped() != int64(drop) {
			t.Fatalf("capacity %d: Len/Dropped = %d/%d, want %d/%d",
				tc.capacity, rec.Len(), rec.Dropped(), tc.capacity, drop)
		}
		if len(rec.buf) != tc.capacity {
			t.Errorf("capacity %d: buffer grew to %d slots", tc.capacity, len(rec.buf))
		}
		for i, e := range rec.Events() {
			if e.Seq != int64(drop+i) || e.Frame != int64(drop+i) {
				t.Fatalf("capacity %d: surviving event %d = %+v, want seq and frame %d",
					tc.capacity, i, e, drop+i)
			}
		}
	}
}

func TestRecordStampsCurrentFrame(t *testing.T) {
	rec := NewRecorder(0)
	rec.SetFrame(9)
	rec.Record(Event{Kind: KindSignal})
	rec.Record(Event{Kind: KindSignal, Frame: 4})
	evs := rec.Events()
	if evs[0].Frame != 9 {
		t.Errorf("unstamped event frame = %d, want 9", evs[0].Frame)
	}
	if evs[1].Frame != 4 {
		t.Errorf("explicit event frame = %d, want 4", evs[1].Frame)
	}
}

func TestRingPersistRecoverIncremental(t *testing.T) {
	rec := NewRecorder(4)
	kv := memKV{}
	for i := 0; i < 3; i++ {
		rec.SetFrame(int64(i))
		rec.Record(Event{Kind: KindSignal})
	}
	if err := rec.Persist(kv); err != nil {
		t.Fatal(err)
	}
	// Each Persist writes one chunk; a chunk is deleted once every event in
	// it has been evicted from the ring. After three batches of three with
	// capacity 4 the live window is seqs 5..8: the first chunk (seqs 0..2)
	// is fully dead and must be gone, while the second (3..5) still holds
	// seq 5 and stays — recovery may return up to one chunk of surplus
	// history before the live window, never less than the window itself.
	for i := 3; i < 6; i++ {
		rec.SetFrame(int64(i))
		rec.Record(Event{Kind: KindTrigger})
	}
	if err := rec.Persist(kv); err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 9; i++ {
		rec.SetFrame(int64(i))
		rec.Record(Event{Kind: KindTrigger})
	}
	if err := rec.Persist(kv); err != nil {
		t.Fatal(err)
	}

	evs, err := RecoverRing(map[string][]byte(kv))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 6 {
		t.Fatalf("recovered %d events, want 6 (live window 5..8 plus chunk surplus 3..4)", len(evs))
	}
	for i, e := range evs {
		if e.Seq != int64(i+3) {
			t.Errorf("recovered[%d].Seq = %d, want %d", i, e.Seq, i+3)
		}
	}
	if evs[0].Kind != KindTrigger || evs[5].Kind != KindTrigger {
		t.Errorf("recovered kinds = %v...%v", evs[0].Kind, evs[5].Kind)
	}
}

func TestResetPersistenceRewritesRing(t *testing.T) {
	rec := NewRecorder(0)
	old := memKV{}
	rec.SetFrame(1)
	rec.Record(Event{Kind: KindSignal})
	if err := rec.Persist(old); err != nil {
		t.Fatal(err)
	}

	// A takeover moves persistence to a fresh store that has never seen
	// the journal: without a reset the incremental persist would skip the
	// already-persisted prefix.
	fresh := memKV{}
	rec.ResetPersistence()
	rec.SetFrame(2)
	rec.Record(Event{Kind: KindTakeover})
	if err := rec.Persist(fresh); err != nil {
		t.Fatal(err)
	}
	evs, err := RecoverRing(map[string][]byte(fresh))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("recovered %d events after reset, want full ring of 2", len(evs))
	}
}

func TestJournalRoundTrip(t *testing.T) {
	in := []Event{
		{Seq: 0, Frame: 1, Kind: KindSignal, App: "monitor", Detail: "power"},
		{Seq: 1, Frame: 2, Kind: KindBudget, Phase: "schedule", Config: "reduced",
			From: "full", Attrs: map[string]int64{"seq": 1, "bound": 8}},
		{Seq: 2, Frame: 3, Kind: KindFrameState, State: &FrameState{Config: "full", Env: "ok"}},
	}
	var buf bytes.Buffer
	if err := WriteJournal(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip %d events, want %d", len(out), len(in))
	}
	if out[1].Attrs["bound"] != 8 || out[1].Phase != "schedule" {
		t.Errorf("round-tripped event = %+v", out[1])
	}
	if out[2].State == nil || out[2].State.Config != "full" {
		t.Errorf("round-tripped frame state = %+v", out[2].State)
	}
}

func TestSummarizeTimeline(t *testing.T) {
	events := []Event{
		{Seq: 0, Frame: 2, Kind: KindSignal},
		{Seq: 1, Frame: 2, Kind: KindBudget, Phase: "schedule", From: "full", Config: "reduced",
			Attrs: map[string]int64{"seq": 1, "trigger_frame": 2, "halt_start": 3, "halt_end": 3,
				"prep_start": 4, "prep_end": 4, "init_start": 5, "init_end": 6, "bound": 8}},
		{Seq: 2, Frame: 6, Kind: KindBudget, Phase: "window", From: "full", Config: "reduced",
			Attrs: map[string]int64{"seq": 1, "start": 2, "end": 6, "window": 5, "bound": 8, "margin": 3}},
		{Seq: 3, Frame: 9, Kind: KindStorageRepair, Attrs: map[string]int64{"repaired": 2}},
		{Seq: 4, Frame: 10, Kind: KindProcHalt, Host: "p2"},
		{Seq: 5, Frame: 11, Kind: KindTakeover, Host: "p3"},
	}
	s := Summarize(events)
	if len(s.Reconfigs) != 1 {
		t.Fatalf("Reconfigs = %d, want 1", len(s.Reconfigs))
	}
	r := s.Reconfigs[0]
	if !r.Complete() || r.CompleteFrame != 6 || r.WindowFrames != 5 {
		t.Errorf("window = %+v", r)
	}
	if r.Halt.Frames() != 1 || r.Prepare.Frames() != 1 || r.Init.Frames() != 2 {
		t.Errorf("phase spans = halt %+v prepare %+v init %+v", r.Halt, r.Prepare, r.Init)
	}
	if r.BoundFrames != 8 || r.MarginFrames != 3 || r.SignalLatency != 0 {
		t.Errorf("bound/margin/latency = %d/%d/%d", r.BoundFrames, r.MarginFrames, r.SignalLatency)
	}
	if s.Signals != 1 || s.StorageRepairs != 2 || len(s.ProcHalts) != 1 || s.Takeovers != 1 {
		t.Errorf("tallies = %+v", s)
	}
}

func TestSummarizeRetargetContinuesWindow(t *testing.T) {
	events := []Event{
		{Seq: 0, Frame: 1, Kind: KindBudget, Phase: "schedule", From: "full", Config: "reduced",
			Attrs: map[string]int64{"seq": 1, "trigger_frame": 1}},
		{Seq: 1, Frame: 2, Kind: KindRetarget},
		{Seq: 2, Frame: 2, Kind: KindBudget, Phase: "schedule", From: "full", Config: "emergency",
			Attrs: map[string]int64{"seq": 1, "trigger_frame": 1, "retargeted": 1}},
		{Seq: 3, Frame: 5, Kind: KindBudget, Phase: "window", From: "full", Config: "emergency",
			Attrs: map[string]int64{"seq": 1, "start": 1, "end": 5, "window": 5, "retargeted": 1}},
	}
	s := Summarize(events)
	if len(s.Reconfigs) != 1 {
		t.Fatalf("retargeted reconfiguration split into %d records", len(s.Reconfigs))
	}
	r := s.Reconfigs[0]
	if !r.Retargeted || r.Target != "emergency" || r.TriggerFrame != 1 {
		t.Errorf("retargeted record = %+v", r)
	}
}

func TestSummarizeOpenWindow(t *testing.T) {
	events := []Event{
		{Seq: 0, Frame: 3, Kind: KindBudget, Phase: "schedule", From: "full", Config: "reduced",
			Attrs: map[string]int64{"seq": 1, "trigger_frame": 3}},
	}
	s := Summarize(events)
	if len(s.Reconfigs) != 1 || s.Reconfigs[0].Complete() {
		t.Fatalf("open window not reported: %+v", s.Reconfigs)
	}
}

func TestReconstructTrace(t *testing.T) {
	mkState := func(cfg string) *FrameState {
		return &FrameState{Config: "full", Env: "ok",
			Apps: map[spec.AppID]AppSnap{"fcs": {
				Status: trace.StatusNormal, Spec: spec.SpecID("fcs-" + cfg), PreOK: true}}}
	}
	events := []Event{
		{Seq: 0, Frame: 10, Kind: KindFrameState, State: mkState("a")},
		{Seq: 1, Frame: 10, Kind: KindSignal}, // interleaved non-state event
		{Seq: 2, Frame: 11, Kind: KindFrameState, State: mkState("b")},
	}
	tr, err := ReconstructTrace("t", time.Millisecond, events, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Cycles stay absolute: the trace starts at the first sample's frame.
	if tr.Base != 10 || tr.Len() != 2 {
		t.Fatalf("base=%d len=%d, want 10/2", tr.Base, tr.Len())
	}
	if tr.States[0].Cycle != 10 || tr.States[1].Apps["fcs"].Spec != "fcs-b" {
		t.Errorf("reconstructed states = %+v", tr.States)
	}

	// Run-length encoding: frames between two samples repeat the earlier
	// sample's state, and the last run extends through the given frame.
	rle := []Event{
		{Seq: 0, Frame: 10, Kind: KindFrameState, State: mkState("a")},
		{Seq: 1, Frame: 13, Kind: KindFrameState, State: mkState("b")},
	}
	tr, err = ReconstructTrace("t", time.Millisecond, rle, 15)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Base != 10 || tr.Len() != 6 || tr.End() != 16 {
		t.Fatalf("RLE base=%d len=%d end=%d, want 10/6/16", tr.Base, tr.Len(), tr.End())
	}
	for i, want := range []spec.SpecID{"fcs-a", "fcs-a", "fcs-a", "fcs-b", "fcs-b", "fcs-b"} {
		st := tr.States[i]
		if st.Cycle != 10+int64(i) || st.Apps["fcs"].Spec != want {
			t.Errorf("RLE state %d = cycle %d spec %s, want cycle %d spec %s", i, st.Cycle, st.Apps["fcs"].Spec, 10+i, want)
		}
	}
	// A closing frame before the last sample ends the trace at that sample.
	if tr, err = ReconstructTrace("t", time.Millisecond, rle, 11); err != nil {
		t.Fatal(err)
	}
	if tr.End() != 14 {
		t.Fatalf("closing frame 11: end=%d, want 14", tr.End())
	}

	// A ring that lost its samples before frame 10 cannot tell where a
	// reconfiguration in progress at frame 10 began, so the trace starts
	// at the first all-normal sample. A ring with no all-normal sample
	// keeps its samples: the whole trace is one open window.
	halting := mkState("a")
	halting.Apps = map[spec.AppID]AppSnap{"fcs": {Status: trace.StatusHalting, Spec: "fcs-a"}}
	cut := []Event{
		{Seq: 4, Frame: 10, Kind: KindFrameState, State: halting},
		{Seq: 5, Frame: 12, Kind: KindFrameState, State: mkState("b")},
	}
	if tr, err = ReconstructTrace("t", time.Millisecond, cut, 15); err != nil {
		t.Fatal(err)
	}
	if tr.Base != 12 || tr.End() != 16 || len(tr.Reconfigs()) != 0 {
		t.Fatalf("cut window: base=%d end=%d reconfigs=%v, want the trace [12,16) with none", tr.Base, tr.End(), tr.Reconfigs())
	}
	if tr, err = ReconstructTrace("t", time.Millisecond, cut[:1], 15); err != nil {
		t.Fatal(err)
	}
	if open, ok := tr.OpenReconfig(); tr.Base != 10 || !ok || open.Frames() != 6 {
		t.Fatalf("no all-normal sample: base=%d open=%v/%v, want base 10 and a 6-frame open window", tr.Base, open, ok)
	}
	// A ring that kept its frame-0 sample lost nothing before it, so a
	// reconfiguration starting at frame 0 stays in the trace.
	whole := []Event{
		{Seq: 0, Frame: 0, Kind: KindFrameState, State: halting},
		{Seq: 1, Frame: 2, Kind: KindFrameState, State: mkState("b")},
	}
	if tr, err = ReconstructTrace("t", time.Millisecond, whole, 3); err != nil {
		t.Fatal(err)
	}
	if tr.Base != 0 || len(tr.Reconfigs()) != 1 {
		t.Fatalf("whole ring: base=%d reconfigs=%v, want base 0 and one reconfiguration", tr.Base, tr.Reconfigs())
	}

	ooo := []Event{
		{Seq: 0, Frame: 10, Kind: KindFrameState, State: mkState("a")},
		{Seq: 1, Frame: 9, Kind: KindFrameState, State: mkState("b")},
	}
	if _, err := ReconstructTrace("t", time.Millisecond, ooo, -1); err == nil {
		t.Error("ReconstructTrace accepted out-of-order samples")
	}
	if _, err := ReconstructTrace("t", time.Millisecond, nil, -1); err == nil {
		t.Error("ReconstructTrace accepted an empty ring")
	}
}
