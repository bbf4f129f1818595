package telemetry

import (
	"reflect"
	"testing"
)

// TestRingRetentionHorizon drives a quiet one-event-per-frame recorder far
// past its retention horizon and checks the frame-based trim: the live ring
// holds only the retained window (the capacity never fills, so without
// retention nothing would have been evicted), and the persisted journal
// still recovers at least that window.
func TestRingRetentionHorizon(t *testing.T) {
	rec := NewRecorder(0) // default capacity 4096: far above the event count
	rec.SetRetention(10)
	kv := memKV{}
	for f := int64(1); f <= 50; f++ {
		rec.SetFrame(f)
		rec.Record(Event{Kind: KindSignal})
		if err := rec.Persist(kv); err != nil {
			t.Fatal(err)
		}
	}
	evs := rec.Events()
	if len(evs) == 0 {
		t.Fatal("ring empty")
	}
	for _, e := range evs {
		if e.Frame < 40 {
			t.Fatalf("event from frame %d survived a horizon of 10 at frame 50", e.Frame)
		}
	}
	if rec.Trimmed() == 0 {
		t.Fatal("Trimmed() = 0, want > 0")
	}
	if rec.Dropped() != 0 {
		t.Fatalf("Dropped() = %d; retention trims must not count as capacity drops", rec.Dropped())
	}
	// Sequence order must survive trimming through the growth-phase buffer.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("sequence gap: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}

	recovered, err := RecoverRing(map[string][]byte(kv))
	if err != nil {
		t.Fatal(err)
	}
	// Recovery returns the retained window plus at most the open/surplus
	// chunks' history — never less than the live ring.
	if len(recovered) < len(evs) {
		t.Fatalf("recovered %d events, live ring has %d", len(recovered), len(evs))
	}
	last := recovered[len(recovered)-1]
	if last.Seq != evs[len(evs)-1].Seq {
		t.Fatalf("recovered tail seq %d, want %d", last.Seq, evs[len(evs)-1].Seq)
	}
}

// TestRingRetentionNote checks the sparse KindTrim announcements: a long
// run emits them at the note cadence, carrying the cumulative trim count.
func TestRingRetentionNote(t *testing.T) {
	rec := NewRecorder(0)
	rec.SetRetention(16)
	for f := int64(1); f <= 2*trimNoteEvery; f++ {
		rec.SetFrame(f)
		rec.Record(Event{Kind: KindSignal})
	}
	var notes []Event
	for _, e := range rec.Events() {
		if e.Kind == KindTrim {
			notes = append(notes, e)
		}
	}
	if len(notes) == 0 {
		t.Fatal("no journal-trim note recorded")
	}
	n := notes[len(notes)-1]
	if n.Attrs["trimmed"] <= 0 || n.Attrs["horizon"] <= 0 {
		t.Fatalf("trim note attrs = %v", n.Attrs)
	}
}

// TestRingRetentionWithCapacityEviction mixes both eviction regimes: a tiny
// ring under a wide horizon keeps capacity semantics, and retention then
// tightens it without corrupting ring order.
func TestRingRetentionWithCapacityEviction(t *testing.T) {
	rec := NewRecorder(8)
	// Fill past capacity first (capacity eviction), then let the horizon
	// take over on quiet frames (retention eviction).
	for f := int64(1); f <= 6; f++ {
		rec.SetFrame(f)
		rec.Record(Event{Kind: KindSignal})
		rec.Record(Event{Kind: KindTrigger})
	}
	rec.SetRetention(3)
	for f := int64(7); f <= 40; f++ {
		rec.SetFrame(f)
		rec.Record(Event{Kind: KindSignal})
		rec.Record(Event{Kind: KindTrigger})
	}
	evs := rec.Events()
	for _, e := range evs {
		if e.Frame < 37 {
			t.Fatalf("event from frame %d survived horizon 3 at frame 40", e.Frame)
		}
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("sequence gap after mixed eviction: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if rec.Dropped() == 0 || rec.Trimmed() == 0 {
		t.Fatalf("Dropped/Trimmed = %d/%d, want both > 0", rec.Dropped(), rec.Trimmed())
	}
}

// TestRingRetentionBoundsBuffer is the churn shape: a burst of events every
// few frames under a retention horizon far below the capacity. The buffer
// must settle near the live window instead of growing toward capacity, and
// every slot outside the live window must be the zero Event, so a trimmed
// event pins none of the state samples or attribute maps it carried.
func TestRingRetentionBoundsBuffer(t *testing.T) {
	rec := NewRecorder(0)
	rec.SetRetention(64)
	kv := memKV{}
	peak := 0
	for f := int64(1); f <= 10_000; f++ {
		rec.SetFrame(f)
		if f%20 == 0 {
			for i := 0; i < 20; i++ {
				rec.Record(Event{Kind: KindFrameState, State: &FrameState{}, Attrs: map[string]int64{"i": int64(i)}})
			}
		}
		if err := rec.Persist(kv); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, rec.Len())
	}
	if rec.Trimmed() == 0 {
		t.Fatal("Trimmed() = 0, want > 0")
	}
	if len(rec.buf) > 2*peak {
		t.Fatalf("buffer holds %d slots for a peak of %d live events, want <= 2x", len(rec.buf), peak)
	}
	for i := rec.count; i < len(rec.buf); i++ {
		slot := (rec.head + i) % len(rec.buf)
		if !reflect.ValueOf(rec.buf[slot]).IsZero() {
			t.Fatalf("slot %d outside the live window holds %v", slot, rec.buf[slot])
		}
	}
	evs := rec.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("sequence gap: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}
