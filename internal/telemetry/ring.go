package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Kind classifies a flight-recorder event.
type Kind string

// Flight-recorder event kinds. The reconfiguration-protocol kinds mirror the
// SCRAM kernel's Table 1 vocabulary; the storage, bus and processor kinds
// record the fault-handling activity of the hardened platform.
const (
	// KindSignal records a failure or environment-change signal reaching
	// the kernel.
	KindSignal Kind = "signal"
	// KindTrigger records the decision to reconfigure.
	KindTrigger Kind = "trigger"
	// KindHalt records the halt command being scheduled.
	KindHalt Kind = "halt"
	// KindPrepare records the prepare command being scheduled.
	KindPrepare Kind = "prepare"
	// KindInitialize records the initialize command being scheduled.
	KindInitialize Kind = "initialize"
	// KindComplete records the end of a reconfiguration.
	KindComplete Kind = "complete"
	// KindRetarget records a mid-window target change.
	KindRetarget Kind = "retarget"
	// KindDeferred records a trigger deferred by the dwell guard.
	KindDeferred Kind = "deferred"
	// KindBudget records a plan's phase windows against the Table 1
	// bounds: Phase "schedule" at plan start, Phase "window" at
	// completion with the consumed frames and remaining margin in Attrs.
	KindBudget Kind = "budget"
	// KindFrameState is the per-frame system-state sample the trace
	// reconstruction is built from.
	KindFrameState Kind = "frame-state"
	// KindStorageRepair records replica records rewritten by read repair
	// or a scrub pass.
	KindStorageRepair Kind = "storage-repair"
	// KindStorageRescue records a commit salvaged by promoting a replica.
	KindStorageRescue Kind = "storage-rescue"
	// KindStorageScrub records a scrub pass that found work to do.
	KindStorageScrub Kind = "storage-scrub"
	// KindStorageUnrecoverable records a storage fault that defeated
	// every replica — the event that halts the owning processor.
	KindStorageUnrecoverable Kind = "storage-unrecoverable"
	// KindBusFault records an injected bus fault acting on a message.
	KindBusFault Kind = "bus-fault"
	// KindProcHalt records a fail-stop processor halt.
	KindProcHalt Kind = "proc-halt"
	// KindTakeover records a standby SCRAM kernel assuming control.
	KindTakeover Kind = "takeover"
	// KindTakeoverRefused records a takeover candidate fail-stopping
	// because no restorable snapshot survived validation.
	KindTakeoverRefused Kind = "takeover-refused"
	// KindMemberJoin records a processor entering the membership view (or
	// being promoted to a takeover-eligible standby after catch-up).
	KindMemberJoin Kind = "member-join"
	// KindMemberLeave records a verified graceful leave.
	KindMemberLeave Kind = "member-leave"
	// KindMemberEvict records a crash-detected eviction from the view.
	KindMemberEvict Kind = "member-evict"
	// KindMembershipReject records a membership change refused by online
	// re-verification; the prior epoch kept serving.
	KindMembershipReject Kind = "membership-reject"
	// KindMembershipConverge records the self-stabilization path
	// re-committing a legal membership record over a corrupt or divergent
	// one.
	KindMembershipConverge Kind = "membership-converge"
	// KindSpanStart opens a causal-trace span (see span.go): Phase names
	// the span, and the trace/span/parent identities ride in Attrs. A
	// start event whose Attrs carry SpanAttrEnd is an instantaneous span
	// with no matching end event.
	KindSpanStart Kind = "span-start"
	// KindSpanEnd closes a span opened by a KindSpanStart with the same
	// span attribute. A fail-stop halt mid-span leaves the start event in
	// the recovered ring with no end — the open span is the evidence.
	KindSpanEnd Kind = "span-end"
	// KindTrim records the retention horizon advancing: events older than
	// the horizon were dropped from the ring (and their persisted chunks
	// deleted at the next Persist). Attrs carry the cumulative trimmed
	// count and the horizon frame, so a recovered journal states exactly
	// how much history retention discarded before the crash.
	KindTrim Kind = "journal-trim"
)

// Event is one flight-recorder entry. Frame is the only timestamp: the
// recorder never touches a wall clock.
type Event struct {
	// Seq is the recorder-assigned sequence number, monotone across the
	// whole execution (it keeps counting past ring evictions).
	Seq int64 `json:"seq"`
	// Frame is the frame the event was recorded in.
	Frame int64 `json:"frame"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// App names the application the event concerns, when any.
	App string `json:"app,omitempty"`
	// Host names the processor (or store) the event concerns, when any.
	Host string `json:"host,omitempty"`
	// Config names the (target) configuration the event concerns.
	Config string `json:"config,omitempty"`
	// From names the source configuration, for reconfiguration events.
	From string `json:"from,omitempty"`
	// Phase qualifies the event within its kind ("schedule", "window",
	// a protocol phase name, a bus fault action).
	Phase string `json:"phase,omitempty"`
	// Detail is a human-readable elaboration.
	Detail string `json:"detail,omitempty"`
	// Attrs carries structured numeric attributes (frame windows, bounds,
	// counts).
	Attrs map[string]int64 `json:"attrs,omitempty"`
	// State is the per-frame system-state sample of a KindFrameState
	// event.
	State *FrameState `json:"state,omitempty"`
}

// String renders the event for the journal dump.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "f%-5d #%-5d %-21s", e.Frame, e.Seq, e.Kind)
	if e.Phase != "" {
		fmt.Fprintf(&b, " %s", e.Phase)
	}
	if e.From != "" && e.Config != "" {
		fmt.Fprintf(&b, " %s->%s", e.From, e.Config)
	} else if e.Config != "" {
		fmt.Fprintf(&b, " %s", e.Config)
	}
	if e.App != "" {
		fmt.Fprintf(&b, " app=%s", e.App)
	}
	if e.Host != "" {
		fmt.Fprintf(&b, " host=%s", e.Host)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " (%s)", e.Detail)
	}
	if len(e.Attrs) > 0 {
		keys := make([]string, 0, len(e.Attrs))
		for k := range e.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString(" [")
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s=%d", k, e.Attrs[k])
		}
		b.WriteByte(']')
	}
	return b.String()
}

// DefaultCapacity is the default ring size: an upper bound on the live
// events, not an allocation. The buffer grows on demand, doubling only when
// every slot holds a live event, so a ring whose retention horizon keeps a
// few dozen events live stays a few dozen slots long. At one frame-state
// event plus a handful of protocol events per frame, a full ring covers on
// the order of a thousand frames of history — enough for every campaign in
// the repository while keeping the per-frame persistence delta small.
const DefaultCapacity = 4096

// minRingSlots is the buffer's first allocation: small enough that a quiet
// tenant's ring stays about a kilobyte, large enough that the first frames
// do not regrow it event by event.
const minRingSlots = 8

// eventKeyPrefix namespaces the persisted event-chunk records. The chunks
// are self-describing — every event carries its sequence number — so no
// separate bookkeeping record is persisted alongside them.
const eventKeyPrefix = "telemetry/ev/"

// chunkRef locates one persisted chunk: the first sequence number it covers
// and its storage key.
type chunkRef struct {
	start int64
	key   string
}

// eventKey returns the stable-storage key for one event. Sequence numbers
// are zero-padded hex so lexicographic key order is recovery order. Built by
// hand (one allocation, no fmt state) because Persist derives a key per new
// and per evicted event on the frame-commit path.
func eventKey(seq int64) string {
	var b [len(eventKeyPrefix) + 16]byte
	copy(b[:], eventKeyPrefix)
	for i := 15; i >= 0; i-- {
		b[len(eventKeyPrefix)+i] = hexDigits[seq&0xf]
		seq >>= 4
	}
	return string(b[:])
}

// Recorder is the bounded flight-recorder ring. Record appends; when the
// ring is full the oldest event is evicted (and its stable-storage key
// deleted at the next Persist). A Recorder is safe for concurrent use
// within a frame; persistence happens from the frame-commit path only.
//
// The buffer is circular: buf[head] is the oldest surviving event, the live
// events occupy buf[head], buf[head+1], ... modulo len(buf), and every other
// slot is the zero Event, so an evicted or trimmed event pins nothing.
// Capacity eviction overwrites in place, so Record stays O(1) once the ring
// fills.
type Recorder struct {
	mu       sync.Mutex
	capacity int // eviction bound; len(buf) grows toward it on demand
	buf      []Event
	head     int   // index of the oldest event
	count    int   // number of live events
	seq      int64 // next sequence number
	frame    int64
	dropped  int64
	// persistLo/persistHi delimit the seq range currently staged or
	// committed in the backing KV: [persistLo, persistHi).
	persistLo int64
	persistHi int64
	// chunks lists every chunk record currently in the backing KV, oldest
	// first: the first sequence number it covers and its storage key
	// (allocated once at write, reused at delete). Persist writes each
	// frame's new events as one chunk and deletes a chunk only once every
	// event in it has been evicted, so the persisted journal may retain up
	// to one chunk of history beyond the live ring — harmless surplus for
	// recovery, and it keeps the store traffic at one record per
	// event-carrying frame instead of one per event.
	chunks []chunkRef
	// enc is the reused event encoder of the persistence path; guarded by
	// mu. Its buffer doubles as the open chunk's retained encoding (below).
	enc eventEncoder
	// openKey/openStart identify the open chunk: the most recent chunk,
	// still accepting appends. Each Persist splices the frame's new events
	// into the retained encoding (enc.buf) before its closing bracket and
	// re-puts the same key, so consecutive frames recycle one stable-store
	// buffer per chunk instead of staging a fresh key per frame. The chunk
	// seals once its encoding passes openChunkSealBytes; the next events
	// start a new one. Empty openKey means no chunk is open.
	openKey   string
	openStart int64
	// retain is the retention horizon in frames: at each SetFrame(f) with
	// retain > 0, events from frames before f-retain are evicted. Zero
	// keeps the original capacity-only eviction.
	retain int64
	// trimmed counts events evicted by the retention horizon (dropped
	// counts capacity evictions; the two are disjoint).
	trimmed int64
	// trimNoted is the trimmed total already announced by a KindTrim
	// event, so the note cadence stays one event per noteEvery frames no
	// matter how many events each trim evicts.
	trimNoted int64
}

// trimNoteEvery is the frame cadence of KindTrim announcements. Aligned
// with the metrics persistence cadence so a weeks-long run's journal
// carries a sparse, bounded record of its own trimming.
const trimNoteEvery = 512

// openChunkSealBytes is the encoded size past which the open chunk seals.
// Every Persist while the chunk is open re-copies and re-checksums the whole
// chunk through the store's commit path, so the threshold trades per-frame
// commit bandwidth against journal key count — small enough to keep the
// re-put no bigger than a typical fresh chunk, large enough that quiet
// frames' one-event deltas still coalesce into one record.
const openChunkSealBytes = 512

// NewRecorder returns a recorder with the given ring capacity;
// non-positive means DefaultCapacity.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{capacity: capacity}
}

// SetFrame sets the frame number stamped on subsequently recorded events.
// The scheduler's frame observer calls it at each frame start. With a
// retention horizon configured, SetFrame is also where the horizon
// advances: eviction is driven purely by the frame number, so a replayed
// run trims at exactly the frames the original did and the retained
// journal stays byte-identical.
func (r *Recorder) SetFrame(f int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frame = f
	if r.retain <= 0 || f <= r.retain {
		return
	}
	horizon := f - r.retain
	for r.count > 0 {
		old := &r.buf[r.head]
		if old.Frame >= horizon {
			break
		}
		if r.persistHi > 0 && old.Seq >= r.persistHi {
			// Never trim an event the journal has not staged yet: the
			// retained window must stay recoverable, and the horizon is
			// many frames behind the per-frame persistence anyway.
			break
		}
		*old = Event{} // release the frame-state sample and attrs it pins
		r.head = (r.head + 1) % len(r.buf)
		r.count--
		r.trimmed++
	}
	if r.trimmed > r.trimNoted && f%trimNoteEvery == 0 {
		//lint:allow allocfree retention note: one map every trimNoteEvery frames, amortized far below the per-frame budget
		r.recordLocked(Event{Frame: f, Kind: KindTrim, Attrs: map[string]int64{
			"trimmed": r.trimmed,
			"horizon": horizon,
		}})
		r.trimNoted = r.trimmed
	}
}

// SetRetention sets the retention horizon in frames; 0 (the default)
// disables frame-based trimming. The horizon is configuration, not state:
// a recovered or replayed system must run with the same retention as the
// original for the journals to match.
func (r *Recorder) SetRetention(frames int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retain = frames
}

// Trimmed returns the number of events evicted by the retention horizon.
func (r *Recorder) Trimmed() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trimmed
}

// FrameNum returns the current frame number.
func (r *Recorder) FrameNum() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frame
}

// Record appends an event, assigning its sequence number. A zero Frame is
// stamped with the recorder's current frame; an explicit non-zero Frame is
// kept.
func (r *Recorder) Record(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recordLocked(e)
}

// recordLocked is Record under the caller's lock; SetFrame uses it to emit
// retention notes from inside the trim path.
func (r *Recorder) recordLocked(e Event) {
	e.Seq = r.seq
	r.seq++
	if e.Frame == 0 {
		e.Frame = r.frame
	}
	if r.count == len(r.buf) {
		if len(r.buf) == r.capacity {
			// Full at capacity: evict the oldest event in place.
			r.buf[r.head] = e
			r.head = (r.head + 1) % len(r.buf)
			r.dropped++
			return
		}
		r.grow()
	}
	r.buf[(r.head+r.count)%len(r.buf)] = e
	r.count++
}

// grow doubles the buffer, capped at capacity, and unrolls the live events
// (which fill every slot) to its front. It runs only when every slot is
// live, so under a retention horizon the buffer settles at the first
// doubling that holds the peak live count instead of creeping toward
// capacity.
func (r *Recorder) grow() {
	n := min(max(2*len(r.buf), minRingSlots), r.capacity)
	//lint:allow allocfree ring growth: doubles only when every slot is live, so a ring allocates O(log capacity) times over its whole life
	buf := make([]Event, n)
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

// Len returns the number of events currently in the ring.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Dropped returns the number of events evicted so far.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Events returns a copy of the ring contents in sequence order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	//lint:allow allocfree snapshot-copy surface: an immutable copy is the point; per-frame only under the opt-in live telemetry plane's publish hook
	out := make([]Event, r.count)
	for i := 0; i < r.count; i++ {
		out[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	return out
}

// Persist stages the ring delta into kv: events recorded since the last
// Persist are written as one chunk record (a JSON array keyed by the
// chunk's first sequence number), chunks whose events have all been evicted
// are deleted, and the ring bookkeeping record is refreshed. The writes
// become durable at the owning processor's next frame-boundary commit, so
// after a fail-stop halt the recovered ring reflects the last committed
// frame — the black box trails the live ring by at most one frame, exactly
// the staged writes the halt destroys.
func (r *Recorder) Persist(kv KV) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	lo := r.seq - int64(r.count)
	if lo == r.persistLo && r.seq == r.persistHi && r.persistHi > 0 {
		// Nothing recorded or evicted since the last Persist: the staged
		// journal is already current, so frames without events cost no
		// stable-storage traffic at all.
		return nil
	}
	// Drop chunks that no longer hold any live event: a chunk's events end
	// where the next chunk begins, so chunk i is dead once chunk i+1 starts
	// at or below the ring's oldest surviving sequence number.
	for len(r.chunks) > 1 && r.chunks[1].start <= lo {
		kv.Delete(r.chunks[0].key)
		r.chunks = r.chunks[1:]
	}
	start := r.persistHi
	if start < lo {
		start = lo
	}
	if start < r.seq {
		// Hand-rolled encoding (see encode.go): byte-identical to
		// json.Marshal without the per-event reflection allocations. The
		// store copies what it keeps, so the reused buffer is safe to hand
		// over.
		var buf []byte
		if r.openKey == "" || len(r.enc.buf) >= openChunkSealBytes || r.openStart < lo {
			// A chunk also seals once the ring evicts past its first event
			// (openStart < lo): leaving it open would grow the persisted
			// surplus past the one-chunk bound and pin it against deletion.
			// Seal the previous chunk (if any) and open a new one.
			r.openKey = eventKey(start)
			r.openStart = start
			r.chunks = append(r.chunks, chunkRef{start: start, key: r.openKey})
			buf = append(r.enc.buf[:0], '[')
		} else {
			// Splice this frame's events into the open chunk before its
			// closing bracket and re-put the same key: the store retires
			// the displaced committed buffer into its pool, and the next
			// frame's slightly larger re-put takes it right back.
			buf = r.enc.buf[:len(r.enc.buf)-1]
		}
		for s := start; s < r.seq; s++ {
			if buf[len(buf)-1] != '[' {
				buf = append(buf, ',')
			}
			buf = r.enc.appendEventTo(buf, &r.buf[(r.head+int(s-lo))%len(r.buf)])
		}
		buf = append(buf, ']')
		r.enc.buf = buf
		kv.Put(r.openKey, buf)
	}
	r.persistLo = lo
	r.persistHi = r.seq
	return nil
}

// ResetPersistence forgets which events have been persisted, so the next
// Persist rewrites the whole ring. A standby processor taking over the
// SCRAM calls it: the standby's stable store holds none of the primary's
// journal, and the rewrite seeds it with the full surviving ring.
func (r *Recorder) ResetPersistence() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.persistLo = 0
	r.persistHi = 0
	r.chunks = r.chunks[:0]
	r.openKey = ""
	r.openStart = 0
	r.enc.buf = r.enc.buf[:0]
}

// RecoverRing reads the flight-recorder journal out of a stable-storage
// snapshot (as returned by polling a halted processor's stable storage) and
// returns the events in sequence order.
func RecoverRing(snap map[string][]byte) ([]Event, error) {
	keys := make([]string, 0, len(snap))
	for k := range snap {
		if strings.HasPrefix(k, eventKeyPrefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	events := make([]Event, 0, len(keys))
	for _, k := range keys {
		raw := snap[k]
		if len(raw) > 0 && raw[0] == '[' {
			// A chunk record: all events one Persist call staged together.
			var chunk []Event
			if err := json.Unmarshal(raw, &chunk); err != nil {
				return nil, fmt.Errorf("telemetry: decoding recovered event chunk %q: %w", k, err)
			}
			events = append(events, chunk...)
			continue
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("telemetry: decoding recovered event %q: %w", k, err)
		}
		events = append(events, e)
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	return events, nil
}

// WriteJournal writes events as a JSONL journal: one JSON-encoded event per
// line.
func WriteJournal(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("telemetry: writing journal: %w", err)
		}
	}
	return bw.Flush()
}

// ReadJournal reads a JSONL journal written by WriteJournal.
func ReadJournal(rd io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			return nil, fmt.Errorf("telemetry: journal line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading journal: %w", err)
	}
	return events, nil
}
