package telemetry

import "sync"

// Span attribute keys. Span identity rides in the ordinary Event attribute
// map, so span events need no new Event fields, no encoder changes, and —
// because they are plain ring events — they inherit the black box's
// persistence contract for free: a fail-stop halt mid-window leaves every
// already-opened span's start event in the recovered journal, with the
// close event missing, which is exactly the truth.
const (
	// SpanAttrTrace is the causal trace a span belongs to. A span-start
	// recorded before the kernel has decided whether the signal leads
	// anywhere carries no trace yet; the close event supplies it and the
	// assembler joins the two by span ID.
	SpanAttrTrace = "trace"
	// SpanAttrSpan is the span's own identifier, unique within a run.
	SpanAttrSpan = "span"
	// SpanAttrParent is the parent span's identifier; absent on roots.
	SpanAttrParent = "parent"
	// SpanAttrEnd marks an instantaneous span: a single span-start event
	// whose end frame is known at emission (decision, retarget, epoch
	// marks), so no separate span-end event is recorded.
	SpanAttrEnd = "end"
)

// Span names used by the instrumented subsystems. The vocabulary mirrors
// the paper's protocol: a signal is detected, the kernel decides, the
// halt/prepare/initialize phases elapse, the window completes (possibly
// chaining into an urgent follow-up), and membership epoch changes mark
// the view the whole exchange ran under.
const (
	SpanReconfig = "reconfig"
	SpanSignal   = "signal"
	SpanDecision = "decision"
	SpanHalt     = "halt"
	SpanPrepare  = "prepare"
	SpanInit     = "init"
	SpanRetarget = "retarget"
	SpanChain    = "chain"
	SpanEpoch    = "epoch"
)

// maxChainDepth bounds the book's preallocated stack of open chain spans.
// A chain deeper than the configuration count cannot occur (every chained
// plan moves to a configuration the choice function currently demands),
// so eight slots is comfortably past any declarable system.
const maxChainDepth = 8

// SpanBook allocates deterministic span and trace identities and records
// span events into the flight recorder. One book serves one system; all
// state is preallocated at construction (the open-trace slot, the chain
// stack, the ID counters), so steady frames — which open no spans — do no
// span work at all, and protocol frames allocate only the span events
// themselves, charged to the reconfiguration window like every other
// protocol event.
//
// Identity is deterministic: trace IDs hash the book's seed with the
// opening signal frame and a per-book trace ordinal, and span IDs are a
// plain ordinal sequence. Equal seeds and equal frame histories therefore
// yield byte-identical span events, which is what lets campaign reports
// aggregate traces across worker counts and lets a recovered ring
// reconstruct the live trace exactly.
//
// All methods are nil-receiver safe no-ops, so instrumented subsystems
// carry a possibly-nil *SpanBook without per-call checks. Methods must be
// called from frame-commit hooks; the mutex exists for the Enabled check
// from concurrent readers.
type SpanBook struct {
	mu   sync.Mutex
	sink Sink
	seed int64

	lastSpan   int64                // last allocated span ID
	traces     int64                // trace ordinal, feeds trace-ID derivation
	trace      int64                // open reconfiguration trace, 0 when none
	root       int64                // open trace's root span
	chain      [maxChainDepth]int64 // open chain spans, innermost last
	chainDepth int
}

// NewSpanBook returns a book recording into rec (nil rec yields a book
// whose every method is a no-op). The seed salts trace IDs so runs of
// different campaign seeds produce distinct trace identities; equal seeds
// reproduce them.
func NewSpanBook(seed int64, rec *Recorder) *SpanBook {
	return &SpanBook{seed: seed, sink: OrNop(rec)}
}

// Enabled reports whether span events reach a live recorder.
func (b *SpanBook) Enabled() bool {
	if b == nil {
		return false
	}
	return b.sink.Enabled()
}

// traceIDFor derives a trace identity from the book's seed, the signal
// frame that opened it, and the trace ordinal — FNV-1a over the three
// words, masked positive so the ID survives the int64 attribute encoding
// unambiguously and renders as a stable 16-hex-digit token.
func traceIDFor(seed, sigFrame, ordinal int64) int64 {
	const (
		offset64 = 1469598103934665603
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range [3]uint64{uint64(seed), uint64(sigFrame), uint64(ordinal)} {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	id := int64(h & 0x7fffffffffffffff)
	if id == 0 {
		id = 1 // 0 means "no trace"
	}
	return id
}

// nextSpan allocates the next span ID. Caller holds b.mu.
func (b *SpanBook) nextSpan() int64 {
	b.lastSpan++
	return b.lastSpan
}

// OpenPending records a span-start that belongs to no trace yet — the
// signal-detection span, opened when the monitor's report is delivered to
// the kernel, before the kernel has decided whether it triggers anything.
// The close supplies the trace. Returns the span ID to carry on the
// signal.
func (b *SpanBook) OpenPending(f int64, name string, e Event) int64 {
	if !b.Enabled() {
		return 0
	}
	b.mu.Lock()
	id := b.nextSpan()
	b.mu.Unlock()
	e.Frame = f
	e.Kind = KindSpanStart
	e.Phase = name
	e.Attrs = withSpanAttrs(e.Attrs, 0, id, 0)
	b.sink.Record(e)
	return id
}

// ClosePending closes a pending span, adopting it into the open trace as a
// child of the current parent when one is open (the signal that produced a
// trigger), or leaving it traceless (a signal the choice function decided
// needed nothing).
func (b *SpanBook) ClosePending(f int64, id int64, e Event) {
	if id == 0 || !b.Enabled() {
		return
	}
	b.mu.Lock()
	trace, parent := b.trace, b.parentLocked()
	b.mu.Unlock()
	e.Frame = f
	e.Kind = KindSpanEnd
	e.Attrs = withSpanAttrs(e.Attrs, trace, id, parent)
	b.sink.Record(e)
}

// OpenTrace opens a reconfiguration trace: a fresh trace ID derived from
// the signal frame, with a root span starting at f. At most one trace is
// open per book; opening while one is open closes the old root first
// (defensive — the kernel's window structure should never do it).
func (b *SpanBook) OpenTrace(f, sigFrame int64, e Event) (trace, root int64) {
	if !b.Enabled() {
		return 0, 0
	}
	b.mu.Lock()
	if b.trace != 0 {
		b.mu.Unlock()
		b.CloseTrace(f, Event{Detail: "superseded"})
		b.mu.Lock()
	}
	b.traces++
	b.trace = traceIDFor(b.seed, sigFrame, b.traces)
	b.root = b.nextSpan()
	trace, root = b.trace, b.root
	b.mu.Unlock()
	e.Frame = f
	e.Kind = KindSpanStart
	e.Phase = SpanReconfig
	e.Attrs = withSpanAttrs(e.Attrs, trace, root, 0)
	b.sink.Record(e)
	return trace, root
}

// CloseTrace closes the open trace's root span (and any chain spans still
// open above it) at frame f. The event's attributes carry the realized
// window against its declared bound.
func (b *SpanBook) CloseTrace(f int64, e Event) {
	if !b.Enabled() {
		return
	}
	b.mu.Lock()
	trace, root := b.trace, b.root
	depth := b.chainDepth
	chains := b.chain
	b.trace, b.root, b.chainDepth = 0, 0, 0
	b.mu.Unlock()
	if trace == 0 {
		return
	}
	for i := depth - 1; i >= 0; i-- {
		b.sink.Record(Event{
			Frame: f,
			Kind:  KindSpanEnd,
			Phase: SpanChain,
			Attrs: withSpanAttrs(nil, trace, chains[i], 0),
		})
	}
	e.Frame = f
	e.Kind = KindSpanEnd
	e.Phase = SpanReconfig
	e.Attrs = withSpanAttrs(e.Attrs, trace, root, 0)
	b.sink.Record(e)
}

// OpenChain opens a chained-urgent follow-up span under the current
// parent: the trace stays open, and subsequent child spans (the chained
// plan's phases) parent to the chain span, recording the causal link the
// paper's fused window semantics imply.
func (b *SpanBook) OpenChain(f int64, e Event) int64 {
	if !b.Enabled() {
		return 0
	}
	b.mu.Lock()
	if b.trace == 0 || b.chainDepth == maxChainDepth {
		b.mu.Unlock()
		return 0
	}
	parent := b.parentLocked()
	id := b.nextSpan()
	b.chain[b.chainDepth] = id
	b.chainDepth++
	trace := b.trace
	b.mu.Unlock()
	e.Frame = f
	e.Kind = KindSpanStart
	e.Phase = SpanChain
	e.Attrs = withSpanAttrs(e.Attrs, trace, id, parent)
	b.sink.Record(e)
	return id
}

// OpenSpan opens a named child span under the current parent (the chain
// span when one is open, the trace root otherwise).
func (b *SpanBook) OpenSpan(f int64, name string, e Event) int64 {
	if !b.Enabled() {
		return 0
	}
	b.mu.Lock()
	trace, parent := b.trace, b.parentLocked()
	id := b.nextSpan()
	b.mu.Unlock()
	e.Frame = f
	e.Kind = KindSpanStart
	e.Phase = name
	e.Attrs = withSpanAttrs(e.Attrs, trace, id, parent)
	b.sink.Record(e)
	return id
}

// CloseSpan closes a span opened with OpenSpan at frame f.
func (b *SpanBook) CloseSpan(f int64, id int64, name string, e Event) {
	if id == 0 || !b.Enabled() {
		return
	}
	b.mu.Lock()
	trace := b.trace
	b.mu.Unlock()
	e.Frame = f
	e.Kind = KindSpanEnd
	e.Phase = name
	e.Attrs = withSpanAttrs(e.Attrs, trace, id, 0)
	b.sink.Record(e)
}

// Mark records an instantaneous span (start == end == f) as a single
// event. Inside an open trace it becomes a child of the current parent;
// outside, it opens and closes its own single-span trace — a membership
// epoch bump in quiet operation is still a first-class observable.
func (b *SpanBook) Mark(f int64, name string, e Event) {
	if !b.Enabled() {
		return
	}
	b.mu.Lock()
	trace, parent := b.trace, b.parentLocked()
	if trace == 0 {
		b.traces++
		trace = traceIDFor(b.seed, f, b.traces)
	}
	id := b.nextSpan()
	b.mu.Unlock()
	e.Frame = f
	e.Kind = KindSpanStart
	e.Phase = name
	e.Attrs = withSpanAttrs(e.Attrs, trace, id, parent)
	e.Attrs[SpanAttrEnd] = f
	b.sink.Record(e)
}

// parentLocked returns the current parent span for new children: the
// innermost open chain span, else the trace root, else 0.
func (b *SpanBook) parentLocked() int64 {
	if b.chainDepth > 0 {
		return b.chain[b.chainDepth-1]
	}
	return b.root
}

// withSpanAttrs stamps the structural span attributes onto attrs,
// allocating the map when the caller supplied none. Zero values are
// omitted: 0 is "no trace" / "no parent".
func withSpanAttrs(attrs map[string]int64, trace, span, parent int64) map[string]int64 {
	if attrs == nil {
		attrs = make(map[string]int64, 4)
	}
	attrs[SpanAttrSpan] = span
	if trace != 0 {
		attrs[SpanAttrTrace] = trace
	}
	if parent != 0 {
		attrs[SpanAttrParent] = parent
	}
	return attrs
}
