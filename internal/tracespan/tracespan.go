// Package tracespan is the per-batch tracing layer: trace IDs, span
// trees, and a lock-free recorder with a slow-batch flight recorder.
//
// Where internal/metrics answers "how is this tenant doing on average?",
// tracespan answers "why was THIS batch slow?". Every batch admitted to
// a traced Universe — through the blocking veneer, a dsu.Stream push, or
// a remote RPC/stream frame — gets a Trace: a fixed-capacity tree of
// named spans (queue-wait, seal, dispatch, execute, per-worker,
// reply-encode) with typed numeric attributes. Completed traces land in
// a fixed-size lock-free ring buffer; traces whose end-to-end latency
// meets a threshold are additionally promoted to a retained "slow" ring
// — the flight recorder — so the outliers a scraper would have missed
// survive until someone looks.
//
// The design constraints mirror internal/metrics:
//
//   - Dependency-free: stdlib only, no tracing SDK.
//   - Nil-safe: every method on a nil *Trace or nil *Recorder is a
//     no-op, so instrumented seams never branch on "is tracing on?" —
//     they just call. A disabled universe carries a nil recorder and
//     pays nothing (pinned by BenchmarkTraceOverhead at the root).
//   - Allocation-free recording: starting and ending spans touches only
//     the Trace's fixed span array via an atomic claim counter. The one
//     allocation per traced batch is the Trace itself; after Finish the
//     object is immutable, so ring snapshots never race with recording
//     and never need copies-under-lock.
//
// Span IDs are trace-local (1-based slots in the span array; the root is
// always span 1). Trace IDs are process-global 64-bit values from a
// splitmix64 sequence seeded randomly per Recorder; remote peers may
// supply their own trace ID in a wire frame, which Adopt installs so the
// client and server halves of a batch share one identity.
package tracespan

import (
	"math/rand"
	"sync/atomic"
	"time"
)

// Span stage names. The taxonomy is documented in DESIGN.md; parents are
// noted here. All stages hang off the root span (named after the batch
// op, "unite" or "query") except worker spans, which nest under
// execute.
const (
	StageWireDecode  = "wire-decode"  // server: frame read + decode (parent: root)
	StageQueueWait   = "queue-wait"   // RPC budget wait / sealed-batch channel wait (parent: root)
	StageSeal        = "seal"         // stream: first edge into buffer → seal (parent: root)
	StageDispatch    = "dispatch"     // pipeline: dispatcher picks up → Exec returns (parent: root)
	StageExecute     = "execute"      // dsu batch funnel: engine UniteAll/SameSetAll call (parent: root)
	StageWorker      = "worker"       // dsu batch funnel: per-worker attribution (parent: execute)
	StageReplyEncode = "reply-encode" // server: reply envelope encode + write (parent: root)
)

// Trace sources — where the batch entered the system.
const (
	SourceBlocking = "blocking" // Universe.UniteAll / SameSetAll veneer
	SourceStream   = "stream"   // dsu.Stream push (local or remote connection)
	SourceRPC      = "rpc"      // one-shot remote RPC
)

// Ops — what the batch does. Used as the root span's name.
const (
	OpUnite = "unite"
	OpQuery = "query"
)

// Root is the SpanRef of every trace's root span.
const Root SpanRef = 1

// MaxSpans is the per-trace span capacity. Spans started past the cap
// are counted (DroppedSpans in the snapshot) but not recorded; refs for
// them are invalid and all operations on them no-op. 64 covers the
// deepest real tree — root + 6 stage spans + one span per pool worker —
// for pools up to ~56 workers.
const MaxSpans = 64

// SpanRef names a span within one Trace: a 1-based slot index. The zero
// ref is invalid; End/Attrs on it are no-ops, so callers thread refs
// without nil checks even when the trace itself is nil.
type SpanRef int32

// Context is a wire-portable trace context: the trace ID and the
// sender's span the receiver's work should hang under. A zero Trace
// field means "no context".
type Context struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether the context carries a trace identity.
func (c Context) Valid() bool { return c.Trace != 0 }

// SpanAttrs are the typed attributes a span may carry. A fixed struct —
// not a map — keeps recording allocation-free and the JSON exposition
// stable. Zero fields are omitted from JSON.
type SpanAttrs struct {
	Edges      int64  `json:"edges,omitempty"`       // batch size entering the stage
	Merged     int64  `json:"merged,omitempty"`      // unions that changed the partition
	Ops        int64  `json:"ops,omitempty"`         // operations a worker performed
	FindSteps  int64  `json:"find_steps,omitempty"`  // parent-pointer dereferences
	CASRetries int64  `json:"cas_retries,omitempty"` // root-link CAS retries (execute); all failed CASes (worker)
	Worker     int64  `json:"worker,omitempty"`      // 1-based worker index on worker spans
	Find       string `json:"find,omitempty"`        // resolved find strategy on execute spans
	Err        string `json:"err,omitempty"`         // terminal error on the root span
}

// span is the in-flight representation: start/end as nanosecond offsets
// from the trace's begin time, parent as a SpanRef (0 for the root).
type span struct {
	parent SpanRef
	name   string
	start  int64
	end    int64
	attrs  SpanAttrs
}

// Trace is one batch's span tree. Created by Recorder.Start, mutated by
// the instrumented seams while the batch is in flight, sealed by
// Recorder.Finish, immutable afterwards. Span slots are claimed with an
// atomic counter so concurrent stages (e.g. parallel workers) may start
// spans without a lock; each claimed slot is then owned by its claimant.
type Trace struct {
	id      uint64
	parent  uint64 // remote peer's span ID, when adopted
	adopted atomic.Bool
	op      string
	source  string
	began   time.Time
	n       atomic.Int32 // claimed span count
	dropped atomic.Int32 // starts past MaxSpans
	spans   [MaxSpans]span
}

// ID returns the trace identity (0 on a nil trace).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Context returns the wire context identifying this trace's root span —
// what a reply envelope carries back to the client. Zero on nil.
func (t *Trace) Context() Context {
	if t == nil {
		return Context{}
	}
	return Context{Trace: t.id, Span: uint64(Root)}
}

// Adopt installs a remote peer's trace identity so both halves of the
// batch share one trace ID. First adoption wins; later links (e.g.
// further stream frames accumulating into the same batch) are ignored.
// Invalid contexts are ignored. Safe on nil.
func (t *Trace) Adopt(c Context) {
	if t == nil || !c.Valid() {
		return
	}
	if t.adopted.CompareAndSwap(false, true) {
		t.id = c.Trace
		t.parent = c.Span
	}
}

// Start claims a span beginning now. Returns 0 (a no-op ref) on a nil
// trace or when the trace is full.
func (t *Trace) Start(name string, parent SpanRef) SpanRef {
	if t == nil {
		return 0
	}
	return t.StartAt(name, parent, time.Since(t.began))
}

// StartAt claims a span with an explicit start offset from the trace's
// begin time — used to synthesize sub-spans (per-worker) after
// the fact from an execution's accounting.
func (t *Trace) StartAt(name string, parent SpanRef, start time.Duration) SpanRef {
	if t == nil {
		return 0
	}
	i := t.n.Add(1)
	if i > MaxSpans {
		t.dropped.Add(1)
		return 0
	}
	s := &t.spans[i-1]
	s.parent = parent
	s.name = name
	s.start = int64(start)
	s.end = 0
	return SpanRef(i)
}

// End closes a span now. No-op on a nil trace or invalid ref.
func (t *Trace) End(ref SpanRef) {
	if t == nil || ref <= 0 {
		return
	}
	t.EndAt(ref, time.Since(t.began))
}

// EndAt closes a span at an explicit offset.
func (t *Trace) EndAt(ref SpanRef, end time.Duration) {
	if t == nil || ref <= 0 || ref > SpanRef(MaxSpans) {
		return
	}
	t.spans[ref-1].end = int64(end)
}

// StartOffset returns a claimed span's start offset — used to anchor
// synthesized children at their parent's start. Zero on invalid refs.
func (t *Trace) StartOffset(ref SpanRef) time.Duration {
	if t == nil || ref <= 0 || ref > SpanRef(MaxSpans) {
		return 0
	}
	return time.Duration(t.spans[ref-1].start)
}

// Attrs returns the mutable attributes of a claimed span, or nil on a
// nil trace / invalid ref — callers nil-check the result:
//
//	if a := tr.Attrs(sp); a != nil { a.Edges = int64(len(edges)) }
func (t *Trace) Attrs(ref SpanRef) *SpanAttrs {
	if t == nil || ref <= 0 || ref > SpanRef(MaxSpans) {
		return nil
	}
	return &t.spans[ref-1].attrs
}

// Elapsed is the time since the trace began (its duration, once ended).
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.began)
}

// Config sizes a Recorder. The zero value gets usable defaults.
type Config struct {
	// Ring is the completed-trace ring capacity (default 256). Every
	// finished trace lands here; new completions overwrite the oldest.
	Ring int
	// Retain is the slow-trace flight-recorder capacity (default 64).
	Retain int
	// SlowThreshold promotes traces whose end-to-end latency meets it
	// into the retained ring (default 100ms). <= 0 uses the default;
	// to retain everything use 1 (one nanosecond).
	SlowThreshold time.Duration
}

const (
	defaultRing   = 256
	defaultRetain = 64
	// DefaultSlowThreshold is the flight-recorder promotion latency used
	// when Config.SlowThreshold is unset.
	DefaultSlowThreshold = 100 * time.Millisecond
)

// ring is a lock-free overwrite-oldest buffer of finished traces: an
// atomic position counter plus atomic pointer slots. Writers claim a
// position and store; readers load pointers and walk the immutable
// traces. An overwritten trace stays valid for readers that already
// loaded it — slots are never recycled in place.
type ring struct {
	pos   atomic.Uint64
	slots []atomic.Pointer[Trace]
}

func newRing(n int) *ring {
	return &ring{slots: make([]atomic.Pointer[Trace], n)}
}

func (r *ring) put(t *Trace) {
	i := r.pos.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(t)
}

// snapshot returns the buffered traces newest-first.
func (r *ring) snapshot() []*Trace {
	n := uint64(len(r.slots))
	pos := r.pos.Load()
	out := make([]*Trace, 0, n)
	for k := uint64(0); k < n && k < pos; k++ {
		t := r.slots[(pos-1-k)%n].Load()
		if t == nil {
			break
		}
		out = append(out, t)
	}
	return out
}

// Recorder owns one Universe's trace storage: the ID sequence, the
// recent ring, and the slow-batch flight recorder. All methods are
// nil-safe — a nil *Recorder starts nil traces and finishes them for
// free, which is exactly the disabled mode.
type Recorder struct {
	ids      atomic.Uint64
	slow     int64 // promotion threshold, ns
	recent   *ring
	retained *ring
	started  atomic.Uint64
	slowSeen atomic.Uint64
}

// New builds a Recorder from cfg (zero value = defaults).
func New(cfg Config) *Recorder {
	if cfg.Ring <= 0 {
		cfg.Ring = defaultRing
	}
	if cfg.Retain <= 0 {
		cfg.Retain = defaultRetain
	}
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	r := &Recorder{
		slow:     int64(cfg.SlowThreshold),
		recent:   newRing(cfg.Ring),
		retained: newRing(cfg.Retain),
	}
	r.ids.Store(rand.Uint64())
	return r
}

// nextID advances a splitmix64 sequence — unique, well-mixed 64-bit IDs
// from one atomic add, never zero (zero means "no trace" on the wire).
func (r *Recorder) nextID() uint64 {
	x := r.ids.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// SlowThreshold returns the flight-recorder promotion latency.
func (r *Recorder) SlowThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.slow)
}

// Start begins a trace for one batch: allocates the Trace (the single
// per-batch allocation), assigns an ID, and opens the root span (named
// after op, ref Root). Returns nil on a nil recorder — the disabled
// path — and every downstream seam no-ops on the nil trace.
func (r *Recorder) Start(op, source string) *Trace {
	if r == nil {
		return nil
	}
	r.started.Add(1)
	t := &Trace{id: r.nextID(), op: op, source: source, began: time.Now()}
	t.n.Store(1)
	t.spans[0] = span{name: op}
	return t
}

// Finish seals a trace and records it: closes the root span (and any
// span left open, which inherits the root's end — a crash-visible "never
// ended" is less useful than a bounded interval), appends to the recent
// ring, and promotes to the flight recorder when the trace's duration
// meets the threshold. After Finish the trace is immutable. Nil-safe in
// both receiver and argument.
func (r *Recorder) Finish(t *Trace) {
	if r == nil || t == nil {
		return
	}
	end := int64(time.Since(t.began))
	n := int(t.n.Load())
	if n > MaxSpans {
		n = MaxSpans
	}
	t.spans[0].end = end
	for i := 1; i < n; i++ {
		if t.spans[i].end == 0 {
			t.spans[i].end = end
		}
	}
	r.recent.put(t)
	if end >= r.slow {
		r.slowSeen.Add(1)
		r.retained.put(t)
	}
}

// Started returns the number of traces begun (0 on nil).
func (r *Recorder) Started() uint64 {
	if r == nil {
		return 0
	}
	return r.started.Load()
}

// SlowCount returns the number of traces promoted to the flight
// recorder (0 on nil).
func (r *Recorder) SlowCount() uint64 {
	if r == nil {
		return 0
	}
	return r.slowSeen.Load()
}

// Snapshot exports the recent ring newest-first. Cold path: allocates
// freely. Nil-safe (returns nil).
func (r *Recorder) Snapshot() []TraceSnapshot {
	if r == nil {
		return nil
	}
	return export(r.recent.snapshot(), time.Duration(r.slow))
}

// Slow exports the flight recorder newest-first. Nil-safe.
func (r *Recorder) Slow() []TraceSnapshot {
	if r == nil {
		return nil
	}
	return export(r.retained.snapshot(), time.Duration(r.slow))
}
