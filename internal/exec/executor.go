package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/tracespan"
)

// Executor is the one funnel every dsu batch path routes through: blocking
// UniteAll/SameSetAll calls and the stream dispatcher all drive the same
// Executor, so per-batch policy lives here exactly once. It runs each
// batch through the engine's worker pool against its core.DSU, resolving
// a per-batch Config.Find override into a variant view of the same forest
// (core.DSU.WithFind, a lookup of views built with the structure, so an
// override allocates nothing); without one a batch runs the structure's
// configured variant.
//
// The executor is also where durability and the applied-batch sequence
// live: with a WAL attached (AttachWAL), every mutation batch is
// appended — and durable, per the log's sync policy — before it touches
// the structure, so a batch whose result any caller has seen is a batch
// the log can replay. Queries never touch the log.
type Executor struct {
	d *core.DSU
	// ins is the attached metrics bundle (nil until Instrument): because
	// every batch path funnels through this type, feeding it here is what
	// instruments blocking calls, stream batches, and remote RPCs at once.
	ins insPtr
	// wal is the attached durability hook (nil until AttachWAL) — same
	// seam, same reasoning: attaching here logs blocking calls, stream
	// batches, and remote RPCs at once.
	wal atomic.Pointer[walHook]
	// gate lets Quiesce drain in-flight mutation batches: mutations hold
	// it shared, a quiescent-state caller (checkpoint) holds it exclusive.
	// Uncontended RLock/RUnlock is two atomic ops — noise next to a batch.
	gate sync.RWMutex
	// applied is the sequence number of the latest applied mutation batch
	// (monotonic, starts at 1 for the first batch). With a WAL attached it
	// mirrors the log's committed sequence; without one it still counts
	// batches so replicas and operators can compare positions.
	applied atomic.Uint64
}

// WAL is the durability sink an executor appends mutation batches to.
// Append must assign the batch a monotonically increasing sequence
// number and return only once the batch is durable per the log's
// policy; CheckpointDue reports whether the log wants a snapshot taken
// (cheap, called once per batch).
type WAL interface {
	Append(edges []Edge) (uint64, error)
	CheckpointDue() bool
}

// walHook pairs the log with the checkpoint trigger the owning layer
// registered (the dsu layer's snapshot-at-quiescence routine).
type walHook struct {
	w          WAL
	checkpoint func()
}

// NewExecutor drives batches against d.
func NewExecutor(d *core.DSU) *Executor { return &Executor{d: d} }

// Seed returns the structure seed, the default scheduling seed for its
// batches: a structure built for reproducibility schedules reproducibly
// too.
func (e *Executor) Seed() uint64 { return e.d.Config().Seed }

// target resolves the per-batch find-variant override.
func (e *Executor) target(v core.Find) *core.DSU {
	if v == 0 {
		return e.d
	}
	return e.d.WithFind(v)
}

// AttachWAL arranges for every subsequent mutation batch to be appended
// to w before it is applied. checkpoint (optional) is invoked after a
// batch when the log reports CheckpointDue — it must tolerate being
// called concurrently from many batch goroutines.
func (e *Executor) AttachWAL(w WAL, checkpoint func()) {
	e.wal.Store(&walHook{w: w, checkpoint: checkpoint})
}

// Durable reports whether a WAL is attached.
func (e *Executor) Durable() bool { return e.wal.Load() != nil }

// Seq returns the sequence number of the latest applied mutation batch;
// 0 before any mutation. With a WAL attached this is the durable log
// position.
func (e *Executor) Seq() uint64 { return e.applied.Load() }

// SetSeq primes the applied sequence — recovery calls it after
// replaying a log so post-recovery batches continue the numbering
// rather than restarting at 1.
func (e *Executor) SetSeq(seq uint64) {
	e.applied.Store(seq)
	if m := e.ins.Load(); m != nil {
		m.Seq.Set(int64(seq))
	}
}

// Quiesce drains in-flight mutation batches, then runs fn with new
// mutations held at the door; fn receives the applied sequence, which
// no batch can advance while it runs. This is the snapshot-at-
// quiescence guarantee: a Snapshot() taken inside fn covers exactly the
// batches numbered 1..seq, no torn view of a batch mid-application.
// Queries are not blocked (they don't move the partition).
func (e *Executor) Quiesce(fn func(seq uint64)) {
	e.gate.Lock()
	defer e.gate.Unlock()
	fn(e.applied.Load())
}

// raiseApplied advances applied to at least seq. Batches commit out of
// order under the shared gate, so a plain store could move the sequence
// backwards; the CAS loop keeps it a high-water mark.
func (e *Executor) raiseApplied(seq uint64) {
	for {
		cur := e.applied.Load()
		if cur >= seq || e.applied.CompareAndSwap(cur, seq) {
			return
		}
	}
}

func (e *Executor) publishSeq() {
	if m := e.ins.Load(); m != nil {
		m.Seq.Set(int64(e.applied.Load()))
	}
}

// UniteAll drives a mutation batch.
//
// With a WAL attached the batch is logged first and applied second, and
// a failed append fails the batch (Result.Err) without applying it —
// callers surface that error instead of a reply, which is the
// acked-means-logged contract. The returned Result.Seq is the batch's
// position in the applied (and, when durable, logged) order.
func (e *Executor) UniteAll(edges []Edge, cfg Config) Result {
	h := e.wal.Load()
	if h == nil || len(edges) == 0 {
		res := e.execUnite(edges, cfg)
		if len(edges) > 0 {
			res.Seq = e.applied.Add(1)
			e.publishSeq()
		}
		return res
	}
	e.gate.RLock()
	seq, err := h.w.Append(edges)
	if err != nil {
		e.gate.RUnlock()
		return Result{Err: err}
	}
	res := e.execUnite(edges, cfg)
	res.Seq = seq
	e.raiseApplied(seq)
	e.gate.RUnlock()
	e.publishSeq()
	if h.checkpoint != nil && h.w.CheckpointDue() {
		h.checkpoint()
	}
	return res
}

// execUnite is the pre-durability mutation path: run, trace, observe.
func (e *Executor) execUnite(edges []Edge, cfg Config) Result {
	t := e.target(cfg.Find)
	ex := cfg.Trace.Start(tracespan.StageExecute, tracespan.Root)
	res := engine.UniteAll(t, edges, cfg)
	cfg.Trace.End(ex)
	res.Find = t.Config().Find
	traceExecute(cfg.Trace, ex, len(edges), &res)
	if m := e.ins.Load(); m != nil {
		m.observeUnite(len(edges), &res)
	}
	return res
}

// SameSetAll drives a query batch.
func (e *Executor) SameSetAll(pairs []Edge, cfg Config) ([]bool, Result) {
	t := e.target(cfg.Find)
	ex := cfg.Trace.Start(tracespan.StageExecute, tracespan.Root)
	out, res := engine.SameSetAll(t, pairs, cfg)
	cfg.Trace.End(ex)
	res.Find = t.Config().Find
	traceExecute(cfg.Trace, ex, len(pairs), &res)
	if m := e.ins.Load(); m != nil {
		m.observeQuery(len(pairs), &res)
	}
	return out, res
}
