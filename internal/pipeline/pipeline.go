// Package pipeline is the asynchronous streaming ingestion subsystem: an
// accumulator that grows edges into double-buffered batches, a bounded
// channel handing sealed batches to a dispatcher, and per-batch completion
// callbacks — so callers stream edges and results instead of blocking per
// batch. Alistarh et al. ("In Search of the Fastest Concurrent Union-Find
// Algorithm") observe that throughput is dominated by keeping workers fed;
// overlapping batch accumulation with UniteAll execution is this repo's
// answer (the ROADMAP's async-pipelines item).
//
// # Shape
//
// Push appends edges to the active buffer. When the buffer reaches the
// seal threshold (or Flush seals it explicitly), the batch is handed to
// the dispatcher over a channel whose capacity bounds the number of sealed
// batches waiting past the accumulator — MaxInFlight is the backpressure
// knob, and its default of one is classic double buffering: the dispatcher
// executes batch k while the accumulator fills batch k+1, and a producer
// that gets two batches ahead blocks in Push until the dispatcher catches
// up. Buffers recycle through a small free list, so steady-state ingestion
// allocates nothing per batch.
//
// The dispatcher is a single goroutine: batches execute strictly in seal
// order, the callback fires exactly once per sealed batch (execution
// errors included), callbacks are serialized and ordered by batch id, and
// Close returns only after every sealed batch's callback has returned.
// Parallelism lives inside Exec (the engine's worker pool), not in the
// dispatch loop — which is what makes a stream of batches produce exactly
// the partition of a blocking batch loop over the same edge sequence.
//
// # Shutdown
//
// Close seals any buffered remainder, drains all in-flight work, and stops
// the dispatcher. Cancelling the Config.Context aborts instead: batches
// not yet executing when the cancellation is observed are abandoned — their
// callbacks fire with Err set and the structure never sees their edges —
// while an Exec already running completes (the engine has no preemption
// points). Push and Flush after Close report ErrClosed.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/tracespan"
)

// ErrClosed is reported by Push and Flush after Close.
var ErrClosed = errors.New("pipeline: closed")

// defaultBufferSize matches the engine's sweet spot: big enough that the
// pool's span protocol is amortized, small enough to keep latency bounded.
const defaultBufferSize = 1 << 16

// Result reports one sealed batch's execution, delivered to the callback
// exactly once per batch, in batch-id order. The embedded exec.Result is
// the batch run's full unified record — Merged, Stats(), Elapsed —
// exactly as the executor reported it (zero when Err is set), so stream
// callbacks see the same accounting blocking callers do.
type Result struct {
	// ID is the batch's 1-based seal sequence number.
	ID uint64
	// Edges is the sealed batch's edge count.
	Edges int
	// Result is the batch run's execution record.
	exec.Result
	// Err is non-nil when the batch was abandoned (context cancelled
	// before execution) or its Exec panicked; the batch's edges did not
	// (fully) reach the structure.
	Err error
	// Trace is the batch's span tree when the pipeline is traced
	// (Config.Tracer set), nil otherwise. The callback runs before the
	// trace is finished, so a callback may still add spans — the server's
	// reply-encode stage does — but must not retain the trace past its
	// return.
	Trace *tracespan.Trace
}

// Exec runs one sealed batch against the backing structure and reports what
// it did. tr is the batch's trace (nil untraced); the dsu layer threads it
// into exec.Config so the executor's spans land in it. Exec runs on the
// dispatcher goroutine; panics are recovered into Result.Err.
type Exec func(edges []exec.Edge, tr *tracespan.Trace) Result

// Config tunes one Pipeline.
type Config struct {
	// BufferSize is the seal threshold in edges; values ≤ 0 select the
	// default (65536). Size-triggered batches hold exactly BufferSize
	// edges; Flush and Close may seal shorter ones.
	BufferSize int
	// MaxInFlight bounds how many sealed batches may exist past the
	// accumulator (waiting or executing); values ≤ 0 select 1, classic
	// double buffering. A Push or Flush that would seal beyond the bound
	// blocks until the dispatcher frees a slot — the backpressure contract.
	MaxInFlight int
	// Callback, when non-nil, receives every batch's Result on the
	// dispatcher goroutine: serialized, exactly once per sealed batch, in
	// batch-id order. It must return; a callback that blocks stalls the
	// whole pipeline (that is the point — results apply backpressure too).
	// It must not call back into the pipeline: a Push or Flush that seals
	// a batch from inside the callback blocks sending to the dispatcher —
	// which is busy running the callback — and a Close waits for a
	// dispatcher that is waiting on the callback; either deadlocks.
	Callback func(Result)
	// Context, when non-nil, aborts the pipeline on cancellation: batches
	// observed after the cancellation are abandoned with their callbacks
	// fired Err-set. nil means never cancelled.
	Context context.Context
	// Gauges are the live introspection hooks; the zero value records
	// nothing (see Gauges).
	Gauges Gauges
	// Tracer, when non-nil, traces every sealed batch: a trace starts
	// when the first edge enters an empty buffer (opening the seal span),
	// queue-wait and dispatch spans bracket the handoff, and the finished
	// tree is recorded after the callback returns. Nil means untraced —
	// the pipeline then never allocates a trace and every span call is a
	// nil no-op.
	Tracer *tracespan.Recorder
}

// Gauges are the pipeline's live introspection hooks, fed from the seal
// and dispatch paths. Every field is nil-safe (recording on a nil
// instrument is free), so the zero value means "uninstrumented" and the
// pipeline records unconditionally. The dsu layer resolves these from
// its per-tenant metrics registry when a tenant is instrumented.
type Gauges struct {
	// Active counts open pipelines: Inc at New, Dec when Close begins.
	Active *metrics.Gauge
	// InFlight counts sealed batches past the accumulator — waiting in
	// the dispatch channel, blocked in the backpressure send, or
	// executing. When it sits at MaxInFlight, producers are blocked in
	// Push: the saturation signal.
	InFlight *metrics.Gauge
	// Executing counts batches currently inside Exec; InFlight minus
	// Executing is the sealed-batch queue depth.
	Executing *metrics.Gauge
	// Recycled counts buffers returned through the free list — when it
	// stops tracking batch count, the free list is overflowing and
	// steady-state ingestion is allocating.
	Recycled *metrics.Counter
}

// sealed is one batch in flight between the accumulator and dispatcher.
type sealed struct {
	id    uint64
	edges []exec.Edge
	tr    *tracespan.Trace  // the batch's trace (nil untraced)
	qw    tracespan.SpanRef // its open queue-wait span
}

// Pipeline is the streaming ingestion front. Push, Flush, and Close are
// safe for concurrent use by any number of producers; the zero value is
// not usable, call New.
type Pipeline struct {
	exec   Exec
	cb     func(Result)
	ctx    context.Context
	size   int
	g      Gauges
	tracer *tracespan.Recorder

	mu     sync.Mutex
	buf    []exec.Edge
	nextID uint64
	closed bool
	// tr/seal are the active buffer's trace and its open seal span,
	// started when the first edge lands in an empty buffer and handed to
	// the dispatcher at seal (both nil/zero when untraced).
	tr   *tracespan.Trace
	seal tracespan.SpanRef

	batches chan sealed      // sized so executing + waiting batches ≤ MaxInFlight
	free    chan []exec.Edge // recycled buffers
	done    chan struct{}    // closed when the dispatcher exits
	// abandoned records that a cancellation cost at least one batch. The
	// dispatcher sets it before done closes; Close reads it after <-done.
	abandoned atomic.Bool
}

// New starts a pipeline delivering sealed batches to run. It panics on a
// nil run; the returned Pipeline must be Closed to release its
// dispatcher.
func New(run Exec, cfg Config) *Pipeline {
	if run == nil {
		panic("pipeline: nil Exec")
	}
	size := cfg.BufferSize
	if size <= 0 {
		size = defaultBufferSize
	}
	inflight := cfg.MaxInFlight
	if inflight <= 0 {
		inflight = 1
	}
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	// The dispatcher holding a batch plus inflight−1 channel slots keeps
	// sealed batches past the accumulator ≤ inflight.
	p := &Pipeline{
		exec:    run,
		cb:      cfg.Callback,
		ctx:     ctx,
		size:    size,
		g:       cfg.Gauges,
		tracer:  cfg.Tracer,
		buf:     make([]exec.Edge, 0, size),
		batches: make(chan sealed, inflight-1),
		free:    make(chan []exec.Edge, inflight+1),
		done:    make(chan struct{}),
	}
	p.g.Active.Inc()
	go p.dispatch()
	return p
}

// BufferSize returns the resolved seal threshold.
func (p *Pipeline) BufferSize() int { return p.size }

// Push appends edges to the active buffer, sealing a batch each time the
// buffer reaches the threshold. It blocks while the dispatcher is
// MaxInFlight batches behind and returns ErrClosed after Close. Edges are
// copied before Push returns; the caller may reuse its slice.
func (p *Pipeline) Push(edges ...exec.Edge) error {
	return p.PushLinked(tracespan.Context{}, edges...)
}

// PushLinked is Push carrying a remote trace context: when the pipeline
// is traced, the batch the edges land in adopts the link's trace ID (the
// first link a batch sees wins — later frames accumulating into the same
// batch keep the established identity). An invalid (zero) link makes
// PushLinked exactly Push; an untraced pipeline ignores links entirely.
// The server's stream handler threads each traced frame's context
// through here, which is how a remote client's trace ID ends up on the
// span tree its edges execute under.
func (p *Pipeline) PushLinked(link tracespan.Context, edges ...exec.Edge) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	for len(edges) > 0 {
		if len(p.buf) == 0 && p.tracer != nil && p.tr == nil {
			p.tr = p.tracer.Start(tracespan.OpUnite, tracespan.SourceStream)
			p.seal = p.tr.Start(tracespan.StageSeal, tracespan.Root)
		}
		p.tr.Adopt(link)
		take := p.size - len(p.buf)
		if take > len(edges) {
			take = len(edges)
		}
		p.buf = append(p.buf, edges[:take]...)
		edges = edges[take:]
		if len(p.buf) >= p.size {
			p.sealLocked()
		}
	}
	return nil
}

// Flush seals the active buffer even below the threshold. Flushing an empty
// buffer is a no-op: no batch, no callback. Flush blocks under the same
// backpressure as Push and returns ErrClosed after Close.
//
// Once the Config.Context is cancelled, Flush fails fast with the
// context's error instead of sealing a batch that the dispatcher would
// only abandon: the caller learns the stream is dead at the call site —
// what a server draining a connection needs for clean shutdown — rather
// than from a silently dropped batch. The buffered edges stay put; Close
// abandons them (and reports the same error). Push keeps accepting, so
// producers that don't check per-call errors retain the old drop-at-
// dispatch behavior.
func (p *Pipeline) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if err := p.ctx.Err(); err != nil {
		return err
	}
	if len(p.buf) > 0 {
		p.sealLocked()
	}
	return nil
}

// sealLocked hands the active buffer to the dispatcher and installs a
// fresh one. The blocking send is the backpressure. For any producer off
// the dispatcher goroutine it cannot deadlock — the dispatcher drains the
// channel unconditionally until Close, fast-failing batches after a
// context cancellation instead of stopping — but a seal from inside the
// callback blocks against the dispatcher running that callback, which is
// why Config.Callback forbids re-entrant calls.
func (p *Pipeline) sealLocked() {
	p.nextID++
	tr, seal := p.tr, p.seal
	p.tr, p.seal = nil, 0
	tr.End(seal)
	if a := tr.Attrs(tracespan.Root); a != nil {
		a.Edges = int64(len(p.buf))
	}
	// The queue-wait span opens before the (possibly blocking) handoff:
	// time spent in the backpressure send and in the channel is exactly
	// what it measures; the dispatcher ends it on pickup.
	qw := tr.Start(tracespan.StageQueueWait, tracespan.Root)
	// Inc before the (possibly blocking) send: a batch stuck in the
	// backpressure send is in flight from the producer's point of view,
	// which is exactly when the gauge pinned at MaxInFlight matters.
	p.g.InFlight.Inc()
	p.batches <- sealed{id: p.nextID, edges: p.buf, tr: tr, qw: qw}
	select {
	case b := <-p.free:
		p.buf = b
	default:
		p.buf = make([]exec.Edge, 0, p.size)
	}
}

// Close seals any buffered remainder, waits for every sealed batch to
// execute and its callback to return, and stops the dispatcher. It
// returns the context's error when a cancellation abandoned at least one
// batch, nil otherwise — a cancellation that arrives after every batch
// already executed lost nothing and is not an error. Close is idempotent
// and safe concurrently with producers: a producer blocked in Push
// finishes first, then sees ErrClosed on its next call.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		p.g.Active.Dec()
		if len(p.buf) > 0 {
			p.sealLocked()
		}
		close(p.batches)
	}
	p.mu.Unlock()
	<-p.done
	if p.abandoned.Load() {
		return p.ctx.Err()
	}
	return nil
}

// dispatch is the dispatcher goroutine: execute batches in seal order,
// deliver callbacks, recycle buffers.
func (p *Pipeline) dispatch() {
	defer close(p.done)
	for b := range p.batches {
		b.tr.End(b.qw)
		dsp := b.tr.Start(tracespan.StageDispatch, tracespan.Root)
		p.g.Executing.Inc()
		res := p.runBatch(b)
		p.g.Executing.Dec()
		b.tr.End(dsp)
		res.ID = b.id
		res.Edges = len(b.edges)
		res.Trace = b.tr
		if res.Err != nil {
			if a := b.tr.Attrs(tracespan.Root); a != nil {
				a.Err = res.Err.Error()
			}
		}
		if p.cb != nil {
			p.cb(res)
		}
		// Finish after the callback: a callback may add spans (the
		// server's reply-encode); once recorded the trace is immutable.
		p.tracer.Finish(b.tr)
		p.g.InFlight.Dec()
		select {
		case p.free <- b.edges[:0]:
			p.g.Recycled.Inc()
		default: // free list full; let the buffer go to the GC
		}
	}
}

// runBatch executes one sealed batch, converting a context cancellation
// into an abandoned Result and an Exec panic into an error the stream
// survives.
func (p *Pipeline) runBatch(b sealed) (res Result) {
	if err := p.ctx.Err(); err != nil {
		p.abandoned.Store(true)
		return Result{Err: err}
	}
	defer func() {
		if r := recover(); r != nil {
			res = Result{Err: fmt.Errorf("pipeline: batch %d exec panicked: %v", b.id, r)}
		}
	}()
	return p.exec(b.edges, b.tr)
}
