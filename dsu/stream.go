package dsu

import (
	"context"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/pipeline"
	"repro/internal/tracespan"
)

// BatchResult reports one executed stream batch to the OnBatch callback:
// batch id (1-based seal order), edge count, the full unified execution
// record (merges, Stats(), elapsed time), and the execution error for
// abandoned batches.
type BatchResult = pipeline.Result

// ErrStreamClosed is reported by Stream.Push and Stream.Flush after Close.
var ErrStreamClosed = pipeline.ErrClosed

// streamConfig resolves the StreamOption list.
type streamConfig struct {
	buffer   int
	inflight int
	ctx      context.Context
	onBatch  func(BatchResult)
	batch    []BatchOption
}

// StreamOption configures NewStream.
type StreamOption interface {
	applyStream(*streamConfig)
}

type streamOptionFunc func(*streamConfig)

func (f streamOptionFunc) applyStream(c *streamConfig) { f(c) }

// WithBufferSize sets the seal threshold in edges: a batch dispatches as
// soon as the active buffer holds this many. Values ≤ 0 select the
// default (65536). Smaller buffers lower latency and sharpen overlap;
// larger buffers amortize the engine's dispatch cost — E20 sweeps the
// trade.
func WithBufferSize(n int) StreamOption {
	return streamOptionFunc(func(c *streamConfig) { c.buffer = n })
}

// WithMaxInFlight bounds how many sealed batches may exist past the
// accumulator (waiting plus executing); values ≤ 0 select 1, classic
// double buffering. A Push that would seal beyond the bound blocks until
// the dispatcher catches up — the stream's backpressure contract.
func WithMaxInFlight(n int) StreamOption {
	return streamOptionFunc(func(c *streamConfig) { c.inflight = n })
}

// WithStreamContext attaches a cancellation context: once ctx is
// cancelled, batches not yet executing are abandoned — their callbacks
// fire with Err set and their edges never reach the structure — and Close
// returns ctx's error if the cancellation abandoned anything. A batch
// already inside UniteAll completes.
func WithStreamContext(ctx context.Context) StreamOption {
	return streamOptionFunc(func(c *streamConfig) { c.ctx = ctx })
}

// WithOnBatch registers the per-batch completion callback. It runs on the
// stream's dispatcher goroutine: serialized, in batch-id order, exactly
// once per sealed batch (abandoned ones included, with Err set). A
// callback that blocks stalls ingestion — results apply backpressure too —
// and it must not call the stream's own Push, Flush, or Close: sealing or
// closing from inside the callback waits on the dispatcher that is busy
// running the callback, and deadlocks.
func WithOnBatch(fn func(BatchResult)) StreamOption {
	return streamOptionFunc(func(c *streamConfig) { c.onBatch = fn })
}

// WithBatchOptions sets the BatchOptions applied to every batch the
// stream dispatches — worker count, grain.
func WithBatchOptions(opts ...BatchOption) StreamOption {
	return streamOptionFunc(func(c *streamConfig) { c.batch = opts })
}

// Stream is the asynchronous ingestion front over a DSU: Push accumulates
// edges into batches that a background dispatcher drives through UniteAll
// while the next batch fills, so the caller streams edges instead of
// blocking per batch. Batches execute strictly in seal order on one
// dispatcher, which is why a stream produces exactly the partition of a
// blocking UniteAll loop over the same edge sequence, for any buffer
// size, and why OnBatch callbacks arrive in seal order.
//
// Push, Flush, and Close are safe for concurrent producers. Concurrent
// queries against the structure (SameSet, Find) are linearizable against
// whatever batches have executed. The structure must not be mutated
// outside the stream while the stream is open if batch/blocking
// equivalence is to hold.
type Stream struct {
	p *pipeline.Pipeline

	batches atomic.Uint64
	edges   atomic.Int64
	merged  atomic.Int64
	failed  atomic.Uint64
}

// NewStream starts a stream ingesting into d. The returned Stream owns a
// dispatcher goroutine; Close releases it. The stream's batches drive the
// structure's own execution seam — the same funnel blocking UniteAll
// calls use — so batch options resolve identically.
//
//	d := dsu.New(n)
//	s := dsu.NewStream(d,
//	        dsu.WithBufferSize(1<<16),
//	        dsu.WithOnBatch(func(r dsu.BatchResult) { log(r.ID, r.Merged) }))
//	for e := range arrivals { s.Push(e) }
//	s.Close() // flush remainder, drain, stop
func NewStream(d *DSU, opts ...StreamOption) *Stream {
	return d.uni.NewStream(opts...)
}

// NewStream starts a stream ingesting into the universe's structure — the
// stream entry point of the tenant API, and the layer dsu.NewStream is a
// veneer over. The network front end runs one of these per connection, so
// a remote edge stream gets exactly the in-process stream's batching,
// backpressure, and ordering.
func (u *Universe) NewStream(opts ...StreamOption) *Stream {
	cfg := streamConfig{}
	for _, o := range opts {
		o.applyStream(&cfg)
	}
	s := &Stream{}
	x := u.b.x
	base := batchConfig(x.Seed(), cfg.batch)
	run := func(edges []exec.Edge, tr *tracespan.Trace) pipeline.Result {
		bcfg := base
		bcfg.Trace = tr
		res := x.UniteAll(edges, bcfg)
		// Lift a durability refusal into the pipeline's error slot (the
		// embedded exec.Result.Err would be shadowed): the batch was not
		// applied, and the stream's completion callback must see it fail.
		return pipeline.Result{Result: res, Err: res.Err}
	}
	s.p = pipeline.New(run, pipeline.Config{
		BufferSize:  cfg.buffer,
		MaxInFlight: cfg.inflight,
		Context:     cfg.ctx,
		Gauges:      u.sg,  // zero (recording nothing) when uninstrumented
		Tracer:      u.rec, // nil (untraced) when tracing is off
		Callback: func(r pipeline.Result) {
			s.batches.Add(1)
			s.edges.Add(int64(r.Edges))
			if r.Err != nil {
				s.failed.Add(1)
			} else {
				s.merged.Add(r.Merged)
			}
			if cfg.onBatch != nil {
				cfg.onBatch(r)
			}
		},
	})
	return s
}

// Push appends edges to the stream, sealing and dispatching a batch each
// time the buffer reaches the threshold. It blocks while the stream is
// MaxInFlight batches ahead of the dispatcher and returns ErrStreamClosed
// after Close. Edges are copied before Push returns.
func (s *Stream) Push(edges ...Edge) error { return s.p.Push(edges...) }

// PushLinked is Push carrying a remote trace context: on a traced
// universe, the batch these edges land in adopts the link's trace ID
// (first link wins for a batch — later frames accumulating into the same
// batch keep the established identity), so the span tree recorded here
// carries the identity the remote client chose. A zero link makes
// PushLinked exactly Push; on an untraced universe links are ignored.
// The network front end threads each traced stream frame's context
// through here.
func (s *Stream) PushLinked(link TraceContext, edges ...Edge) error {
	return s.p.PushLinked(link, edges...)
}

// Flush seals the current buffer even below the threshold. Flushing an
// empty buffer is a no-op.
//
// Once the stream context (WithStreamContext) is cancelled, Flush fails
// fast with the context's error instead of sealing a batch the dispatcher
// would only abandon: the caller — a server draining a connection, say —
// learns at the call site that the stream is dead rather than from a
// silently dropped batch. Close reports the same error after abandoning
// whatever remained.
func (s *Stream) Flush() error { return s.p.Flush() }

// BufferSize returns the resolved seal threshold.
func (s *Stream) BufferSize() int { return s.p.BufferSize() }

// Close flushes any buffered remainder, waits for every sealed batch to
// execute and its callback to return, and stops the dispatcher. It
// returns the stream context's error when a cancellation abandoned at
// least one batch (Failed reports how many), nil otherwise — a
// cancellation arriving after everything executed lost nothing and is
// not an error. Close is idempotent, and the totals below are final once
// it returns.
func (s *Stream) Close() error { return s.p.Close() }

// Batches returns the number of batch callbacks delivered so far
// (abandoned batches included).
func (s *Stream) Batches() uint64 { return s.batches.Load() }

// Edges returns the total edges across delivered batches.
func (s *Stream) Edges() int64 { return s.edges.Load() }

// Merged returns the total merges across successfully executed batches.
func (s *Stream) Merged() int64 { return s.merged.Load() }

// Failed returns the number of abandoned batches (context cancellation or
// a panicking batch run).
func (s *Stream) Failed() uint64 { return s.failed.Load() }
