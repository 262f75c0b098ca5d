package dsu

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/tracespan"
)

// Edge is one element pair of a batch: an edge to unite across, or a
// connectivity query to answer.
type Edge = core.Edge

// BatchOptions tunes one batch. It is the one per-batch vocabulary: the
// batch methods take it as an optional trailing argument, a stream takes
// it for every batch it dispatches (WithBatchOptions), and a tenant-API
// request carries it over the wire. The zero value selects every default.
type BatchOptions struct {
	// Workers is the batch worker-pool size; values ≤ 0 select
	// runtime.GOMAXPROCS(0), and values above MaxBatchWorkers select
	// MaxBatchWorkers. The pool never exceeds the batch length, and a
	// batch of at most one grain runs on the caller's goroutine as one
	// worker.
	Workers int
	// Grain is the number of edges a worker claims from the batch at a
	// time; values ≤ 0 select the default (1024). Smaller grains balance
	// skewed batches better; larger grains amortize scheduling overhead.
	Grain int
	// Find, when non-zero, overrides the structure's find variant for this
	// batch. FindAuto names a structure configuration, not a per-batch
	// value, and is refused; Halving and Compression are refused on
	// structures built WithEarlyTermination (the combination is undefined,
	// exactly as in New). A Dynamic takes no override.
	Find FindStrategy
}

// MaxBatchWorkers caps the worker pool one batch may ask for. A remote
// frame must not be able to spawn an unbounded number of goroutines, and
// no legitimate batch benefits from more workers than this (the engine
// additionally clamps to the edge count).
const MaxBatchWorkers = 1024

// optionsOf returns the optional trailing BatchOptions of a batch call.
func optionsOf(opts []BatchOptions) BatchOptions {
	switch len(opts) {
	case 0:
		return BatchOptions{}
	case 1:
		return opts[0]
	}
	panic("dsu: a batch call takes at most one BatchOptions")
}

// resolve turns a batch's options into what runs it on structure c: the
// view of c that runs the batch's find rule, and the engine
// configuration. The scheduling seed is the structure's seed, so a
// structure built for reproducibility also schedules its batches
// reproducibly.
func resolve(c *core.DSU, o BatchOptions) (*core.DSU, engine.Config, error) {
	cfg := engine.Config{Workers: min(o.Workers, MaxBatchWorkers), Grain: o.Grain, Seed: c.Config().Seed}
	switch o.Find {
	case 0:
		return c, cfg, nil
	case FindAuto:
		return nil, cfg, errors.New("dsu: FindAuto names a structure configuration (WithAdaptiveFind), not a per-batch override")
	case NoCompaction, OneTrySplitting, TwoTrySplitting:
	case Halving, Compression:
		if c.Config().EarlyTermination {
			return nil, cfg, fmt.Errorf("dsu: find override %v is undefined on a structure built with early termination", o.Find)
		}
	default:
		return nil, cfg, fmt.Errorf("dsu: unknown find strategy %d", int(o.Find))
	}
	return c.WithFind(coreFind(o.Find)), cfg, nil
}

// validatePairs bounds-checks a batch against the universe. Remote callers
// are untrusted; a single predictable compare per endpoint here is what
// lets the wait-free core keep its unchecked array indexing.
func validatePairs(what string, pairs []Edge, n int) error {
	limit := uint32(n)
	for i, e := range pairs {
		if e.X >= limit || e.Y >= limit {
			return fmt.Errorf("dsu: %s %d names (%d,%d), outside the %d-element universe", what, i, e.X, e.Y, n)
		}
	}
	return nil
}

// batch is the one funnel every batch takes: the batch methods, the
// tenant API's requests, stream batches, durable point Unites and
// recovery replay. It resolves the options, validates the elements, logs
// a mutation batch on a durable structure and runs the batch: a query
// batch when query is set, answering into the returned slice, a unite
// batch otherwise. tr is the caller's trace; with none and own set, a
// traced structure records the batch under a trace of its own (streams
// pass own false: an untraced stream stays untraced). Options and
// elements are checked before anything runs, so a request they refuse
// records no trace. Queries never touch the log or the applied sequence.
func (d *DSU) batch(pairs []Edge, query bool, o BatchOptions, tr *Trace, own bool) ([]bool, engine.Result, error) {
	what, op := "edge", tracespan.OpUnite
	if query {
		what, op = "pair", tracespan.OpQuery
	}
	t, cfg, err := resolve(d.c, o)
	if err == nil {
		err = validatePairs(what, pairs, d.c.N())
	}
	if err != nil {
		return nil, engine.Result{}, err
	}
	if rec := d.rec.Load(); tr == nil && own && rec != nil {
		tr = rec.Start(op, tracespan.SourceBlocking)
		defer rec.Finish(tr)
	}
	cfg.Trace = tr
	var out []bool
	var res engine.Result
	switch {
	case query || len(pairs) == 0:
		out, res = d.run(t, pairs, query, cfg)
	case d.dur != nil:
		if res, err = d.logged(t, pairs, cfg); err != nil {
			return nil, res, err
		}
	default:
		_, res = d.run(t, pairs, false, cfg)
		d.publishSeq(d.applied.Add(1))
	}
	if a := tr.Attrs(tracespan.Root); a != nil {
		a.Edges = int64(len(pairs))
		a.Merged = res.Merged
	}
	return out, res, nil
}

// logged appends a mutation batch to the structure's log and then applies
// it. The batch is durable, per the log's sync policy, before it touches
// the forest, and a failed append fails the batch without applying it: a
// batch whose result any caller has seen is a batch the log can replay.
// Mutations hold the quiesce gate shared, so a checkpoint, which holds it
// exclusive, snapshots exactly the batches the log has numbered.
func (d *DSU) logged(t *core.DSU, edges []Edge, cfg engine.Config) (engine.Result, error) {
	d.gate.RLock()
	seq, err := d.dur.w.Append(edges)
	if err != nil {
		d.gate.RUnlock()
		return engine.Result{}, err
	}
	_, res := d.run(t, edges, false, cfg)
	d.raiseApplied(seq)
	d.gate.RUnlock()
	d.publishSeq(d.applied.Load())
	if d.dur.w.CheckpointDue() {
		d.checkpoint(false)
	}
	return res, nil
}

// raiseApplied advances the applied sequence to at least seq. Batches
// commit out of order under the shared gate, so a plain store could move
// the sequence backwards; the CAS loop keeps it a high-water mark.
func (d *DSU) raiseApplied(seq uint64) {
	for {
		cur := d.applied.Load()
		if cur >= seq || d.applied.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// publishSeq sets the instruments' sequence gauge to seq.
func (d *DSU) publishSeq(seq uint64) {
	if m := d.ins.Load(); m != nil {
		m.seq.Set(int64(seq))
	}
}

// run drives one resolved batch through the engine on view t and records
// it: an execute span wrapping the run, one worker span per pool worker
// synthesized from the Result's accounting, and the structure's
// instruments. A query batch answers into the returned slice.
func (d *DSU) run(t *core.DSU, pairs []Edge, query bool, cfg engine.Config) ([]bool, engine.Result) {
	ex := cfg.Trace.Start(tracespan.StageExecute, tracespan.Root)
	var out []bool
	var res engine.Result
	if query {
		out, res = engine.SameSetAll(t, pairs, cfg)
	} else {
		res = engine.UniteAll(t, pairs, cfg)
	}
	cfg.Trace.End(ex)
	res.Find = t.Config().Find
	traceExecute(cfg.Trace, ex, len(pairs), &res)
	if m := d.ins.Load(); m != nil {
		m.observe(query, len(pairs), &res)
	}
	return out, res
}

// traceExecute fills the execute span ex of one batch and adds its worker
// spans, each spanning the run with that worker's counters as attributes.
// The core stays uninstrumented.
func traceExecute(t *tracespan.Trace, ex tracespan.SpanRef, n int, res *engine.Result) {
	if t == nil || ex == 0 {
		return
	}
	start := t.StartOffset(ex)
	if a := t.Attrs(ex); a != nil {
		a.Edges = int64(n)
		a.Merged = res.Merged
		a.CASRetries = res.CASRetries
		a.FindSteps = res.Stats().FindSteps
		a.Find = res.Find.String()
	}
	end := start + res.Elapsed
	for i := range res.PerWorker {
		w := t.StartAt(tracespan.StageWorker, ex, start)
		t.EndAt(w, end)
		if a := t.Attrs(w); a != nil {
			s := &res.PerWorker[i]
			a.Worker = int64(i + 1)
			a.Ops = s.Ops
			a.FindSteps = s.FindSteps
			a.CASRetries = s.CASFailures
		}
	}
}

// must runs an in-process batch through the funnel. An in-process call
// can be refused only for a contract violation (an element outside the
// universe, a refused find override) or, on a durable structure, for a
// failed append, after which nothing further can be acknowledged; each
// panics with its diagnosis at the call site.
func (d *DSU) must(pairs []Edge, query bool, opts []BatchOptions) ([]bool, engine.Result) {
	out, res, err := d.batch(pairs, query, optionsOf(opts), nil, true)
	if err != nil {
		panic(err)
	}
	return out, res
}

// UniteAll merges across every edge of the batch using a pool of
// work-stealing workers and returns the number of edges that performed a
// merge. The resulting partition — and the returned count — are exactly
// those of a sequential pass over the batch, for any worker count and
// schedule. UniteAll may run concurrently with any other operation,
// including other batches. It takes at most one BatchOptions.
func (d *DSU) UniteAll(edges []Edge, opts ...BatchOptions) int {
	_, res := d.must(edges, false, opts)
	return int(res.Merged)
}

// UniteAllCounted is UniteAll, accumulating the pool's summed work
// counters into st.
func (d *DSU) UniteAllCounted(edges []Edge, st *Stats, opts ...BatchOptions) int {
	_, res := d.must(edges, false, opts)
	st.Add(res.Stats())
	return int(res.Merged)
}

// SameSetAll answers pairs[i] into element i of the returned slice, using
// the same worker pool as UniteAll. Each answer is linearizable; with no
// concurrent Unites the whole slice is exact for the current partition.
func (d *DSU) SameSetAll(pairs []Edge, opts ...BatchOptions) []bool {
	out, _ := d.must(pairs, true, opts)
	return out
}

// SameSetAllCounted is SameSetAll with work accounting into st.
func (d *DSU) SameSetAllCounted(pairs []Edge, st *Stats, opts ...BatchOptions) []bool {
	out, res := d.must(pairs, true, opts)
	st.Add(res.Stats())
	return out
}

// dynamicConfig resolves a Dynamic batch's options. A Dynamic always
// finds by two-try splitting, so a find override is a contract violation
// and panics with its diagnosis, as DSU's batch methods do.
func (d *Dynamic) dynamicConfig(opts []BatchOptions) engine.Config {
	o := optionsOf(opts)
	if o.Find != 0 {
		panic(fmt.Errorf("dsu: a Dynamic batch takes no find override (got %v): its find is always two-try splitting", o.Find))
	}
	_, cfg, _ := resolve(d.c.DSU, o)
	return cfg
}

// UniteAll merges across every edge of the batch, as DSU.UniteAll. Edges
// must name elements already created by MakeSet; MakeSet may run
// concurrently with the batch. Its BatchOptions may set Workers and
// Grain; a Find override panics.
func (d *Dynamic) UniteAll(edges []Edge, opts ...BatchOptions) int {
	return int(engine.UniteAll(d.c.DSU, edges, d.dynamicConfig(opts)).Merged)
}

// SameSetAll answers pairs[i] into element i of the returned slice, as
// DSU.SameSetAll, under the same options as UniteAll.
func (d *Dynamic) SameSetAll(pairs []Edge, opts ...BatchOptions) []bool {
	out, _ := engine.SameSetAll(d.c.DSU, pairs, d.dynamicConfig(opts))
	return out
}
