package exec

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/metrics"
)

// OpInstruments is the per-operation-kind slice of an Instruments bundle:
// unite batches and query batches each get their own batch/edge/find-step
// counters and latency histogram, so a scraper can tell mutation traffic
// from query traffic per tenant.
type OpInstruments struct {
	// Batches counts executed batch calls.
	Batches *metrics.Counter
	// Edges counts the elements of those batches (edges or query pairs).
	Edges *metrics.Counter
	// FindSteps counts find-loop iterations across the batch's workers —
	// the paper's work-per-operation observable, live.
	FindSteps *metrics.Counter
	// Latency is the end-to-end batch wall-clock histogram, in seconds.
	Latency *metrics.Histogram
}

// observe records one batch run. Nil instruments discard for free.
func (o *OpInstruments) observe(n int, st core.Stats, res *Result) {
	o.Batches.Inc()
	o.Edges.Add(int64(n))
	o.FindSteps.Add(st.FindSteps)
	o.Latency.Observe(res.Elapsed.Seconds())
}

// Instruments is the per-tenant metrics bundle the Executor feeds on
// every batch it runs — the point of the exec seam is that blocking
// calls, stream batches, and remote RPCs all funnel through one Executor,
// so attaching the bundle here instruments every path at once, without
// any caller doing anything. All fields are nil-safe: a zero bundle (or
// individual nil instruments) records nothing, and the dsu layer resolves
// the fields from its metrics registry when (and only when) a tenant is
// instrumented.
//
// The instruments are shared registry children: the Executor only ever
// Adds to them, so any number of executors may share a bundle (they
// don't, in practice — one tenant, one structure, one executor).
type Instruments struct {
	// Unite and Query split the per-op series by batch kind.
	Unite, Query OpInstruments
	// Merged counts edges that performed a merge, summed over unite
	// batches — comparable against a scrape-time Sets() delta.
	Merged *metrics.Counter
	// CASRetries counts root-link CAS retries (Result.CASRetries) — the
	// structure's contention metric, live.
	CASRetries *metrics.Counter
	// Seq tracks the applied-batch sequence (Executor.Seq): the durable
	// log position when persistence is on, a plain batch count otherwise.
	// A gauge, not a counter — recovery primes it to the recovered
	// position, and operators compare it across replicas.
	Seq *metrics.Gauge
}

// observeUnite records one mutation batch.
func (m *Instruments) observeUnite(n int, res *Result) {
	m.Unite.observe(n, res.Stats(), res)
	m.Merged.Add(res.Merged)
	m.CASRetries.Add(res.CASRetries)
}

// observeQuery records one query batch.
func (m *Instruments) observeQuery(n int, res *Result) {
	m.Query.observe(n, res.Stats(), res)
	m.CASRetries.Add(res.CASRetries)
}

// Instrument attaches the bundle; subsequent batches feed it. It may be
// called at most once, before the executor is shared across goroutines
// (in practice: during tenant creation, before the Universe is
// published); the atomic pointer keeps a scrape racing an attach sound.
func (e *Executor) Instrument(m *Instruments) { e.ins.Store(m) }

// Instruments returns the attached bundle, nil when uninstrumented.
func (e *Executor) Instruments() *Instruments { return e.ins.Load() }

// insPtr is the Executor's bundle slot (declared here with the rest of
// the instrumentation so executor.go stays about policy).
type insPtr = atomic.Pointer[Instruments]
