package dsu

import (
	"io"
	"net/http"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/pipeline"
)

// Metrics is the package's instrumentation registry: one of these owns the
// metric families every instrumented universe feeds — per-tenant batch
// counters, latency histograms, CAS-retry series, stream pipeline gauges —
// and writes them as a Prometheus text exposition (it is an http.Handler,
// mountable as /metrics).
//
// Attach one to a Registry with WithMetrics, or to a hand-built universe
// with Universe.Instrument; instrumentation rides the batch funnel, so
// every path into a tenant's structure — blocking batch calls, streams,
// remote RPCs — feeds the same series without the caller doing anything.
// Without a Metrics attached nothing is recorded and the batch hot path
// pays one nil check (and zero allocations) — the disabled mode the root
// BenchmarkMetricsOverhead pins down.
//
// # Series catalog
//
// Per tenant (label "tenant"; batch series split by "op" = unite|query):
//
//	dsu_batches_total{tenant,op}            executed batch calls
//	dsu_batch_edges_total{tenant,op}        batch elements (edges or pairs)
//	dsu_find_steps_total{tenant,op}         find-loop iterations
//	dsu_batch_seconds{tenant,op}            end-to-end batch latency histogram
//	dsu_merged_edges_total{tenant}          edges that performed a merge
//	dsu_cas_retries_total{tenant}           root-link CAS retries (contention)
//	dsu_tenant_seq{tenant}                  applied-batch sequence (gauge)
//	dsu_streams_active{tenant}              open streams (gauge)
//	dsu_stream_inflight_batches{tenant}     sealed batches past accumulators (gauge)
//	dsu_stream_executing_batches{tenant}    batches inside UniteAll (gauge)
//	dsu_stream_recycled_buffers_total{tenant} buffers reused through free lists
//
// The batch counters are exactly the engine.Result accounting every call
// already returns: a scrape's per-tenant totals equal the sum of the
// BatchReply values handed to that tenant's callers.
type Metrics struct {
	reg *metrics.Registry

	batches    *metrics.CounterVec
	edges      *metrics.CounterVec
	findSteps  *metrics.CounterVec
	latency    *metrics.HistogramVec
	merged     *metrics.CounterVec
	casRetries *metrics.CounterVec
	seq        *metrics.GaugeVec

	streamsActive   *metrics.GaugeVec
	streamInFlight  *metrics.GaugeVec
	streamExecuting *metrics.GaugeVec
	streamRecycled  *metrics.CounterVec
}

// NewMetrics returns a fresh instrumentation registry with the dsu
// family catalog registered.
func NewMetrics() *Metrics {
	reg := metrics.NewRegistry()
	return &Metrics{
		reg:        reg,
		batches:    reg.CounterVec("dsu_batches_total", "Batch calls executed, by tenant and operation kind.", "tenant", "op"),
		edges:      reg.CounterVec("dsu_batch_edges_total", "Batch elements received (edges or query pairs).", "tenant", "op"),
		findSteps:  reg.CounterVec("dsu_find_steps_total", "Find-loop iterations across the batch's workers.", "tenant", "op"),
		latency:    reg.HistogramVec("dsu_batch_seconds", "End-to-end batch wall-clock latency in seconds.", nil, "tenant", "op"),
		merged:     reg.CounterVec("dsu_merged_edges_total", "Unite-batch edges that performed a merge.", "tenant"),
		casRetries: reg.CounterVec("dsu_cas_retries_total", "Root-link CAS attempts that lost a race to a concurrent link and retried, summed over unite batches (contention on roots).", "tenant"),
		seq:        reg.GaugeVec("dsu_tenant_seq", "Applied-batch sequence number: the durable log position when persistence is on, a plain batch count otherwise. Compare across replicas.", "tenant"),

		streamsActive:   reg.GaugeVec("dsu_streams_active", "Open streams (ingestion pipelines).", "tenant"),
		streamInFlight:  reg.GaugeVec("dsu_stream_inflight_batches", "Sealed stream batches past the accumulator: queued, blocked, or executing.", "tenant"),
		streamExecuting: reg.GaugeVec("dsu_stream_executing_batches", "Stream batches currently inside UniteAll.", "tenant"),
		streamRecycled:  reg.CounterVec("dsu_stream_recycled_buffers_total", "Stream buffers reused through the pipeline free list.", "tenant"),
	}
}

// Registry returns the underlying instrumentation registry, for layers
// that register their own families onto the same exposition (the network
// front end's server series ride here).
func (m *Metrics) Registry() *metrics.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// WriteText writes the full exposition in Prometheus text format v0.0.4.
// Safe concurrently with all recording.
func (m *Metrics) WriteText(w io.Writer) error { return m.Registry().WriteText(w) }

// ServeHTTP makes Metrics an http.Handler: mount it as /metrics.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.TextContentType)
	_ = m.WriteText(w)
}

// opInstruments is one operation kind's slice of a tenant's bundle: unite
// batches and query batches each get their own batch/edge/find-step
// counters and latency histogram, so a scraper can tell mutation traffic
// from query traffic per tenant.
type opInstruments struct {
	batches, edges, findSteps *metrics.Counter
	latency                   *metrics.Histogram
}

// instruments is a tenant's metrics bundle, resolved from a Metrics
// registry under the tenant's name. The batch funnel feeds it on every
// batch — blocking calls, stream batches and remote RPCs alike — and
// streams feed its pipeline gauges.
type instruments struct {
	unite, query opInstruments
	// merged counts edges that performed a merge, comparable against a
	// scrape-time Sets() delta; casRetries counts root-link CAS retries.
	merged, casRetries *metrics.Counter
	// seq tracks the applied-batch sequence. A gauge, not a counter:
	// Instrument primes it to a recovered position.
	seq     *metrics.Gauge
	streams pipeline.Gauges
}

// observe records one batch run.
func (m *instruments) observe(query bool, n int, res *engine.Result) {
	o := &m.unite
	if query {
		o = &m.query
	} else {
		m.merged.Add(res.Merged)
	}
	o.batches.Inc()
	o.edges.Add(int64(n))
	o.findSteps.Add(res.Stats().FindSteps)
	o.latency.Observe(res.Elapsed.Seconds())
	m.casRetries.Add(res.CASRetries)
}

// instruments resolves the tenant's bundle.
func (m *Metrics) instruments(tenant string) *instruments {
	op := func(kind string) opInstruments {
		return opInstruments{
			batches:   m.batches.With(tenant, kind),
			edges:     m.edges.With(tenant, kind),
			findSteps: m.findSteps.With(tenant, kind),
			latency:   m.latency.With(tenant, kind),
		}
	}
	return &instruments{
		unite:      op("unite"),
		query:      op("query"),
		merged:     m.merged.With(tenant),
		casRetries: m.casRetries.With(tenant),
		seq:        m.seq.With(tenant),
		streams: pipeline.Gauges{
			Active:    m.streamsActive.With(tenant),
			InFlight:  m.streamInFlight.With(tenant),
			Executing: m.streamExecuting.With(tenant),
			Recycled:  m.streamRecycled.With(tenant),
		},
	}
}

// Instrument attaches m's series, under the universe's name, to its
// structure: every batch the structure runs — blocking, streamed, or
// remote — feeds them from here on, and so do the pipeline gauges of the
// streams opened afterwards. Attaching through any view re-attaches the
// whole tenant, replacing the series attached before. Call before the
// universe is shared, so the series count its whole lifetime (Registry
// universes built with WithMetrics are instrumented at Create, before
// they are visible). Instrumenting with a nil Metrics is a no-op.
func (u *Universe) Instrument(m *Metrics) {
	if m == nil {
		return
	}
	ins := m.instruments(u.name)
	ins.seq.Set(int64(u.b.applied.Load())) // a recovered position
	u.b.ins.Store(ins)
}

// TenantMetrics is one universe's accounting totals, read from the live
// instruments — the in-process face of the /metrics exposition, so
// embedders and benchmarks see exactly what a scraper would. The batch
// totals equal the summed BatchReply values returned to this tenant's
// callers since instrumentation.
type TenantMetrics struct {
	// Instrumented reports whether the universe has live instruments; when
	// false every other field is zero.
	Instrumented bool

	// UniteBatches/QueryBatches count executed batch calls; UniteEdges/
	// QueryPairs their elements.
	UniteBatches, QueryBatches int64
	UniteEdges, QueryPairs     int64
	// Merged counts edges that performed a merge.
	Merged int64
	// FindSteps sums find-loop iterations across unite and query batches.
	FindSteps int64
	// CASRetries counts root-link CAS retries across unite batches.
	CASRetries int64
	// Seq is the applied-batch sequence gauge (Universe.Seq as last
	// published to the instruments).
	Seq int64
	// StreamsActive and StreamBatchesInFlight are the live pipeline
	// gauges for streams opened through this universe.
	StreamsActive, StreamBatchesInFlight int64
}

// Metrics returns the universe's live accounting snapshot. On an
// uninstrumented universe it returns the zero TenantMetrics (Instrumented
// false).
func (u *Universe) Metrics() TenantMetrics {
	ins := u.b.ins.Load()
	if ins == nil {
		return TenantMetrics{}
	}
	return TenantMetrics{
		Instrumented:          true,
		UniteBatches:          ins.unite.batches.Value(),
		QueryBatches:          ins.query.batches.Value(),
		UniteEdges:            ins.unite.edges.Value(),
		QueryPairs:            ins.query.edges.Value(),
		Merged:                ins.merged.Value(),
		FindSteps:             ins.unite.findSteps.Value() + ins.query.findSteps.Value(),
		CASRetries:            ins.casRetries.Value(),
		Seq:                   ins.seq.Value(),
		StreamsActive:         ins.streams.Active.Value(),
		StreamBatchesInFlight: ins.streams.InFlight.Value(),
	}
}
