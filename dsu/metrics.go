package dsu

import (
	"io"
	"net/http"

	"repro/internal/exec"
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
// with Universe.Instrument; instrumentation rides the execution seam, so
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
// The batch counters are exactly the exec.Result accounting every call
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

// instruments resolves the per-tenant executor bundle.
func (m *Metrics) instruments(tenant string) *exec.Instruments {
	if m == nil {
		return nil
	}
	return &exec.Instruments{
		Unite: exec.OpInstruments{
			Batches:   m.batches.With(tenant, "unite"),
			Edges:     m.edges.With(tenant, "unite"),
			FindSteps: m.findSteps.With(tenant, "unite"),
			Latency:   m.latency.With(tenant, "unite"),
		},
		Query: exec.OpInstruments{
			Batches:   m.batches.With(tenant, "query"),
			Edges:     m.edges.With(tenant, "query"),
			FindSteps: m.findSteps.With(tenant, "query"),
			Latency:   m.latency.With(tenant, "query"),
		},
		Merged:     m.merged.With(tenant),
		CASRetries: m.casRetries.With(tenant),
		Seq:        m.seq.With(tenant),
	}
}

// gauges resolves the per-tenant stream pipeline gauges.
func (m *Metrics) gauges(tenant string) pipeline.Gauges {
	if m == nil {
		return pipeline.Gauges{}
	}
	return pipeline.Gauges{
		Active:    m.streamsActive.With(tenant),
		InFlight:  m.streamInFlight.With(tenant),
		Executing: m.streamExecuting.With(tenant),
		Recycled:  m.streamRecycled.With(tenant),
	}
}

// Instrument attaches m's per-tenant series to the universe: every batch
// through the structure's execution seam — blocking, streamed, or remote
// — feeds them from here on, and streams opened via this universe feed
// the pipeline gauges. Call before the universe is shared (Registry
// universes built with WithMetrics are instrumented at Create, before
// they are visible). Instrumenting with a nil Metrics is a no-op.
func (u *Universe) Instrument(m *Metrics) {
	if m == nil {
		return
	}
	u.b.x.Instrument(m.instruments(u.name))
	u.sg = m.gauges(u.name)
}

// TenantMetrics is one universe's accounting totals, read from the live
// instruments — the in-process face of the /metrics exposition, so
// embedders and benchmarks see exactly what a scraper would. The batch
// totals equal the summed exec.Result/BatchReply values returned to this
// tenant's callers since instrumentation.
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
	ins := u.b.x.Instruments()
	if ins == nil {
		return TenantMetrics{}
	}
	return TenantMetrics{
		Instrumented:          true,
		UniteBatches:          ins.Unite.Batches.Value(),
		QueryBatches:          ins.Query.Batches.Value(),
		UniteEdges:            ins.Unite.Edges.Value(),
		QueryPairs:            ins.Query.Edges.Value(),
		Merged:                ins.Merged.Value(),
		FindSteps:             ins.Unite.FindSteps.Value() + ins.Query.FindSteps.Value(),
		CASRetries:            ins.CASRetries.Value(),
		Seq:                   ins.Seq.Value(),
		StreamsActive:         u.sg.Active.Value(),
		StreamBatchesInFlight: u.sg.InFlight.Value(),
	}
}
