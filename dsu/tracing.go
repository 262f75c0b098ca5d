package dsu

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/tracespan"
)

// TraceContext is a wire-portable trace identity: the trace ID a remote
// peer assigned to a batch plus the peer's span the local work should
// hang under. The network front end decodes one from each traced frame
// and threads it into Stream.PushLinked / the traced DTO methods; a zero
// value means "no context" and is ignored everywhere.
type TraceContext = tracespan.Context

// BatchTrace is the exported, JSON-stable form of one finished batch
// trace: identity, op, source, duration, and the span tree (see
// SpanTrace). Universe.Traces, Universe.SlowTraces, and the /debug/traces
// endpoint all speak this type.
type BatchTrace = tracespan.TraceSnapshot

// SpanTrace is one span of an exported trace.
type SpanTrace = tracespan.SpanSnapshot

// Tracing is the package's batch-tracing registry: one of these owns a
// per-tenant trace Recorder for every traced universe — the fixed-size
// ring of recent batch traces plus the slow-batch flight recorder — and
// writes the whole collection as JSON (it is an http.Handler, mountable
// as /debug/traces).
//
// Attach one to a Registry with WithTracing, or to a hand-built universe
// with Universe.EnableTracing; tracing rides the same execution seams
// metrics do, so every path into a tenant's structure — blocking batch
// calls, streams, remote RPCs — records the same span taxonomy without
// the caller doing anything. Without a Tracing attached nothing is
// recorded and the batch hot path pays one nil check (and zero
// allocations) — the disabled mode the root BenchmarkTraceOverhead pins
// down.
type Tracing struct {
	cfg tracespan.Config

	mu   sync.Mutex
	recs map[string]*tracespan.Recorder
}

// TracingOption configures NewTracing.
type TracingOption interface {
	applyTracing(*Tracing)
}

type tracingOptionFunc func(*Tracing)

func (f tracingOptionFunc) applyTracing(t *Tracing) { f(t) }

// WithSlowThreshold sets the flight-recorder promotion latency: finished
// traces whose end-to-end duration meets it are retained in the slow
// ring beyond the recent ring's churn. Values ≤ 0 select the default
// (100ms); to retain every trace pass 1 (one nanosecond).
func WithSlowThreshold(d time.Duration) TracingOption {
	return tracingOptionFunc(func(t *Tracing) { t.cfg.SlowThreshold = d })
}

// WithTraceRing sets the recent-trace ring capacity per tenant (default
// 256). New completions overwrite the oldest.
func WithTraceRing(n int) TracingOption {
	return tracingOptionFunc(func(t *Tracing) { t.cfg.Ring = n })
}

// WithRetainedSlow sets the slow-batch flight-recorder capacity per
// tenant (default 64).
func WithRetainedSlow(n int) TracingOption {
	return tracingOptionFunc(func(t *Tracing) { t.cfg.Retain = n })
}

// NewTracing returns a fresh tracing registry.
func NewTracing(opts ...TracingOption) *Tracing {
	t := &Tracing{recs: make(map[string]*tracespan.Recorder)}
	for _, o := range opts {
		o.applyTracing(t)
	}
	return t
}

// SlowThreshold returns the flight-recorder promotion latency every
// tenant recorder is built with (the default when unconfigured).
func (t *Tracing) SlowThreshold() time.Duration {
	if t == nil || t.cfg.SlowThreshold <= 0 {
		return tracespan.DefaultSlowThreshold
	}
	return t.cfg.SlowThreshold
}

// recorder resolves (creating on first use) the tenant's recorder.
func (t *Tracing) recorder(tenant string) *tracespan.Recorder {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.recs[tenant]
	if !ok {
		rec = tracespan.New(t.cfg)
		t.recs[tenant] = rec
	}
	return rec
}

// drop forgets a tenant's recorder (Registry.Drop routes here); traces
// already snapshotted stay valid, the storage simply stops accumulating.
func (t *Tracing) drop(tenant string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.recs, tenant)
}

// TenantTraces is one tenant's slice of the trace exposition: the recent
// ring and the flight recorder, both newest-first, plus the recorder's
// counters.
type TenantTraces struct {
	Tenant  string        `json:"tenant"`
	Started uint64        `json:"started"`           // traces begun
	Slow    uint64        `json:"slow_count"`        // promoted to the flight recorder
	Recent  []BatchTrace  `json:"recent"`            // recent ring, newest first
	Slowest []BatchTrace  `json:"retained_slow"`     // flight recorder, newest first
	Thresh  time.Duration `json:"slow_threshold_ns"` // promotion latency
}

// Snapshot exports every tenant's traces, sorted by tenant name. Cold
// path: allocates freely, safe concurrently with all recording.
func (t *Tracing) Snapshot() []TenantTraces {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	names := make([]string, 0, len(t.recs))
	recs := make(map[string]*tracespan.Recorder, len(t.recs))
	for name, rec := range t.recs {
		names = append(names, name)
		recs[name] = rec
	}
	t.mu.Unlock()
	sort.Strings(names)
	out := make([]TenantTraces, 0, len(names))
	for _, name := range names {
		rec := recs[name]
		out = append(out, TenantTraces{
			Tenant:  name,
			Started: rec.Started(),
			Slow:    rec.SlowCount(),
			Recent:  rec.Snapshot(),
			Slowest: rec.Slow(),
			Thresh:  rec.SlowThreshold(),
		})
	}
	return out
}

// ServeHTTP makes Tracing an http.Handler: mount it as /debug/traces.
// The body is a JSON array of TenantTraces. "?tenant=name" restricts the
// exposition to one tenant; "?slow=1" drops the recent rings and reports
// only the flight recorders.
func (t *Tracing) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	snap := t.Snapshot()
	if tenant := r.URL.Query().Get("tenant"); tenant != "" {
		filtered := snap[:0]
		for _, tt := range snap {
			if tt.Tenant == tenant {
				filtered = append(filtered, tt)
			}
		}
		snap = filtered
	}
	if r.URL.Query().Get("slow") != "" {
		for i := range snap {
			snap[i].Recent = nil
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snap)
}

// WithTracing attaches a tracing registry: every universe this Registry
// creates is traced from Create, before it becomes visible, so its whole
// lifetime of batches lands in t's per-tenant rings. A nil t leaves the
// registry untraced. Compose with WithMetrics freely — the two ride the
// same seams independently.
func WithTracing(t *Tracing) RegistryOption {
	return registryOptionFunc(func(r *Registry) { r.tracing = t })
}

// EnableTracing attaches the universe to a tracing registry, resolving
// its per-tenant recorder under the universe's name. Every batch
// admitted afterwards — blocking calls, stream batches, remote RPCs — is
// traced; streams opened before the call keep their untraced pipeline.
// A nil t (or nil receiver field resolution) disables tracing. Not
// synchronized with in-flight batches: attach before the universe is
// shared, as Registry.Create does.
func (u *Universe) EnableTracing(t *Tracing) {
	u.rec = t.recorder(u.name)
}

// TraceRecorder returns the universe's trace recorder, nil when tracing
// is off — the seam the network front end records its wire-decode and
// reply-encode spans through.
func (u *Universe) TraceRecorder() *tracespan.Recorder { return u.rec }

// Traces returns the universe's recent finished batch traces, newest
// first (nil when tracing is off). Each entry is a complete span tree:
// root batch span, stage spans, and per-worker attribution.
func (u *Universe) Traces() []BatchTrace { return u.rec.Snapshot() }

// SlowTraces returns the flight recorder: traces whose end-to-end
// latency met the slow threshold, retained beyond the recent ring's
// churn. Newest first; nil when tracing is off.
func (u *Universe) SlowTraces() []BatchTrace { return u.rec.Slow() }

// UniteAllTraced is UniteAll recording into a caller-supplied trace —
// the form the network front end uses, where the trace begins at frame
// decode and ends after reply encode, so the execute spans recorded here
// land in the middle of the server's tree. A successful batch sets the
// root span's edge and merge counts; finishing the trace is the caller's
// job. A nil trace makes this exactly UniteAll, which owns its trace: it
// opens one after validation and finishes it. Either way, validation
// errors are reported before any execution, so a rejected request
// records no trace.
func (u *Universe) UniteAllTraced(req UniteRequest, tr *Trace) (BatchReply, error) {
	cfg, err := u.resolve(req.Options)
	if err != nil {
		return BatchReply{}, err
	}
	if err := validatePairs("edge", req.Edges, u.b.N()); err != nil {
		return BatchReply{}, err
	}
	if tr == nil {
		tr = u.rec.Start(tracespan.OpUnite, tracespan.SourceBlocking)
		defer u.rec.Finish(tr)
	}
	cfg.Trace = tr
	res := u.b.x.UniteAll(req.Edges, cfg)
	if res.Err != nil {
		// Durability refused the batch: it was not applied, and no reply
		// may acknowledge it.
		return BatchReply{}, res.Err
	}
	rep := replyOf(nil, res)
	if a := tr.Attrs(tracespan.Root); a != nil {
		a.Edges = int64(len(req.Edges))
		a.Merged = rep.Merged
	}
	return rep, nil
}

// SameSetAllTraced is SameSetAll recording into a caller-supplied trace
// (see UniteAllTraced).
func (u *Universe) SameSetAllTraced(req QueryRequest, tr *Trace) (BatchReply, error) {
	cfg, err := u.resolve(req.Options)
	if err != nil {
		return BatchReply{}, err
	}
	if err := validatePairs("pair", req.Pairs, u.b.N()); err != nil {
		return BatchReply{}, err
	}
	if tr == nil {
		tr = u.rec.Start(tracespan.OpQuery, tracespan.SourceBlocking)
		defer u.rec.Finish(tr)
	}
	cfg.Trace = tr
	out, res := u.b.x.SameSetAll(req.Pairs, cfg)
	if a := tr.Attrs(tracespan.Root); a != nil {
		a.Edges = int64(len(req.Pairs))
	}
	return replyOf(out, res), nil
}

// Trace is one in-flight batch trace — an opaque handle the network
// front end threads from frame decode through execution to reply encode.
// All methods are nil-safe; ordinary callers never touch one (the traced
// veneers and the stream pipeline manage traces internally).
type Trace = tracespan.Trace
