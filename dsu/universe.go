package dsu

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/pipeline"
	"repro/internal/tracespan"
)

// A Universe is the tenant-scoped view of one disjoint-set structure: a
// name, a *DSU, and the request/response surface remote and in-process
// callers share. The DTO methods (UniteAll, SameSetAll) take plain-data
// requests, validate them against the universe — element range, per-batch
// find overrides — and answer with a BatchReply carrying the execution
// layer's full accounting; the wire protocol (internal/wire) carries
// exactly these types, so a batch means the same thing whether it arrived
// over a socket or from the goroutine next door.
// The package's own batch veneers (DSU.UniteAll and friends, Stream) route
// through this layer too, which is what keeps the two worlds identical.
//
// A Universe is a stateless wrapper: all structure state lives in the
// DSU, every method is safe for concurrent use, and any number of
// Universe values may wrap one structure.
type Universe struct {
	name string
	b    *DSU
	// sg holds the tenant's stream pipeline gauges, resolved by
	// Instrument; the zero value records nothing. Streams opened through
	// this universe feed them (the executor-side instruments live on the
	// structure's execution seam and need no per-universe state).
	sg pipeline.Gauges
	// rec is the tenant's trace recorder, resolved by EnableTracing; nil
	// (the default) disables tracing — every batch path nil-checks once
	// and records nothing.
	rec *tracespan.Recorder
	// dur is the tenant's persistence handle (log writer + checkpoint
	// routine), nil for the non-durable universes every registry without
	// WithDurability creates. See durability.go.
	dur *durableState
}

// NewUniverse wraps an existing structure as a named universe — for
// serving a structure built by hand, outside a Registry. The name is
// advisory (Registry enforces uniqueness, this does not).
func NewUniverse(name string, d *DSU) *Universe { return &Universe{name: name, b: d} }

// Name returns the universe's tenant name ("" for the anonymous universe
// every structure carries internally).
func (u *Universe) Name() string { return u.name }

// Backend returns the wrapped structure.
func (u *Universe) Backend() *DSU { return u.b }

// N returns the number of elements.
func (u *Universe) N() int { return u.b.N() }

// Find, SameSet, and Unite are the point operations, delegated to the
// structure. On a durable universe, Unite routes through the execution
// seam as a one-edge batch so it is logged before it is applied, like
// every other mutation on the tenant surface.
func (u *Universe) Find(x uint32) uint32     { return u.b.Find(x) }
func (u *Universe) SameSet(x, y uint32) bool { return u.b.SameSet(x, y) }
func (u *Universe) Unite(x, y uint32) bool {
	if u.dur != nil {
		return u.durableUnite(x, y)
	}
	return u.b.Unite(x, y)
}

// Sets, CanonicalLabels, Components, Snapshot, and ID are the quiescent
// read surface, delegated to the structure.
func (u *Universe) Sets() int                 { return u.b.Sets() }
func (u *Universe) CanonicalLabels() []uint32 { return u.b.CanonicalLabels() }
func (u *Universe) Components() [][]uint32    { return u.b.Components() }
func (u *Universe) Snapshot() []uint32        { return u.b.Snapshot() }
func (u *Universe) ID(x uint32) uint32        { return u.b.ID(x) }

// BatchOptions is the plain-data mirror of the per-batch option vocabulary
// (WithWorkers, WithGrain) plus an optional per-batch find-variant override
// — the form a batch's tuning takes inside a request DTO, where a
// []BatchOption cannot travel. The zero value selects every default.
type BatchOptions struct {
	// Workers is the batch worker-pool size; values ≤ 0 select
	// runtime.GOMAXPROCS(0).
	Workers int
	// Grain is the span-claim granularity; values ≤ 0 select the engine
	// default (1024).
	Grain int
	// Find, when non-zero, overrides the structure's find variant for this
	// batch. FindAuto names a structure configuration, not a per-batch
	// value, and is rejected; Halving and Compression are rejected on
	// structures built WithEarlyTermination (the combination is undefined,
	// exactly as in New).
	Find FindStrategy
}

// Options converts o back into the option vocabulary, for configuring
// in-process batch calls or stream defaults from a wire-shaped
// description. The Find override has no []BatchOption form — it is
// resolved by the Universe DTO methods — and is ignored here.
func (o BatchOptions) Options() []BatchOption {
	var opts []BatchOption
	if o.Workers > 0 {
		opts = append(opts, WithWorkers(o.Workers))
	}
	if o.Grain > 0 {
		opts = append(opts, WithGrain(o.Grain))
	}
	return opts
}

// batchOptionsOf flattens a resolved option list into the DTO form — how
// the in-process veneers phrase their calls in the Universe layer's
// vocabulary.
func batchOptionsOf(opts []BatchOption) BatchOptions {
	var cfg exec.Config
	for _, o := range opts {
		o.applyBatch(&cfg)
	}
	return BatchOptions{Workers: cfg.Workers, Grain: cfg.Grain}
}

// UniteRequest asks a universe to merge across a batch of edges.
type UniteRequest struct {
	Edges   []Edge
	Options BatchOptions
}

// QueryRequest asks a universe to answer a batch of connectivity queries.
type QueryRequest struct {
	Pairs   []Edge
	Options BatchOptions
}

// BatchReply reports one executed batch — the response DTO shared by
// in-process callers and the wire. Merged, Find, CASRetries, Elapsed, and
// Stats carry the execution layer's unified accounting (exec.Result);
// Answers is filled by query batches only, indexed like the request's
// Pairs.
type BatchReply struct {
	// Answers is nil on unite replies; on query replies it is non-nil and
	// indexed like the request's Pairs. The wire framing keeps nil and
	// empty apart (a flag bit), so a zero-pair query's empty slice
	// survives it.
	Answers []bool
	Merged  int64
	Find    FindStrategy
	// CASRetries carries exec.Result.CASRetries: root-link CAS attempts
	// that lost a race to a concurrent link and retried, summed over the
	// batch's workers — the contention metric (zero under early
	// termination, and zero for query batches). Remote callers read
	// their batches' contention here.
	CASRetries int64
	Elapsed    time.Duration
	Stats      Stats
}

// findStrategyOf maps a resolved core variant back to the public
// vocabulary (the reverse of coreFind; FindAuto never appears — replies
// report the variant a batch ran).
func findStrategyOf(f core.Find) FindStrategy {
	switch f {
	case core.FindNaive:
		return NoCompaction
	case core.FindOneTry:
		return OneTrySplitting
	case core.FindTwoTry:
		return TwoTrySplitting
	case core.FindHalving:
		return Halving
	case core.FindCompress:
		return Compression
	default:
		return 0
	}
}

// replyOf assembles the DTO from one execution record.
func replyOf(answers []bool, res exec.Result) BatchReply {
	return BatchReply{
		Answers:    answers,
		Merged:     res.Merged,
		Find:       findStrategyOf(res.Find),
		CASRetries: res.CASRetries,
		Elapsed:    res.Elapsed,
		Stats:      res.Stats(),
	}
}

// MaxBatchWorkers caps the worker pool one batch request may ask for. The
// DTO layer is the untrusted boundary — a remote frame must not be able
// to spawn an unbounded number of goroutines — and no legitimate batch
// benefits from more workers than this (the engine additionally clamps to
// the edge count). The network front end applies the same cap to its
// stream tuning parameters.
const MaxBatchWorkers = 1024

// resolve turns request options into the execution configuration,
// validating the find override against the structure's configuration.
func (u *Universe) resolve(o BatchOptions) (exec.Config, error) {
	if o.Workers > MaxBatchWorkers {
		o.Workers = MaxBatchWorkers
	}
	cfg := exec.Config{Workers: o.Workers, Grain: o.Grain, Seed: u.b.x.Seed()}
	switch o.Find {
	case 0:
		// The structure's configured variant.
	case FindAuto:
		return cfg, errors.New("dsu: FindAuto names a structure configuration (WithAdaptiveFind), not a per-batch override")
	case NoCompaction, OneTrySplitting, TwoTrySplitting:
		cfg.Find = coreFind(o.Find)
	case Halving, Compression:
		if u.b.c.Config().EarlyTermination {
			return cfg, fmt.Errorf("dsu: find override %v is undefined on a structure built with early termination", o.Find)
		}
		cfg.Find = coreFind(o.Find)
	default:
		return cfg, fmt.Errorf("dsu: unknown find strategy %d", int(o.Find))
	}
	return cfg, nil
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

// Validate bounds-checks a batch against the universe without running it —
// the pre-flight check the network front end runs before pushing remote
// edges into a stream, where execution is deferred past the moment a
// per-request error could still be returned.
func (u *Universe) Validate(pairs []Edge) error {
	return validatePairs("edge", pairs, u.b.N())
}

// ReplyOf converts one executed stream batch's record into the reply DTO —
// how the network front end phrases stream completions in the same
// vocabulary as RPC replies. (Abandoned batches have no execution record;
// their Err travels as a protocol error instead.)
func ReplyOf(r BatchResult) BatchReply { return replyOf(nil, r.Result) }

// UniteAll merges across every edge of the request's batch and reports the
// run. It is the mutation entry point of the tenant API: requests are
// validated (element range, find override) and then driven through the
// structure's execution seam — the same funnel DSU.UniteAll and every
// Stream batch use, so remote and in-process batches are
// indistinguishable to the structure. The reply's Merged is the exact
// sequential merge count.
func (u *Universe) UniteAll(req UniteRequest) (BatchReply, error) {
	return u.UniteAllTraced(req, nil)
}

// SameSetAll answers the request's pairs into the reply's Answers slice
// (Answers[i] answers Pairs[i]) — the query entry point of the tenant API,
// validated and funneled exactly as UniteAll. The reply's Find reports
// the variant the batch ran.
func (u *Universe) SameSetAll(req QueryRequest) (BatchReply, error) {
	return u.SameSetAllTraced(req, nil)
}

// ParseFindStrategy maps a wire- or flag-friendly name to its
// FindStrategy, case-insensitively: "naive" (or "nocompaction"), "onetry",
// "twotry", "halving", "compress" (or "compression"), and "auto" (or
// "adaptive") for FindAuto, a compatibility name of two-try splitting.
// The empty string and "default" return 0 — the caller's default. Each
// strategy's String() round-trips.
func ParseFindStrategy(s string) (FindStrategy, error) {
	switch strings.ToLower(s) {
	case "", "default":
		return 0, nil
	case "naive", "nocompaction":
		return NoCompaction, nil
	case "onetry", "one-try":
		return OneTrySplitting, nil
	case "twotry", "two-try":
		return TwoTrySplitting, nil
	case "halving":
		return Halving, nil
	case "compress", "compression":
		return Compression, nil
	case "auto", "adaptive":
		return FindAuto, nil
	default:
		return 0, fmt.Errorf("dsu: unknown find strategy %q", s)
	}
}

// ParseKind maps a wire- or flag-friendly name to its structure Kind,
// case-insensitively: "flat" and "lockfree" (or "lock-free",
// "concurrent"). The empty string and "default" return 0 — unset. Every
// name builds the same structure; the names stay so that older specs
// parse. Each kind's String() round-trips.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "", "default":
		return 0, nil
	case "flat":
		return KindFlat, nil
	case "lockfree", "lock-free", "concurrent":
		return KindLockFree, nil
	default:
		return 0, fmt.Errorf("dsu: unknown structure kind %q", s)
	}
}

// ErrExists is returned by Registry.Create when the name is taken.
var ErrExists = errors.New("dsu: universe already exists")

// Registry is the tenant directory: it creates and looks up named
// universes, each wrapping its own independent structure. All methods are
// safe for concurrent use. Tenant isolation is structural — universes
// share nothing but the process — so no operation on one tenant can
// observe or disturb another's partition.
type Registry struct {
	mu sync.RWMutex
	m  map[string]*Universe
	// metrics, when non-nil, instruments every universe Create builds
	// (WithMetrics): per-tenant series resolved under the tenant's name.
	metrics *Metrics
	// tracing, when non-nil, traces every universe Create builds
	// (WithTracing): per-tenant trace recorders resolved under the
	// tenant's name.
	tracing *Tracing
	// dur, when non-nil, makes every universe Create builds durable
	// (WithDurability): per-tenant write-ahead logs in dur.dir, recovery
	// on Create, checkpoints per dur's policy.
	dur *durabilityConfig
}

// RegistryOption configures NewRegistry.
type RegistryOption interface {
	applyRegistry(*Registry)
}

type registryOptionFunc func(*Registry)

func (f registryOptionFunc) applyRegistry(r *Registry) { f(r) }

// WithMetrics attaches an instrumentation registry: every universe this
// Registry creates is instrumented at Create, before it becomes visible,
// so its whole lifetime of batches lands in m's per-tenant series. A nil
// m leaves the registry uninstrumented.
func WithMetrics(m *Metrics) RegistryOption {
	return registryOptionFunc(func(r *Registry) { r.metrics = m })
}

// NewRegistry returns an empty registry.
func NewRegistry(opts ...RegistryOption) *Registry {
	r := &Registry{m: make(map[string]*Universe)}
	for _, o := range opts {
		o.applyRegistry(r)
	}
	return r
}

// Metrics returns the attached instrumentation registry, nil when the
// registry is uninstrumented.
func (r *Registry) Metrics() *Metrics { return r.metrics }

// Tracing returns the attached tracing registry, nil when the registry
// is untraced.
func (r *Registry) Tracing() *Tracing { return r.tracing }

// Create builds a new universe under name and registers it: a DSU built
// as New builds it from opts, whichever kind WithKind names (KindFlat,
// KindLockFree or unset). It returns an error — never panics — on a taken
// name, an out-of-range n, an unknown kind, or an option set New would
// refuse, so remote tenant creation cannot crash a server. The structure is allocated under the registry lock, which keeps
// the check-then-insert atomic but blocks lookups of other tenants for the
// allocation's duration — for a very large n that is not brief, so callers
// exposed to untrusted sizes should cap n (the network front end's MaxN
// does).
func (r *Registry) Create(name string, n int, opts ...Option) (*Universe, error) {
	if name == "" {
		return nil, errors.New("dsu: universe name must be non-empty")
	}
	cfg, err := checkConfig(n, opts)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	u := &Universe{name: name, b: New(n, opts...)}
	if r.dur != nil {
		// Open (or recover) the tenant's log before the universe is
		// instrumented or published: recovery replay is not re-logged and
		// never pollutes tenant metrics, and a failed recovery registers
		// nothing.
		if err := r.openDurable(u, n, cfg); err != nil {
			return nil, err
		}
	}
	u.Instrument(r.metrics)    // no-op when uninstrumented
	u.EnableTracing(r.tracing) // no-op (nil recorder) when untraced
	if u.dur != nil {
		// Publish the recovered position to the just-attached gauge.
		u.b.x.SetSeq(u.b.x.Seq())
	}
	r.m[name] = u
	return u, nil
}

// checkConfig resolves opts and returns the error New would panic with on
// them, or on n; it also refuses a kind outside KindFlat, KindLockFree and
// unset.
func checkConfig(n int, opts []Option) (config, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o.apply(&cfg)
	}
	if n < 0 || int64(n) > math.MaxInt32 {
		return cfg, fmt.Errorf("dsu: universe size %d out of range [0, 2³¹−1]", n)
	}
	switch cfg.find {
	case NoCompaction, OneTrySplitting, TwoTrySplitting, Halving, Compression, FindAuto:
	default:
		return cfg, fmt.Errorf("dsu: unknown find strategy %d", int(cfg.find))
	}
	if cfg.early && (cfg.find == Halving || cfg.find == Compression) {
		return cfg, fmt.Errorf("dsu: early termination is undefined with %v", cfg.find)
	}
	switch cfg.kind {
	case 0, KindFlat, KindLockFree:
	default:
		return cfg, fmt.Errorf("dsu: unknown structure kind %d", int(cfg.kind))
	}
	return cfg, nil
}

// Get returns the universe registered under name.
func (r *Registry) Get(name string) (*Universe, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	u, ok := r.m[name]
	return u, ok
}

// Drop unregisters name, reporting whether it existed. The universe's
// structure stays valid for holders of the pointer (in-flight batches and
// streams complete); it is simply no longer reachable by name. A durable
// tenant's log is sealed (its file remains, and a later Create under the
// same name recovers it), so in-flight mutations race the seal exactly
// as they race a process shutdown: logged ones survive, refused ones
// were never acknowledged.
func (r *Registry) Drop(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, ok := r.m[name]
	delete(r.m, name)
	if ok {
		r.tracing.drop(name)
		if u.dur != nil {
			u.dur.w.Close()
		}
	}
	return ok
}

// Names returns the registered tenant names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.m))
	for name := range r.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered universes.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m)
}
