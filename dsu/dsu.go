// Package dsu is a concurrent, wait-free disjoint-set-union (union-find)
// library implementing Jayanti & Tarjan, "A Randomized Concurrent Algorithm
// for Disjoint Set Union" (PODC 2016).
//
// A DSU maintains a partition of the elements 0..n−1 under Unite (merge two
// sets) and SameSet (are two elements together?). All operations are safe
// for concurrent use from any number of goroutines, are linearizable, and
// are wait-free: an operation completes in a bounded number of its own steps
// regardless of what other goroutines do. Under random linking, every
// operation takes O(log n) steps with high probability, and with the default
// two-try splitting the expected total work for m operations by p processes
// is Θ(m(α(n, m/np) + log(np/m + 1))) — effectively linear speedup when all
// processes stay busy.
//
// # Quick start
//
//	d := dsu.New(1000)
//	d.Unite(1, 2)
//	d.Unite(2, 3)
//	d.SameSet(1, 3) // true
//
// Variants from the paper are selected with options:
//
//	d := dsu.New(n, dsu.WithFind(dsu.OneTrySplitting), dsu.WithEarlyTermination())
//
// Every batch runs one find rule: the structure's variant, or the one the
// batch names for itself. Per-batch tuning is one struct, BatchOptions
// (worker pool, grain, find override), which the batch methods take as an
// optional trailing argument, a stream takes for every batch, and a
// tenant-API request carries over the wire:
//
//	d.UniteAll(edges, dsu.BatchOptions{Workers: 4, Find: dsu.NoCompaction})
//
// FindAuto and WithAdaptiveFind are compatibility names of the default,
// two-try splitting.
//
// Every DSU serves the paper's regime as it stands: goroutines may issue
// point operations and batches (UniteAll, SameSetAll) with no
// coordination, under every find variant, and overlapping batches sum
// their merge counts exactly. For workloads that create elements on line,
// NewDynamic provides MakeSet (lock-free; see the paper's Section 3
// remark). For edges that arrive over time, NewStream wraps a structure
// in an asynchronous ingestion front: pushes accumulate into
// double-buffered batches executed in the background, in seal order, with
// backpressure and per-batch completion callbacks (see Stream).
//
// Registry and Universe name structures as tenants — the vocabulary the
// network front end serves. A Universe is a name and its DSU; the DSU
// holds the whole tenant, so every handle on it shares one log, one set
// of metrics and one trace recorder. WithKind and ParseKind keep the kind
// names of older specs ("flat", "lockfree"); every name builds the same
// DSU.
//
// Observability is opt-in and free when off. WithMetrics attaches a
// Metrics registry (per-tenant counters, latency histograms, Prometheus
// text exposition); WithTracing attaches a Tracing registry that records
// a span tree for every batch — queue-wait, seal, dispatch, execute with
// per-worker attribution, reply-encode — into per-tenant rings plus a
// slow-batch flight recorder, readable via Universe.Traces and
// Universe.SlowTraces or served as JSON (Tracing is an http.Handler).
// Trace context propagates across the wire protocol, so a remote
// client's batch and the server's work connect into one trace. Both
// layers ride the structure's one batch funnel: every ingestion path is
// covered with zero caller involvement, and the uninstrumented hot path
// pays one nil check.
package dsu

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/tracespan"
)

// FindStrategy selects how Find compacts the paths it traverses. The
// default, TwoTrySplitting, carries the paper's best proven work bound
// (Theorem 5.1).
type FindStrategy int

const (
	// NoCompaction follows parent pointers without modifying them
	// (Algorithm 1). Simplest; O(log n) per operation w.h.p. (Theorem 4.3).
	NoCompaction FindStrategy = iota + 1
	// OneTrySplitting tries once to swing each visited node's parent to its
	// grandparent (Algorithm 4); bound of Theorem 5.2.
	OneTrySplitting
	// TwoTrySplitting retries each parent swing once before advancing
	// (Algorithm 5); bound of Theorem 5.1, tight by Theorem 5.4.
	TwoTrySplitting
	// Halving jumps to grandparents as it compacts, the compaction of
	// Anderson & Woll; provided for comparison (Section 3 shows it cannot
	// beat splitting concurrently).
	Halving
	// Compression is a concurrent two-pass path compression, the variant
	// Section 6 conjectures retains the splitting bounds.
	Compression
	// FindAuto is a compatibility name for TwoTrySplitting: it named a
	// retired policy that swapped find variants per query batch, and it
	// stays so that older specs ("auto") and durable logs whose header
	// records it keep working. Replies report TwoTrySplitting.
	// WithAdaptiveFind() is shorthand for WithFind(FindAuto).
	FindAuto
)

// String returns the strategy name used in the paper and experiment tables.
// The zero value, which selects the caller's default, prints "default";
// ParseFindStrategy maps every name printed here, except that of an
// unknown value, back to its strategy.
func (f FindStrategy) String() string {
	switch f {
	case 0:
		return "default"
	case FindAuto:
		return "auto"
	case NoCompaction, OneTrySplitting, TwoTrySplitting, Halving, Compression:
		return coreFind(f).String()
	default:
		return fmt.Sprintf("FindStrategy(%d)", int(f))
	}
}

func coreFind(f FindStrategy) core.Find {
	switch f {
	case NoCompaction:
		return core.FindNaive
	case OneTrySplitting:
		return core.FindOneTry
	case TwoTrySplitting:
		return core.FindTwoTry
	case Halving:
		return core.FindHalving
	case Compression:
		return core.FindCompress
	case FindAuto:
		return core.FindTwoTry
	default:
		panic("dsu: unknown FindStrategy")
	}
}

// Stats tallies the shared-memory work of counted operations: parent-pointer
// loads, CAS attempts and failures, find steps, retry rounds, completed
// finds, successful links, path-compaction rewrites, and completed
// operations. Keep one Stats per goroutine and merge with Add; Work returns
// loads + CAS attempts, the paper's total-work metric.
type Stats = core.Stats

// DSU is a concurrent wait-free disjoint-set structure over a fixed element
// universe 0..n−1. The zero value is not usable; call New. Methods may be
// called from any number of goroutines concurrently, batches included:
// the partition after overlapping calls is that of their combined edges,
// and their Merged counts sum to that edge set's exact count.
//
// A DSU is also the whole state of a tenant: the instruments, trace
// recorder and write-ahead log a Registry attaches live here, next to the
// forest, so every handle on the structure — a Universe, any view of it
// made with NewUniverse, the DSU itself — logs, counts and traces the same
// batches.
type DSU struct {
	c *core.DSU
	// ins is the tenant's metrics bundle (nil until Universe.Instrument);
	// the atomic pointer keeps a scrape racing an attach sound.
	ins atomic.Pointer[instruments]
	// rec is the tenant's trace recorder (nil, recording nothing, until
	// Universe.EnableTracing); atomic, as ins is, so attaching through a
	// view races no in-flight batch.
	rec atomic.Pointer[tracespan.Recorder]
	// dur is the tenant's write-ahead log (nil unless a durable Registry
	// created the structure). See durability.go.
	dur *durableState
	// gate lets a checkpoint drain in-flight mutation batches: logged
	// batches hold it shared, a checkpoint holds it exclusive.
	gate sync.RWMutex
	// applied is the sequence number of the latest applied mutation batch
	// (1 for the first). On a durable structure it is the log's committed
	// sequence; without a log it still counts batches, so replicas and
	// operators can compare positions.
	applied atomic.Uint64
}

// New returns a DSU over n singleton elements 0..n−1. It panics if n is
// negative, n exceeds 2³¹−1, or the options are inconsistent (early
// termination is defined only for NoCompaction and the splitting
// strategies).
func New(n int, opts ...Option) *DSU {
	cfg := defaultConfig()
	for _, o := range opts {
		o.apply(&cfg)
	}
	return &DSU{c: core.New(n, core.Config{
		Find:             coreFind(cfg.find),
		EarlyTermination: cfg.early,
		Seed:             cfg.seed,
	})}
}

// N returns the number of elements.
func (d *DSU) N() int { return d.c.N() }

// Find returns the root (canonical representative at the linearization
// point) of the set containing x. Note that roots change as sets merge;
// SameSet is the stable way to compare membership.
func (d *DSU) Find(x uint32) uint32 { return d.c.Find(x) }

// FindCounted is Find, accumulating work counters into st (st must not be
// shared between goroutines without synchronization).
func (d *DSU) FindCounted(x uint32, st *Stats) uint32 { return d.c.FindCounted(x, st) }

// SameSet reports whether x and y are in the same set. The result is
// linearizable: it was exact at an instant during the call.
func (d *DSU) SameSet(x, y uint32) bool { return d.c.SameSet(x, y) }

// SameSetCounted is SameSet with work accounting into st.
func (d *DSU) SameSetCounted(x, y uint32, st *Stats) bool { return d.c.SameSetCounted(x, y, st) }

// Unite merges the sets containing x and y. It reports whether this call
// performed the merge (false means the sets were already one at the
// linearization point, possibly merged by a concurrent Unite). On a
// durable structure it is a one-edge batch, logged before it is applied.
func (d *DSU) Unite(x, y uint32) bool {
	if d.dur != nil {
		_, res := d.must([]Edge{{X: x, Y: y}}, false, nil)
		return res.Merged > 0
	}
	return d.c.Unite(x, y)
}

// UniteCounted is Unite with work accounting into st.
func (d *DSU) UniteCounted(x, y uint32, st *Stats) bool {
	if d.dur != nil {
		_, res := d.must([]Edge{{X: x, Y: y}}, false, nil)
		st.Add(res.Stats())
		return res.Merged > 0
	}
	return d.c.UniteCounted(x, y, st)
}

// Sets returns the number of sets. Call at quiescence (no concurrent
// Unites) for an exact answer.
func (d *DSU) Sets() int { return d.c.Sets() }

// CanonicalLabels returns, for every element, the minimum element of its
// set — a canonical naming of the partition. Call at quiescence.
func (d *DSU) CanonicalLabels() []uint32 { return d.c.CanonicalLabels() }

// Snapshot returns a copy of the parent-pointer forest, for analysis and
// debugging. Call at quiescence for a consistent picture.
func (d *DSU) Snapshot() []uint32 { return d.c.Snapshot() }

// Components materializes the partition as a slice of sets, each sorted
// ascending, ordered by their minimum elements. Call at quiescence. It runs
// in O(n) plus the allocation of the result.
func (d *DSU) Components() [][]uint32 { return componentsFromLabels(d.c.CanonicalLabels()) }

// componentsFromLabels buckets a canonical labelling into sorted sets
// ordered by their minima (labels are minima, encountered in ascending
// element order).
func componentsFromLabels(labels []uint32) [][]uint32 {
	sizes := make(map[uint32]int, 16)
	for _, l := range labels {
		sizes[l]++
	}
	buckets := make(map[uint32][]uint32, len(sizes))
	for l, sz := range sizes {
		buckets[l] = make([]uint32, 0, sz)
	}
	var order []uint32
	for x, l := range labels {
		if uint32(x) == l {
			order = append(order, l) // canonical labels are minima, seen in ascending x order
		}
		buckets[l] = append(buckets[l], uint32(x))
	}
	out := make([][]uint32, 0, len(order))
	for _, l := range order {
		out = append(out, buckets[l])
	}
	return out
}

// ID returns x's position in the random linking order (fixed at New).
// Exposed for forest analysis; not needed for ordinary use.
func (d *DSU) ID(x uint32) uint32 { return d.c.ID(x) }

// Dynamic is a concurrent disjoint-set structure whose elements are created
// on line with MakeSet, per the paper's Section 3 remark and Section 7. It
// is the structure New builds, over a capacity fixed at construction, with
// MakeSet handing out its elements one at a time; each element's place in
// the linking order is its id in the capacity-wide random permutation.
// With unbounded MakeSets the structure is lock-free rather than
// wait-free; the fixed capacity bounds the universe.
type Dynamic struct {
	c *core.Dynamic
}

// ErrFull is returned by MakeSet when capacity is exhausted.
var ErrFull = core.ErrFull

// NewDynamic returns an empty Dynamic with the given capacity. Only
// WithSeed among the options is meaningful; find is always two-try
// splitting. It panics on a negative capacity.
func NewDynamic(capacity int, opts ...Option) *Dynamic {
	cfg := defaultConfig()
	for _, o := range opts {
		o.apply(&cfg)
	}
	return &Dynamic{c: core.NewDynamic(capacity, core.Config{Seed: cfg.seed})}
}

// MakeSet creates a new element in a singleton set and returns it, or
// ErrFull when the capacity is exhausted. Safe to call concurrently with
// all other methods.
func (d *Dynamic) MakeSet() (uint32, error) { return d.c.MakeSet() }

// Len returns the number of elements created so far.
func (d *Dynamic) Len() int { return d.c.N() }

// Cap returns the capacity.
func (d *Dynamic) Cap() int { return d.c.Cap() }

// Find returns the current root of x's set.
func (d *Dynamic) Find(x uint32) uint32 { return d.c.Find(x) }

// SameSet reports whether x and y are in the same set (linearizable).
func (d *Dynamic) SameSet(x, y uint32) bool { return d.c.SameSet(x, y) }

// Unite merges the sets containing x and y, reporting whether this call
// performed the merge.
func (d *Dynamic) Unite(x, y uint32) bool { return d.c.Unite(x, y) }

// CanonicalLabels returns the canonical partition labelling over created
// elements. Call at quiescence.
func (d *Dynamic) CanonicalLabels() []uint32 { return d.c.CanonicalLabels() }
