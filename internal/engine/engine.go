// Package engine is the batched parallel edge-processing engine: it fans a
// slice of edges out over a pool of worker goroutines that drive the
// wait-free operations of internal/core, with chunked work-stealing for load
// balance and per-worker work accounting.
//
// Batching is the natural bulk interface for a concurrent union-find
// (Fedorov et al., "Provably-Efficient and Internally-Deterministic Parallel
// Union-Find", SPAA 2023): the caller hands over a whole edge list and the
// engine decides placement, so throughput is limited by the structure, not
// by the caller's own concurrency plumbing. Each worker starts with a
// contiguous block of the batch (preserving scan locality) and, when its
// block drains, steals the upper half of the fullest remaining block —
// Polychronopoulos-style guided self-scheduling that keeps all workers busy
// even on skewed batches where some regions of the edge list are much more
// expensive than others.
//
// The engine is deliberately agnostic to what the edges mean: UniteAll
// merges endpoint sets, SameSetAll answers connectivity queries into a
// result slice. Both hand each claimed span of the batch, whole, to a
// Target, so the static core.DSU (whose span kernel overlaps the span's
// cache misses), the growing core.Dynamic and the sharded view are driven
// by one runner. The pool holds no barrier against anything else running
// on the target: any number of batch calls, streams and point callers may
// overlap on one core.DSU, and the summed Merged across overlapping calls
// stays exact, because each successful link is counted by exactly one
// Unite.
package engine

import (
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/randutil"
	"repro/internal/workload"
)

// Edge is one (X, Y) element pair of a batch: an edge to unite across, or a
// connectivity query to answer. It is the exec layer's Edge — the engine,
// the sharded path, and the pipeline all speak the same batch vocabulary.
type Edge = exec.Edge

// FromOps converts a workload op list into a batch of its element pairs.
// The op kind is dropped: the batch call (UniteAll or SameSetAll) decides
// what happens to each pair.
func FromOps(ops []workload.Op) []Edge {
	edges := make([]Edge, len(ops))
	for i, op := range ops {
		edges[i] = Edge{X: op.X, Y: op.Y}
	}
	return edges
}

// Target is the operation surface the engine drives: a worker hands it
// each span of edges it claims, in one call. core.DSU, core.Dynamic and
// the sharded structure's view satisfy it. The engine requires
// wait-freedom (or at least lock-freedom) from the target, since workers
// never coordinate beyond the span protocol and a blocking target would
// stall a whole worker. Implementations own the self-loop rule: a pair
// with X == Y never merges and is in its own set, so it counts as one
// completed operation (Stats.Ops) and pays no finds.
type Target interface {
	// UniteSpan merges across every edge of the span, reporting how many
	// edges performed a merge and how many times their root-link CASes
	// lost a race and retried; Result.Merged and Result.CASRetries sum
	// them.
	UniteSpan(edges []Edge, st *core.Stats) (merged, retries int64)
	// SameSetSpan answers whether pairs[i] are in the same set into
	// out[i]; out has the span's length.
	SameSetSpan(pairs []Edge, out []bool, st *core.Stats)
}

// Config tunes one batch run; it is the exec layer's Config, shared with
// the sharded path so one option funnel configures both. The zero value is
// ready to use. The engine's free functions ignore Config.Find (a Target
// is opaque); the Flat backend below resolves it.
type Config = exec.Config

// defaultGrain amortizes one claim CAS over enough unite/query work to make
// span traffic negligible, while staying small against the ≥64k batches the
// engine is built for.
const defaultGrain = 1024

// Result reports what one batch run did: the exec layer's unified Result.
// The engine fills the flat-path fields (Workers, Grain, Merged, Steals,
// PerWorker, filter accounting, Elapsed); the sharded path fills the rest.
type Result = exec.Result

// Flat adapts one core.DSU to the exec.Backend seam: batches run through
// the engine's worker pool against the structure, and Config.Find is
// resolved into a variant view of the same forest (core.DSU.WithFind), so
// the adaptive executor can downgrade query-phase compaction without
// touching the structure's configuration.
type Flat struct {
	D *core.DSU
}

var _ exec.Backend = Flat{}

// target resolves the per-batch find-variant override.
func (f Flat) target(v core.Find) *core.DSU {
	if v == 0 {
		return f.D
	}
	return f.D.WithFind(v)
}

// UniteAll drives the batch through the pool in Unite mode, honoring the
// Config's filter passes and find-variant override.
func (f Flat) UniteAll(edges []Edge, cfg Config) Result {
	t := f.target(cfg.Find)
	res := UniteAll(t, edges, cfg)
	res.Find = t.Config().Find
	return res
}

// SameSetAll answers the batch through the pool in SameSet mode, honoring
// the find-variant override.
func (f Flat) SameSetAll(pairs []Edge, cfg Config) ([]bool, Result) {
	t := f.target(cfg.Find)
	out, res := SameSetAll(t, pairs, cfg)
	res.Find = t.Config().Find
	return out, res
}

// ScreenConnected drops already-connected edges through the pool in
// SameSet mode (see the free function below).
func (f Flat) ScreenConnected(edges []Edge, cfg Config) ([]Edge, Result) {
	t := f.target(cfg.Find)
	kept, res := ScreenConnected(t, edges, cfg)
	res.Find = t.Config().Find
	return kept, res
}

// Seed returns the structure seed, the default batch-scheduling seed.
func (f Flat) Seed() uint64 { return f.D.Config().Seed }

// CoreConfig returns the structure's variant configuration.
func (f Flat) CoreConfig() core.Config { return f.D.Config() }

// UniteAll drives every edge of the batch through t.UniteSpan and returns
// the run's Result. Edges may appear in any order and multiplicity; the final
// partition is the same as a sequential left-to-right pass (unions are
// order-independent), and Result.Merged equals the number of merges that
// pass would perform.
func UniteAll(t Target, edges []Edge, cfg Config) Result {
	var filtered int
	var filterElapsed time.Duration
	var filterStats core.Stats
	if cfg.Prefilter {
		start := time.Now()
		kept := exec.Dedup(edges)
		filtered += len(edges) - len(kept)
		filterElapsed += time.Since(start)
		edges = kept
	}
	if cfg.ConnectedFilter {
		start := time.Now()
		kept, sres := ScreenConnected(t, edges, cfg)
		filtered += len(edges) - len(kept)
		filterElapsed += time.Since(start)
		filterStats.Add(sres.Stats())
		edges = kept
	}
	res := run(t, edges, cfg, nil)
	res.Filtered = filtered
	res.FilterElapsed = filterElapsed
	res.FilterStats = filterStats
	res.FilterStats.Filtered = int64(filtered)
	res.Elapsed += filterElapsed // Elapsed stays end-to-end: filter passes count
	return res
}

// ScreenConnected drops edges whose endpoints are already connected,
// answering the batch through the pool in SameSet mode and compacting the
// survivors. Sound because a true SameSet is definite (see
// Config.ConnectedFilter); the screen's Result carries its work counters.
// The sharded path reuses it against its two-level target, which is how
// the screen stays one implementation across both batch paths.
func ScreenConnected(t Target, edges []Edge, cfg Config) ([]Edge, Result) {
	scfg := cfg
	scfg.Prefilter, scfg.ConnectedFilter = false, false
	connected, sres := SameSetAll(t, edges, scfg)
	kept := make([]Edge, 0, len(edges))
	for i, e := range edges {
		if !connected[i] {
			kept = append(kept, e)
		}
	}
	return kept, sres
}

// SameSetAll answers pairs[i] into the returned slice's element i. Answers
// are linearizable individually; with no concurrent Unites the whole slice
// is exact for the current partition.
func SameSetAll(t Target, pairs []Edge, cfg Config) ([]bool, Result) {
	out := make([]bool, len(pairs))
	res := run(t, pairs, cfg, out)
	return out, res
}

// run is the shared pool: Unite mode when out is nil, SameSet mode
// otherwise (writing answers at the pair's batch index, which the
// exactly-once claim protocol makes race-free).
func run(t Target, edges []Edge, cfg Config, out []bool) Result {
	if uint64(len(edges)) > math.MaxUint32 {
		panic("engine: batch exceeds 2³²−1 edges; split it")
	}
	p := cfg.Workers
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > len(edges) {
		p = len(edges) // never more workers than edges
	}
	grain := cfg.Grain
	if grain <= 0 {
		grain = defaultGrain
	}
	if grain > len(edges) && len(edges) > 0 {
		// A grain beyond the batch claims everything at once anyway, and
		// the clamp keeps the uint32 conversion below exact (a grain of,
		// say, 2³² must not truncate to 0 and livelock the claim loop).
		grain = len(edges)
	}
	res := Result{Workers: p, Grain: grain}
	if len(edges) == 0 {
		return res
	}

	// Initial partition: contiguous blocks, one per worker.
	spans := make([]span, p)
	chunk := (len(edges) + p - 1) / p
	for i := range spans {
		lo := min(i*chunk, len(edges))
		hi := min(lo+chunk, len(edges))
		spans[i].reset(uint32(lo), uint32(hi))
	}

	res.PerWorker = make([]core.Stats, p)
	tallies := make([]tally, p)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var st core.Stats
			tallies[w] = work(t, edges, out, spans, w, uint32(grain), cfg.Seed, &st)
			res.PerWorker[w] = st
		}(w)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	for _, tl := range tallies {
		res.Merged += tl.merged
		res.CASRetries += tl.retries
		res.Steals += tl.steals
	}
	return res
}

// tally is one worker's batch-level counts, summed into the Result.
type tally struct {
	merged, retries, steals int64
}

// work is one worker's loop: drain the own span in grain-sized chunks, then
// steal half of the fullest victim and repeat; exit when no span holds
// stealable work. A non-empty span always has an owner actively draining
// it, so exiting on a failed scan never strands edges — at worst the tail
// of the batch finishes with fewer workers than it started with.
func work(t Target, edges []Edge, out []bool, spans []span, w int, grain uint32, seed uint64, st *core.Stats) (tl tally) {
	rng := randutil.NewXoshiro256(randutil.Mix64(seed ^ uint64(w+1)))
	own := &spans[w]
	for {
		for {
			lo, hi, ok := own.claim(grain)
			if !ok {
				break
			}
			if out == nil {
				m, r := t.UniteSpan(edges[lo:hi], st)
				tl.merged += m
				tl.retries += r
			} else {
				t.SameSetSpan(edges[lo:hi], out[lo:hi], st)
			}
		}
		lo, hi, ok := steal(spans, w, grain, rng)
		if !ok {
			return tl
		}
		tl.steals++
		own.reset(lo, hi)
	}
}

// steal scans the other spans from a seeded-random starting point and takes
// the upper half of the fullest one found. It retries while work remains
// but a CAS race loses it, and reports ok=false once every span is (or is
// about to be) empty.
func steal(spans []span, self int, grain uint32, rng *randutil.Xoshiro256) (lo, hi uint32, ok bool) {
	for {
		victim, best := -1, 0
		start := rng.Intn(len(spans))
		for k := 0; k < len(spans); k++ {
			i := (start + k) % len(spans)
			if i == self {
				continue
			}
			if r := spans[i].remaining(); r > best {
				victim, best = i, r
			}
		}
		if victim < 0 {
			return 0, 0, false
		}
		if lo, hi, ok = spans[victim].stealHalf(grain); ok {
			return lo, hi, true
		}
		if best < 2*int(grain) {
			// The fullest span is below the steal threshold; its owner will
			// finish it faster than we can migrate it.
			return 0, 0, false
		}
	}
}
