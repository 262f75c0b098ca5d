// Package engine is the batched parallel edge-processing engine: it drives
// a slice of edges through the wait-free operations of internal/core on a
// pool of workers, with chunked work-stealing for load balance and
// per-worker work accounting. The caller's goroutine is always worker 0.
// The served batches are small (512–1024 edges: one pipe frame, one RPC),
// and a batch of at most one grain has nothing to steal, so it runs
// entirely on the caller: no goroutine, no allocation. Only larger batches
// spawn the other workers.
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
// cache misses) and the growing core.Dynamic are driven by one runner.
// The pool holds no barrier against anything else running on the target:
// any number of batch calls, streams and point callers may overlap on one
// core.DSU, and the summed Merged across overlapping calls stays exact,
// because each successful link is counted by exactly one Unite.
package engine

import (
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/randutil"
	"repro/internal/tracespan"
	"repro/internal/workload"
)

// Edge is one (X, Y) element pair of a batch: an edge to unite across, or a
// connectivity query to answer. It is core's Edge, so a batch slice reaches
// the core's span kernel without a copy.
type Edge = core.Edge

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

// Target is the operation surface the engine drives: a worker hands it each
// span of edges it claims, in one call. core.DSU and core.Dynamic satisfy
// it. The engine requires wait-freedom (or at least lock-freedom) from the
// target, since workers never coordinate beyond the span protocol and a
// blocking target would stall a whole worker. Implementations own the
// self-loop rule: a pair with X == Y never merges and is in its own set, so
// it counts as one completed operation (Stats.Ops) and pays no finds.
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

// Config tunes one batch run. The zero value is ready to use.
type Config struct {
	// Workers is the pool size; 0 means runtime.GOMAXPROCS(0). A batch of
	// at most one grain runs on the caller as one worker, whatever the
	// pool size.
	Workers int
	// Grain is the number of edges a worker claims per span access; 0
	// selects the default (1024). Smaller grains balance better, larger
	// grains amortize the claim CAS over more real work. A batch of at
	// most one grain has nothing to steal and runs on the caller.
	Grain int
	// Seed makes each worker's victim-selection order deterministic. Runs
	// with equal seeds scan victims in the same order (the interleaving of
	// operations still varies with goroutine scheduling).
	Seed uint64
	// Find, when non-zero, overrides the structure's configured find
	// variant for this batch: the exec layer's Executor drives the batch
	// through a variant view over the same forest (core.DSU.WithFind),
	// which is safe between and during batches because every variant
	// maintains the same structural invariants. Zero keeps the configured
	// variant. The engine's free functions ignore it (a Target is opaque).
	Find core.Find
	// Trace, when non-nil, is the batch's span tree: the Executor records
	// an execute span around the run, synthesizes per-worker sub-spans
	// from the Result's accounting (the engine keeps Result.PerWorker for
	// traced batches only), and attributes the batch's CASRetries. Nil
	// (the default, and the disabled mode) records nothing — every
	// tracespan method is a nil-safe no-op, so untraced batches pay only
	// a nil check.
	Trace *tracespan.Trace
}

// defaultGrain amortizes one claim CAS over enough unite/query work to make
// span traffic negligible. It is also the inline threshold: a served frame
// or RPC (512–1024 edges) fits in one grain and runs on the caller, while a
// streamed 64K-edge batch still splits into enough grains to steal.
const defaultGrain = 1024

// Result reports what one batch run did, across every execution path: the
// pool's accounting, filled here, plus what the exec layer's Executor adds
// (Find, Seq, Err).
type Result struct {
	// Workers is the resolved size of the pool that ran the batch. It is 1
	// when the batch fit in one grain, which runs on the caller, and zero
	// on an empty batch, where no worker ran.
	Workers int
	// Grain is the resolved claim granularity (set exactly when Workers is).
	Grain int
	// Find is the variant the batch ran with, as the Executor resolved it
	// from Config.Find and the structure's configuration.
	Find core.Find
	// Merged counts Unites that performed a merge: exactly the sequential
	// pass's count for any schedule, and, across batches that overlap on
	// one structure, exactly the combined edge set's count in sum.
	Merged int64
	// Steals counts successful span steals — a load-imbalance diagnostic.
	Steals int64
	// CASRetries counts root-link CAS attempts that lost a race to a
	// concurrent link and retried (Algorithm 3's retry loop), summed over
	// every worker of the batch. It measures how hard this batch's workers
	// collided on roots with each other and with whatever else ran on the
	// structure at the same time (overlapping batches, streams, point
	// callers); E23 prints it. Early-termination structures report zero.
	CASRetries int64
	// WorkerStats sums the operation counters of the pool's workers (set
	// exactly when Workers is).
	WorkerStats core.Stats
	// PerWorker breaks WorkerStats down by worker, in worker order. The
	// engine keeps it only for traced batches (Config.Trace non-nil), whose
	// worker spans are its one reader, so an untraced batch allocates no
	// per-batch slice.
	PerWorker []core.Stats
	// Elapsed is the wall-clock duration of the whole batch call.
	Elapsed time.Duration
	// Seq is the batch's position in the applied mutation order, assigned
	// by the Executor: the durable log sequence when a WAL is attached, a
	// plain batch count otherwise. Zero for query batches, empty batches,
	// and failed batches.
	Seq uint64
	// Err is set when durability refused the batch: the WAL append
	// failed, the batch was NOT applied, and no reply path may
	// acknowledge it. Always nil without a WAL attached.
	Err error
}

// Stats returns the summed work counters of the pool's workers.
func (r Result) Stats() core.Stats { return r.WorkerStats }

// UniteAll drives every edge of the batch through t.UniteSpan and returns
// the run's Result. Edges may appear in any order and multiplicity; the final
// partition is the same as a sequential left-to-right pass (unions are
// order-independent), and Result.Merged equals the number of merges that
// pass would perform.
func UniteAll(t Target, edges []Edge, cfg Config) Result {
	return run(t, edges, cfg, nil)
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
// exactly-once claim protocol makes race-free). The caller's goroutine is
// worker 0 and the pool spawns only the other p−1. A batch of at most one
// grain resolves to one worker, since a lone grain has nothing to steal:
// it runs entirely on the caller, with no goroutine and no allocation.
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
	if grain >= len(edges) && len(edges) > 0 {
		// One grain covers the batch, so there is nothing to steal: it runs
		// on the caller as one worker. The clamp also keeps the uint32
		// conversion below exact (a grain of, say, 2³² must not truncate to
		// 0 and livelock the claim loop).
		grain = len(edges)
		p = 1
	}
	res := Result{Workers: p, Grain: grain}
	if len(edges) == 0 {
		return res
	}

	b := batches.Get().(*batch)
	b.init(t, edges, out, p, uint32(grain), cfg.Seed)
	start := time.Now()
	if p > 1 {
		b.wg.Add(p - 1)
		for w := 1; w < p; w++ {
			go b.helper(w)
		}
		// The last helper spawned waits in this P's run-next slot, which an
		// idle P steals only after a pause (tens of µs on a VM): yield once
		// so it starts here at once and the caller resumes on the next free
		// P. Without the yield a 4096-edge batch at p = 2 ran 1.6× slower
		// on a 2-core VM.
		runtime.Gosched()
	}
	b.work(0)
	b.wg.Wait()
	res.Elapsed = time.Since(start)
	if cfg.Trace != nil {
		res.PerWorker = make([]core.Stats, p)
	}
	for w := range b.workers {
		ws := &b.workers[w]
		res.WorkerStats.Add(ws.st)
		res.Merged += ws.merged
		res.CASRetries += ws.retries
		res.Steals += ws.steals
		if res.PerWorker != nil {
			res.PerWorker[w] = ws.st
		}
	}
	b.release()
	return res
}

// batches recycles the pool's per-batch state, so a batch allocates
// nothing beyond the goroutines it spawns: the spans, the workers'
// counters and their generators all live in a recycled batch.
var batches = sync.Pool{New: func() any { return new(batch) }}

// batch is one run's shared state: the inputs every worker reads, one
// claimable span and one counter block per worker.
type batch struct {
	t       Target
	edges   []Edge
	out     []bool
	grain   uint32
	spans   []span
	workers []worker
	wg      sync.WaitGroup
}

// worker is one worker's private state. The core counts into st on every
// find step, so each block is padded to its own cache lines.
type worker struct {
	st                      core.Stats
	merged, retries, steals int64
	rng                     randutil.Xoshiro256
	_                       [56]byte // pad to three cache lines
}

// init sizes b for p workers and deals the batch out as contiguous blocks,
// one per worker, reusing b's slices when they are large enough.
func (b *batch) init(t Target, edges []Edge, out []bool, p int, grain uint32, seed uint64) {
	b.t, b.edges, b.out, b.grain = t, edges, out, grain
	if cap(b.spans) < p {
		b.spans = make([]span, p)
		b.workers = make([]worker, p)
	}
	b.spans, b.workers = b.spans[:p], b.workers[:p]
	chunk := (len(edges) + p - 1) / p
	for w := range b.spans {
		lo := min(w*chunk, len(edges))
		hi := min(lo+chunk, len(edges))
		b.spans[w].reset(uint32(lo), uint32(hi))
		// Held by value: NewXoshiro256 inlines, so copying its result out
		// allocates nothing.
		b.workers[w] = worker{rng: *randutil.NewXoshiro256(randutil.Mix64(seed ^ uint64(w+1)))}
	}
}

// release drops b's references to the batch and recycles it.
func (b *batch) release() {
	b.t, b.edges, b.out = nil, nil, nil
	batches.Put(b)
}

// helper runs worker w on a spawned goroutine.
func (b *batch) helper(w int) {
	defer b.wg.Done()
	b.work(w)
}

// work is one worker's loop: drain the own span in grain-sized chunks, then
// steal half of the fullest victim and repeat; exit when no span holds
// stealable work. A non-empty span always has an owner actively draining
// it, so exiting on a failed scan never strands edges — at worst the tail
// of the batch finishes with fewer workers than it started with.
func (b *batch) work(w int) {
	ws := &b.workers[w]
	own := &b.spans[w]
	for {
		for {
			lo, hi, ok := own.claim(b.grain)
			if !ok {
				break
			}
			if b.out == nil {
				m, r := b.t.UniteSpan(b.edges[lo:hi], &ws.st)
				ws.merged += m
				ws.retries += r
			} else {
				b.t.SameSetSpan(b.edges[lo:hi], b.out[lo:hi], &ws.st)
			}
		}
		lo, hi, ok := steal(b.spans, w, b.grain, &ws.rng)
		if !ok {
			return
		}
		ws.steals++
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
