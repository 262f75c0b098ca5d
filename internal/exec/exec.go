// Package exec is the unified batch-execution layer: one Backend seam
// over the engine's flat core target, one Result type shared by every
// batch path (blocking and streamed), and the adaptive compaction policy
// that rides that seam. dsu's batch and stream paths all funnel through
// one Executor per structure, so per-batch policy, durability and
// instrumentation are written once.
//
// # Adaptive compaction
//
// The paper's find variants (naive — Algorithm 1, one-try and two-try
// splitting — Algorithms 4 and 5, halving, compression) trade compaction
// work now against cheaper finds later. Alistarh et al. ("In Search of the
// Fastest Concurrent Union-Find Algorithm", 2019) observe that no single
// compaction strategy wins across workload phases; Jayanti–Tarjan's
// linking-by-random-index forest makes switching variants between batches
// safe, because every variant maintains the same Lemma 3.1 invariants over
// the same parent array (core.DSU.WithFind returns the variant views).
//
// The Executor exploits both facts: it tracks per-batch observables — find
// steps per find, parent-pointer rewrites, merge ratio — in a small
// flatness Estimator, and on query batches (SameSetAll) it downgrades the
// configured compacting variant to a cheaper one (two-try → one-try →
// naive) while the forest looks flat, restoring the compacting variant
// once mutation batches churn it. Mutation batches (UniteAll) always run
// the configured variant: they are what flatten the forest in the first
// place. The partition is identical in every mode — which unites merge
// depends only on set membership, never on the find variant — so
// adaptivity is purely a work optimization (validated by the adaptive ≡
// fixed cross-validation tests under -race).
package exec

import (
	"time"

	"repro/internal/core"
	"repro/internal/tracespan"
)

// Edge is one (X, Y) element pair of a batch: an edge to unite across, or
// a connectivity query to answer. It is core's Edge, so a batch slice
// reaches the core's span kernel without a copy.
type Edge = core.Edge

// Config tunes one batch run. The zero value is ready to use.
type Config struct {
	// Workers is the pool size; 0 means runtime.GOMAXPROCS(0). A batch of
	// at most one grain runs on the caller as one worker, whatever the
	// pool size.
	Workers int
	// Grain is the number of edges a worker claims per span access; 0
	// selects the engine's default (1024). Smaller grains balance better,
	// larger grains amortize the claim CAS over more real work. A batch
	// of at most one grain has nothing to steal and runs on the caller.
	Grain int
	// Seed makes each worker's victim-selection order deterministic. Runs
	// with equal seeds scan victims in the same order (the interleaving of
	// operations still varies with goroutine scheduling).
	Seed uint64
	// Find, when non-zero, overrides the backend's configured find variant
	// for this batch: the backend drives the batch through a variant view
	// over the same forest (core.DSU.WithFind), which is safe between and
	// during batches because every variant maintains the same structural
	// invariants. Zero keeps the configured variant. The adaptive Executor
	// sets this on query batches; the engine's free functions ignore it
	// (they see only an opaque Target — the Backend implementations resolve
	// it).
	Find core.Find
	// Trace, when non-nil, is the batch's span tree: the Executor records
	// an execute span around the backend call, synthesizes per-worker
	// sub-spans from the Result's accounting (the engine keeps
	// Result.PerWorker for traced batches only), and attributes the
	// batch's CASRetries. Nil (the default, and the disabled
	// mode) records nothing — every tracespan method is a nil-safe no-op,
	// so untraced batches pay only a nil check.
	Trace *tracespan.Trace
}

// Result reports what one batch run did, across every execution path:
// the engine's pool accounting plus what the Executor adds (Seq, Err).
type Result struct {
	// Workers is the resolved size of the pool that ran the batch. It is 1
	// when the batch fit in one grain, which runs on the caller, and zero
	// on an empty batch, where no worker ran.
	Workers int
	// Grain is the resolved claim granularity (set exactly when Workers is).
	Grain int
	// Find is the variant the batch actually ran with, as resolved by the
	// backend from Config.Find and its own configuration. The adaptive
	// executor's downgrades are observable here (E21 prints them).
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

// Backend is the execution seam every batch path drives; engine.Flat,
// the core forest behind the pool, implements it. Implementations must
// honor Config.Find by running the batch through a variant view of their
// forest.
type Backend interface {
	// UniteAll merges across every edge of the batch and reports the run.
	UniteAll(edges []Edge, cfg Config) Result
	// SameSetAll answers pairs[i] into element i of the returned slice.
	SameSetAll(pairs []Edge, cfg Config) ([]bool, Result)
	// Seed returns the structure seed, plumbed into batch scheduling so a
	// structure built for reproducibility schedules reproducibly too.
	Seed() uint64
	// CoreConfig returns the structure's variant configuration (find
	// strategy, early termination, seed).
	CoreConfig() core.Config
}
