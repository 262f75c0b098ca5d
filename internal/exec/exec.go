// Package exec is the unified batch-execution layer: one Backend seam over
// the flat engine target and the sharded DSU, one Result type shared by
// every batch path (blocking, sharded, streamed), and the adaptive
// compaction policy that rides that seam.
//
// Before this layer existed, the flat, sharded, and streaming paths each
// carried their own batch glue — engine.Result, shard.Result, and
// pipeline.Result duplicated the same per-batch accounting, and the sharded
// structure's SameSetAll even returned a different result type than its own
// UniteAll. Any policy that wanted to observe batches and steer later ones
// (the ROADMAP's batch-aware compaction item) would have had to be written
// three times. Now internal/engine and internal/shard both speak exec's
// types, dsu's batch, stream, and filter paths all funnel through one
// Executor, and the policy below is written once.
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
// the same parent array (core.DSU.WithFind builds the variant views).
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
	// Workers is the pool size; 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Grain is the number of edges a worker claims per span access; 0
	// selects the engine's default (1024). Smaller grains balance better,
	// larger grains amortize the claim CAS over more real work.
	Grain int
	// Seed makes each worker's victim-selection order deterministic. Runs
	// with equal seeds scan victims in the same order (the interleaving of
	// operations still varies with goroutine scheduling).
	Seed uint64
	// Prefilter runs the batch through the dedup pass before UniteAll
	// dispatches it: self-loops and exact duplicates are dropped up front
	// instead of paying finds inside the structure. The final partition and
	// merge count are unchanged (dropped edges can never merge). SameSetAll
	// ignores the flag — its answers are indexed by the caller's slice.
	Prefilter bool
	// ConnectedFilter screens the batch through SameSet before UniteAll
	// dispatches it, dropping edges whose endpoints are already connected.
	// The screen is racy but sound: a true SameSet answer is definite even
	// concurrently with mutations, so a dropped edge could never have
	// merged — the final partition is exactly the unscreened batch's. The
	// screen's work and elapsed time land in Result.FilterStats /
	// Result.FilterElapsed. SameSetAll ignores the flag, like Prefilter.
	ConnectedFilter bool
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
	// an execute span around the backend call, synthesizes filter and
	// per-worker sub-spans from the Result's accounting, and attributes
	// the batch's CASRetries. Nil (the default, and the disabled
	// mode) records nothing — every tracespan method is a nil-safe no-op,
	// so untraced batches pay only a nil check.
	Trace *tracespan.Trace
}

// Result reports what one batch run did, across every execution path. The
// flat engine fills the pool fields (Workers, Grain, Steals, PerWorker);
// the sharded path additionally fills the per-phase fields (Intra, Spill,
// SelfLoops, Reanchors, PerShard, Bridge, ReanchorStats); both fill the
// filter accounting (Filtered, FilterElapsed, FilterStats) identically —
// the parity the unified type enforces by construction.
type Result struct {
	// Workers is the resolved size of the pool that produced this record:
	// set whenever a single engine pool ran the batch (flat runs, and
	// sharded SameSetAll/ScreenConnected, which drive one pool over the
	// two-level view). Zero only on sharded UniteAll, where the budget
	// splits across the per-shard runs — see PerShard.
	Workers int
	// Grain is the resolved claim granularity (set exactly when Workers is).
	Grain int
	// Find is the variant the batch actually ran with, as resolved by the
	// backend from Config.Find and its own configuration. The adaptive
	// executor's downgrades are observable here (E21 prints them).
	Find core.Find
	// Merged counts Unites that performed a merge. On the flat path this is
	// exactly the sequential pass's count for any schedule; on the sharded
	// path it tallies structural merges across both levels and can exceed
	// the flat count (see the shard package docs) while the partition is
	// identical.
	Merged int64
	// Steals counts successful span steals — a load-imbalance diagnostic
	// (flat path; per-shard runs report theirs in PerShard).
	Steals int64
	// Intra and Spill count the batch's edges after shard classification;
	// SelfLoops counts edges dropped during routing (X == Y). All three are
	// zero on the flat path.
	Intra, Spill, SelfLoops int
	// Reanchors counts closure-restoring bridge unions issued by a sharded
	// run (zero on the flat path).
	Reanchors int
	// CASRetries counts root-link CAS attempts that lost a race to a
	// concurrent link and retried (Algorithm 3's retry loop), summed over
	// every worker of the batch — and, on the sharded path, over the
	// per-shard and bridge runs. It measures how hard this batch's workers
	// collided on roots with each other and with whatever else ran on the
	// structure at the same time (overlapping batches, streams, point
	// callers); E23 prints it. Early-termination structures report zero.
	CASRetries int64
	// Filtered counts edges dropped before dispatch by the batch's filter
	// passes (Prefilter dedup and/or the ConnectedFilter screen).
	Filtered int
	// FilterElapsed is the wall-clock time of those passes; Elapsed
	// includes it, so Elapsed stays end-to-end.
	FilterElapsed time.Duration
	// FilterStats holds the shared-memory work of the filter passes (the
	// connected screen's finds; the dedup pass touches no shared memory)
	// plus the Filtered tally, so Counted callers see the drops too.
	FilterStats core.Stats
	// PerWorker holds each worker's operation counters, in worker order
	// (flat path).
	PerWorker []core.Stats
	// PerShard holds each shard's local engine run, in shard order (sharded
	// path; zero-value entries for shards that received no intra edges).
	PerShard []Result
	// Bridge is the engine run that drove the spill list through the bridge
	// forest (sharded path; nil when the batch had no cross-shard edges).
	Bridge *Result
	// ReanchorStats accounts the work of the re-anchor passes (sharded
	// path).
	ReanchorStats core.Stats
	// Elapsed is the wall-clock duration of the whole batch call, filter
	// passes included.
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

// Stats returns the summed work counters of every phase of the run: pool
// workers, per-shard runs, the bridge run, re-anchoring, and filter passes.
func (r Result) Stats() core.Stats {
	var total core.Stats
	for i := range r.PerWorker {
		total.Add(r.PerWorker[i])
	}
	for i := range r.PerShard {
		total.Add(r.PerShard[i].Stats())
	}
	if r.Bridge != nil {
		total.Add(r.Bridge.Stats())
	}
	total.Add(r.ReanchorStats)
	total.Add(r.FilterStats)
	return total
}

// Backend is the execution seam every batch path drives: the flat core
// target (engine.Flat) and the sharded DSU (shard.DSU) both implement it,
// which is what lets dsu's batch, stream, and filter paths — and the
// adaptive policy — be written once. Implementations must honor
// Config.Find by running the batch through a variant view of their forest,
// and must fill Result's filter accounting identically.
type Backend interface {
	// UniteAll merges across every edge of the batch and reports the run.
	UniteAll(edges []Edge, cfg Config) Result
	// SameSetAll answers pairs[i] into element i of the returned slice.
	SameSetAll(pairs []Edge, cfg Config) ([]bool, Result)
	// ScreenConnected drops edges whose endpoints are already connected,
	// returning the survivors and the screen's own run. Sound under
	// concurrency (true SameSet answers are definite); exactness follows
	// the backend's query contract.
	ScreenConnected(edges []Edge, cfg Config) ([]Edge, Result)
	// Seed returns the structure seed, plumbed into batch scheduling so a
	// structure built for reproducibility schedules reproducibly too.
	Seed() uint64
	// CoreConfig returns the structure's variant configuration (find
	// strategy, early termination, seed).
	CoreConfig() core.Config
}
