// Package exec is the unified batch-execution layer: one Executor per
// core.DSU, driving its batches through the engine's worker pool, one
// Result type shared by every batch path (blocking and streamed), and the
// adaptive compaction policy that rides the Executor. dsu's batch and
// stream paths all funnel through it, so per-batch policy, durability and
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
	"repro/internal/core"
	"repro/internal/engine"
)

// Edge is one (X, Y) element pair of a batch: an edge to unite across, or
// a connectivity query to answer. It is core's Edge, so a batch slice
// reaches the core's span kernel without a copy.
type Edge = core.Edge

// Config tunes one batch run; it is the engine's Config, named here so the
// layers above the Executor speak one batch vocabulary.
type Config = engine.Config

// Result reports what one batch run did: the engine's Result, which the
// Executor completes with Find, Seq and Err.
type Result = engine.Result
