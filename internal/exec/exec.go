// Package exec is the unified batch-execution layer: one Executor per
// core.DSU, driving its batches through the engine's worker pool, and one
// Result type shared by every batch path (blocking and streamed). dsu's
// batch and stream paths all funnel through it, so per-batch find
// overrides, durability and instrumentation are written once.
//
// Every batch runs one find rule: the caller's per-batch override
// (Config.Find) or, without one, the structure's configured variant.
// Switching variants between batches is safe because every variant keeps
// the same Lemma 3.1 invariants over the same parent array
// (core.DSU.WithFind returns the variant views), so the partition and
// every quiescent answer are independent of the variants a sequence of
// batches ran.
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
