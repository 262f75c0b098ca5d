package dsu

import "repro/internal/exec"

// Prefilter returns the batch with self-loop edges and exact duplicates
// removed; (u, v) and (v, u) name the same edge and count as duplicates.
// First occurrences survive in order and the input is not modified. Unions
// are idempotent, so UniteAll on the filtered batch produces the same
// partition and merge count as on the raw batch. The filter trades one
// sequential dedup pass (open-addressed, allocation-free per edge) for the
// finds the dropped edges would have paid: worthwhile when the stream is
// duplicate-heavy and the universe large enough that finds cache-miss, a
// net loss on small or duplicate-free batches — E19 measures both sides on
// Zipf batches, filter pass included.
func Prefilter(edges []Edge) []Edge { return exec.Dedup(edges) }

// WithPrefilter makes UniteAll run the batch through Prefilter before the
// engine dispatches it. Both the flat DSU and Sharded honor it; SameSetAll
// ignores it, since query answers are indexed by the caller's slice.
// Filtered-edge counts and the filter pass's time are reported in the
// run's stats: Counted variants tally drops in Stats.Filtered, and the
// pass's wall-clock time is part of the batch's elapsed time on both
// paths.
func WithPrefilter() BatchOption {
	return batchOptionFunc(func(c *exec.Config) { c.Prefilter = true })
}

// WithConnectedFilter makes UniteAll screen the batch through SameSet
// before dispatching it, dropping edges whose endpoints are already
// connected — the intra-component prefilter for re-ingested streams, where
// most edges land inside components built by earlier batches. The screen
// is racy but sound: a true SameSet answer is definite even concurrently
// with mutations, so a dropped edge could never have merged, and the final
// partition is exactly the unscreened batch's. On the flat DSU the merge
// count is unchanged too; on Sharded the screen runs under the mutation
// lock (exact, not just sound) and can lower the reported structural merge
// count by dropping intra-shard edges whose endpoints were only connected
// through the bridge — the partition is still identical. The stream path
// honors the option wherever it appears (stream defaults or per-Flush
// overrides). Screen work and drops land in the batch stats like
// WithPrefilter's; SameSetAll ignores the option. Compose with
// WithPrefilter to dedup first and screen the survivors.
func WithConnectedFilter() BatchOption {
	return batchOptionFunc(func(c *exec.Config) { c.ConnectedFilter = true })
}
