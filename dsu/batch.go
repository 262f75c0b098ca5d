package dsu

import (
	"runtime"

	"repro/internal/engine"
	"repro/internal/exec"
)

// Edge is one element pair of a batch: an edge to unite across, or a
// connectivity query to answer.
type Edge = exec.Edge

// BatchOption tunes a single batch call (UniteAll, SameSetAll).
type BatchOption interface {
	applyBatch(*exec.Config)
}

type batchOptionFunc func(*exec.Config)

func (f batchOptionFunc) applyBatch(c *exec.Config) { f(c) }

// WithWorkers fixes the batch worker-pool size. The default (and any
// value ≤ 0) is runtime.GOMAXPROCS(0); the pool never exceeds the batch
// length, and a batch of at most one grain (WithGrain) runs on the
// caller's goroutine as one worker.
func WithWorkers(workers int) BatchOption {
	return batchOptionFunc(func(c *exec.Config) { c.Workers = workers })
}

// WithGrain sets the number of edges a worker claims from the batch at a
// time. Smaller grains balance skewed batches better; larger grains
// amortize scheduling overhead. Values ≤ 0 select the default (1024). A
// batch of at most one grain has nothing to steal, so it runs on the
// caller's goroutine with no pool to set up.
func WithGrain(grain int) BatchOption {
	return batchOptionFunc(func(c *exec.Config) { c.Grain = grain })
}

// batchConfig resolves the execution configuration for one batch call — the
// single options funnel the blocking and stream paths route through. The
// scheduling seed is plumbed from the structure's WithSeed option, so a
// structure built for reproducibility also schedules its batches
// reproducibly.
func batchConfig(seed uint64, opts []BatchOption) exec.Config {
	cfg := exec.Config{Workers: runtime.GOMAXPROCS(0), Seed: seed}
	for _, o := range opts {
		o.applyBatch(&cfg)
	}
	return cfg
}

// uniteVeneer and queryVeneer phrase an option-vocabulary batch call in
// the Universe layer's request/response form — the thin veneer every
// in-process batch entry point is, so remote and local batches run
// through one funnel and one validation. The only error
// the DTO layer can report on an in-process call is a contract violation
// (an element outside the universe), which was always a panic; it just
// panics with a diagnosis now instead of an index fault inside a worker.
func uniteVeneer(u *Universe, edges []Edge, opts []BatchOption) BatchReply {
	rep, err := u.UniteAll(UniteRequest{Edges: edges, Options: batchOptionsOf(opts)})
	if err != nil {
		panic(err)
	}
	return rep
}

func queryVeneer(u *Universe, pairs []Edge, opts []BatchOption) BatchReply {
	rep, err := u.SameSetAll(QueryRequest{Pairs: pairs, Options: batchOptionsOf(opts)})
	if err != nil {
		panic(err)
	}
	return rep
}

// UniteAll merges across every edge of the batch using a pool of
// work-stealing workers and returns the number of edges that performed a
// merge. The resulting partition — and the returned count — are exactly
// those of a sequential pass over the batch, for any worker count and
// schedule. UniteAll may run concurrently with any other operation,
// including other batches.
func (d *DSU) UniteAll(edges []Edge, opts ...BatchOption) int {
	return int(uniteVeneer(d.uni, edges, opts).Merged)
}

// UniteAllCounted is UniteAll, accumulating the pool's summed work
// counters into st.
func (d *DSU) UniteAllCounted(edges []Edge, st *Stats, opts ...BatchOption) int {
	rep := uniteVeneer(d.uni, edges, opts)
	st.Add(rep.Stats)
	return int(rep.Merged)
}

// SameSetAll answers pairs[i] into element i of the returned slice, using
// the same worker pool as UniteAll. Each answer is linearizable; with no
// concurrent Unites the whole slice is exact for the current partition.
func (d *DSU) SameSetAll(pairs []Edge, opts ...BatchOption) []bool {
	return queryVeneer(d.uni, pairs, opts).Answers
}

// SameSetAllCounted is SameSetAll with work accounting into st.
func (d *DSU) SameSetAllCounted(pairs []Edge, st *Stats, opts ...BatchOption) []bool {
	rep := queryVeneer(d.uni, pairs, opts)
	st.Add(rep.Stats)
	return rep.Answers
}

// UniteAll merges across every edge of the batch, as DSU.UniteAll. Edges
// must name elements already created by MakeSet; MakeSet may run
// concurrently with the batch.
func (d *Dynamic) UniteAll(edges []Edge, opts ...BatchOption) int {
	res := engine.UniteAll(d.c.DSU, edges, batchConfig(d.c.Config().Seed, opts))
	return int(res.Merged)
}

// SameSetAll answers pairs[i] into element i of the returned slice, as
// DSU.SameSetAll.
func (d *Dynamic) SameSetAll(pairs []Edge, opts ...BatchOption) []bool {
	out, _ := engine.SameSetAll(d.c.DSU, pairs, batchConfig(d.c.Config().Seed, opts))
	return out
}
