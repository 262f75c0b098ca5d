// Package shard partitions the element universe across independent
// per-shard core.DSU instances, with a bridge forest reconciling the
// cross-shard unions — the two-level architecture that lets batches scale
// past one parent array's cache footprint (Fedorov et al., SPAA 2023, make
// the bulk-interface case; the ROADMAP names sharding as the step toward
// NUMA-scale traffic).
//
// # Structure
//
// Elements 0..n−1 are split into contiguous blocks, one core.DSU per block
// (the "locals"). A second core.DSU over the full universe — the "bridge" —
// records only cross-shard connectivity: the only elements that ever leave
// singleton state in it are the shard-local representatives that spill
// edges (and the closure pass below) unite. Global connectivity is the
// transitive closure of the S+1 relations; the invariant maintained at
// every quiescent point collapses that closure to two finds:
//
//	rep(x) = bridge.Find(global(localRoot(x)))
//	x ~ y  ⇔  rep(x) == rep(y)
//
// # Closure invariant and re-anchoring
//
// The invariant: for every shard-local set C that has bridge participants,
// all of C's participants lie in a single bridge class, and that class
// contains C's current local root. A batch's intra-shard unions can break
// this — merging two local sets dethrones one root while the bridge still
// hangs off it — so the structure keeps, per shard, an anchor set: local
// elements whose sets may carry bridge links. After any local merge, a
// re-anchor pass unites each anchor's global id with its current local
// root's global id in the bridge (sound: they are locally, hence globally,
// equivalent) and compacts the anchor set to the surviving roots. Spill
// edges then unite current local roots, which the restored invariant makes
// exactly the global merge.
//
// # Concurrency contract
//
// Mutations (Unite, UniteAll) serialize on an internal mutex; each UniteAll
// is internally parallel (per-shard engine runs fan out, and the spill list
// is itself driven through the engine against the bridge). Mutations are
// therefore linearizable in lock order, and point Unite's return value is
// exact. Queries (Find, SameSet, SameSetAll) never take the lock: they ride
// the wait-free cores, may run concurrently with anything, and are exact at
// quiescence; concurrent with mutations, a true SameSet is definitely true
// (the witnessed relations only grow) while a false is only advisory. A
// concurrent false can miss not just the in-flight unions but — during the
// window between a local merge and its re-anchor pass, while a dethroned
// root's bridge class awaits re-linking — transiently fail to observe a
// cross-shard union committed by an earlier call; mutation-quiescence
// restores exactness. DESIGN.md's "Sharding & reconciliation" section
// states the same contract from the caller's side.
package shard

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/randutil"
)

// DSU is the sharded two-level disjoint-set structure. The zero value is
// not usable; call New. It implements exec.Backend, so the dsu layer's
// batch, stream, and filter paths drive it through the same seam as the
// flat engine target.
type DSU struct {
	part   Partition
	cfg    core.Config // normalized variant configuration shared by all levels
	locals []*core.DSU // one per shard, over local indices 0..Size(i)−1
	bridge *core.DSU   // over global ids; only spill representatives link

	mu sync.Mutex // serializes mutations; queries never take it
	// anchors[i] holds local indices of shard i whose sets may carry bridge
	// links; superset-safe (anchoring an unlinked element just adds a sound
	// union later). Compacted to current roots on every re-anchor pass.
	anchors []map[uint32]struct{}
}

var _ exec.Backend = (*DSU)(nil)

// New returns a sharded DSU over n elements in the requested number of
// shards (clamped as NewPartition documents). cfg selects the find variant,
// early termination, and seed shared by all levels; per-level seeds are
// derived from cfg.Seed so equal configurations build identical structures.
// Panics propagate from core.New on invalid cfg combinations or n out of
// range.
func New(n, shards int, cfg core.Config) *DSU {
	if cfg.Find == 0 {
		cfg.Find = core.FindTwoTry // normalize, matching core.New's default
	}
	part := NewPartition(n, shards)
	d := &DSU{
		part:    part,
		cfg:     cfg,
		locals:  make([]*core.DSU, part.Shards()),
		anchors: make([]map[uint32]struct{}, part.Shards()),
	}
	for i := range d.locals {
		lcfg := cfg
		lcfg.Seed = randutil.Mix64(cfg.Seed + uint64(i) + 1)
		d.locals[i] = core.New(part.Size(i), lcfg)
		d.anchors[i] = make(map[uint32]struct{})
	}
	bcfg := cfg
	bcfg.Seed = randutil.Mix64(cfg.Seed ^ 0x627269646765) // "bridge"
	d.bridge = core.New(n, bcfg)
	return d
}

// N returns the number of elements.
func (d *DSU) N() int { return d.part.N() }

// Shards returns the resolved shard count.
func (d *DSU) Shards() int { return d.part.Shards() }

// Partition exposes the element→shard map for routing-aware callers.
func (d *DSU) Partition() Partition { return d.part }

// Seed returns the structure seed, the default batch-scheduling seed
// (exec.Backend).
func (d *DSU) Seed() uint64 { return d.cfg.Seed }

// CoreConfig returns the normalized variant configuration shared by every
// level (exec.Backend).
func (d *DSU) CoreConfig() core.Config { return d.cfg }

// view is the set of per-level structures one batch (or point operation)
// resolves against: the configured locals and bridge, or find-variant
// views of them when a batch overrides the compaction strategy. Views
// share the underlying forests, so any mix of views operates on the same
// structure. view also adapts the two-level structure to the engine
// (engine.Target): in Unite mode it implements spill reconciliation —
// resolve both endpoints to shard-local roots, then unite the roots'
// global ids in the bridge — and must then only be driven under the
// mutation lock; in SameSet mode it answers through the two-level rep.
type view struct {
	d      *DSU
	locals []*core.DSU
	bridge *core.DSU
}

// view resolves the per-batch find-variant override: 0 (or the configured
// variant) costs nothing, any other variant builds shared-forest views.
func (d *DSU) view(f core.Find) view {
	v := view{d: d, locals: d.locals, bridge: d.bridge}
	if f != 0 && f != d.cfg.Find {
		v.locals = make([]*core.DSU, len(d.locals))
		for i := range d.locals {
			v.locals[i] = d.locals[i].WithFind(f)
		}
		v.bridge = d.bridge.WithFind(f)
	}
	return v
}

// find reports the variant this view's levels run with.
func (v view) find() core.Find { return v.bridge.Config().Find }

// Find returns x's global representative: the bridge root of its shard-local
// root. Exact at quiescence; roots change as sets merge, so SameSet is the
// stable comparison.
func (d *DSU) Find(x uint32) uint32 { return d.view(0).rep(x, nil) }

// rep resolves the two-level representative of x.
func (v view) rep(x uint32, st *core.Stats) uint32 {
	d := v.d
	i := d.part.ShardOf(x)
	var lr uint32
	if st != nil {
		lr = v.locals[i].FindCounted(d.part.Local(x), st)
	} else {
		lr = v.locals[i].Find(d.part.Local(x))
	}
	g := d.part.Global(i, lr)
	if st != nil {
		return v.bridge.FindCounted(g, st)
	}
	return v.bridge.Find(g)
}

// SameSet reports whether x and y are in the same global set. True answers
// are definite even concurrently with mutations; false answers are exact
// only at mutation-quiescence — concurrent with a mutation they may
// transiently miss unions, including ones committed by earlier calls whose
// representatives are mid-re-anchor (see the package contract).
func (d *DSU) SameSet(x, y uint32) bool { return d.view(0).sameSet(x, y, nil) }

// SameSetCounted is SameSet with work accounting into st.
func (d *DSU) SameSetCounted(x, y uint32, st *core.Stats) bool { return d.view(0).sameSet(x, y, st) }

func (v view) sameSet(x, y uint32, st *core.Stats) bool {
	if st != nil {
		defer func() { st.Ops++ }()
	}
	if x == y {
		return true
	}
	d := v.d
	i, j := d.part.ShardOf(x), d.part.ShardOf(y)
	var lx, ly uint32
	if st != nil {
		lx = v.locals[i].FindCounted(d.part.Local(x), st)
		ly = v.locals[j].FindCounted(d.part.Local(y), st)
	} else {
		lx = v.locals[i].Find(d.part.Local(x))
		ly = v.locals[j].Find(d.part.Local(y))
	}
	if i == j && lx == ly {
		return true
	}
	gx, gy := d.part.Global(i, lx), d.part.Global(j, ly)
	if st != nil {
		return v.bridge.FindCounted(gx, st) == v.bridge.FindCounted(gy, st)
	}
	return v.bridge.Find(gx) == v.bridge.Find(gy)
}

// Unite merges the global sets containing x and y, reporting whether this
// call performed the merge. Exact: mutations serialize, so the pre-check is
// against a mutation-quiescent structure.
func (d *DSU) Unite(x, y uint32) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.view(0).sameSet(x, y, nil) {
		return false
	}
	i, j := d.part.ShardOf(x), d.part.ShardOf(y)
	if i == j {
		// Globally disjoint implies locally disjoint, so this merges.
		d.locals[i].Unite(d.part.Local(x), d.part.Local(y))
		d.reanchor(i, nil)
		return true
	}
	lx := d.locals[i].Find(d.part.Local(x))
	ly := d.locals[j].Find(d.part.Local(y))
	d.bridge.Unite(d.part.Global(i, lx), d.part.Global(j, ly))
	d.anchors[i][lx] = struct{}{}
	d.anchors[j][ly] = struct{}{}
	return true
}

// reanchor restores the closure invariant for shard i after local merges
// may have dethroned roots: each anchor's bridge class is re-linked to the
// anchor's current local root, and the anchor set is compacted to the
// surviving roots. Returns the number of bridge unions issued. Safe to run
// concurrently for distinct shards — it touches only shard i's local state
// and the wait-free bridge.
func (d *DSU) reanchor(i int, st *core.Stats) int {
	old := d.anchors[i]
	if len(old) == 0 {
		return 0
	}
	issued := 0
	next := make(map[uint32]struct{}, len(old))
	for b := range old {
		var r uint32
		if st != nil {
			r = d.locals[i].FindCounted(b, st)
		} else {
			r = d.locals[i].Find(b)
		}
		if r != b {
			// b's set merged under a new root; carry its bridge class over.
			if st != nil {
				d.bridge.UniteCounted(d.part.Global(i, b), d.part.Global(i, r), st)
			} else {
				d.bridge.Unite(d.part.Global(i, b), d.part.Global(i, r))
			}
			issued++
		}
		next[r] = struct{}{}
	}
	d.anchors[i] = next
	return issued
}

// UniteAll merges across every edge of the batch: intra-shard edges route
// to their shard's own engine run (all shards driven in parallel), while
// cross-shard edges defer into a spill list resolved by the reconciliation
// pass — local roots united through the bridge, after re-anchoring restores
// the closure invariant for every shard whose local phase merged. The final
// partition equals a flat DSU's partition for the same batch, for any shard
// count, worker count, and schedule.
//
// The returned exec.Result fills the sharded per-phase fields — Intra,
// Spill, SelfLoops (edges dropped during routing), Reanchors, PerShard (in
// shard order, zero values for shards with no intra edges), Bridge (nil
// without cross-shard edges), ReanchorStats — and the same filter
// accounting the flat path reports. Its Merged tallies structural merges
// across both levels: it is ≥ the count a flat DSU would report for the
// same batch (an intra-shard edge joining two locally-separate sets
// already connected through the bridge merges locally without dropping the
// global component count), while the partition itself is always exactly
// the flat partition.
func (d *DSU) UniteAll(edges []exec.Edge, cfg exec.Config) exec.Result {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.part.Shards()
	vw := d.view(cfg.Find)
	res := exec.Result{PerShard: make([]exec.Result, s), Find: vw.find()}
	if len(edges) == 0 || s == 0 {
		return res
	}
	start := time.Now()

	// Filter passes run inside the timed region so Elapsed stays
	// end-to-end, exactly as the flat engine reports it. Both flags are
	// cleared afterwards: the per-shard and bridge runs must not re-filter.
	if cfg.Prefilter {
		fstart := time.Now()
		kept := exec.Dedup(edges)
		res.Filtered += len(edges) - len(kept)
		res.FilterElapsed += time.Since(fstart)
		edges = kept
		cfg.Prefilter = false
	}
	if cfg.ConnectedFilter {
		// The screen answers through the two-level rep under the mutation
		// lock, so here it is exact, not merely sound: every dropped edge
		// is globally connected at this linearization point.
		fstart := time.Now()
		kept, sres := engine.ScreenConnected(vw, edges, cfg)
		res.Filtered += len(edges) - len(kept)
		res.FilterElapsed += time.Since(fstart)
		res.FilterStats.Add(sres.Stats())
		edges = kept
		cfg.ConnectedFilter = false
	}
	res.FilterStats.Filtered = int64(res.Filtered)

	// Classify: route each edge to its shard (in local coordinates) or to
	// the spill list (in global coordinates). Self-loops are dropped here —
	// cheaper than letting even the targets' skip path touch them twice.
	intra := make([][]engine.Edge, s)
	var spill []engine.Edge
	for _, e := range edges {
		if e.X == e.Y {
			res.SelfLoops++
			continue
		}
		i, j := d.part.ShardOf(e.X), d.part.ShardOf(e.Y)
		if i == j {
			intra[i] = append(intra[i], engine.Edge{X: d.part.Local(e.X), Y: d.part.Local(e.Y)})
		} else {
			spill = append(spill, e)
		}
	}
	active := 0
	for i := range intra {
		if len(intra[i]) > 0 {
			res.Intra += len(intra[i])
			active++
		}
	}
	res.Spill = len(spill)

	// Local phase: every shard with intra edges runs its own engine batch,
	// concurrently with the others, splitting the worker budget. Each
	// shard's goroutine follows its run with that shard's re-anchor pass —
	// it only needs its own local state, and bridge unions are wait-free,
	// so no barrier is needed between shards.
	if active > 0 {
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		per := workers / active
		if per < 1 {
			per = 1
		}
		reanchors := make([]int, s)
		reanchorStats := make([]core.Stats, s)
		var wg sync.WaitGroup
		for i := range intra {
			if len(intra[i]) == 0 {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				lcfg := cfg
				lcfg.Workers = per
				lcfg.Seed = randutil.Mix64(cfg.Seed + uint64(i)*0x9e3779b97f4a7c15 + 1)
				res.PerShard[i] = engine.UniteAll(vw.locals[i], intra[i], lcfg)
				if res.PerShard[i].Merged > 0 {
					// Roots may have changed; restore the closure invariant.
					reanchors[i] = d.reanchor(i, &reanchorStats[i])
				}
			}(i)
		}
		wg.Wait()
		for i := range reanchors {
			res.Reanchors += reanchors[i]
			res.ReanchorStats.Add(reanchorStats[i])
		}
	}

	// Reconciliation: drive the spill list through the engine against the
	// bridge target — each edge resolves its endpoints to their shard-local
	// roots and unites the roots' global ids in the bridge. With closure
	// restored above, a bridge merge here is exactly a global merge.
	if len(spill) > 0 {
		bcfg := cfg
		bcfg.Seed = randutil.Mix64(cfg.Seed ^ 0xb51d6e5b111d6e)
		bres := engine.UniteAll(vw, spill, bcfg)
		res.Bridge = &bres
		// Anchor the spill representatives: local finds are cheap now that
		// the reconciliation run compacted the paths, and anchoring roots
		// (rather than raw endpoints) lets hot components share one anchor.
		for _, e := range spill {
			i, j := d.part.ShardOf(e.X), d.part.ShardOf(e.Y)
			d.anchors[i][d.locals[i].Find(d.part.Local(e.X))] = struct{}{}
			d.anchors[j][d.locals[j].Find(d.part.Local(e.Y))] = struct{}{}
		}
	}

	for i := range res.PerShard {
		res.Merged += res.PerShard[i].Merged
		res.CASRetries += res.PerShard[i].CASRetries
	}
	if res.Bridge != nil {
		res.Merged += res.Bridge.Merged
		res.CASRetries += res.Bridge.CASRetries
	}
	res.Elapsed = time.Since(start)
	return res
}

// SameSetAll answers pairs[i] into element i of the returned slice through
// the two-level structure, fanned out over the engine's worker pool,
// honoring the Config's find-variant override. Each answer carries the
// query contract of SameSet. It returns the same unified result type as
// UniteAll (the asymmetry the exec layer removed).
func (d *DSU) SameSetAll(pairs []exec.Edge, cfg exec.Config) ([]bool, exec.Result) {
	vw := d.view(cfg.Find)
	out, res := engine.SameSetAll(vw, pairs, cfg)
	res.Find = vw.find()
	return out, res
}

// ScreenConnected drops pairs whose endpoints are already connected,
// answering through the two-level rep without the mutation lock
// (exec.Backend): sound under concurrency — a true answer is definite —
// and exact at mutation-quiescence. UniteAll's own ConnectedFilter pass
// runs under the lock instead, where the screen is exact.
func (d *DSU) ScreenConnected(edges []exec.Edge, cfg exec.Config) ([]exec.Edge, exec.Result) {
	vw := d.view(cfg.Find)
	kept, res := engine.ScreenConnected(vw, edges, cfg)
	res.Find = vw.find()
	return kept, res
}

// UniteSpan implements the engine target's Unite mode on a view (spill
// reconciliation; mutation-lock holders only — see the view docs), one
// edge at a time. A self-loop counts as a completed operation and pays no
// finds, the engine targets' shared rule.
func (v view) UniteSpan(edges []engine.Edge, st *core.Stats) (merged, retries int64) {
	d := v.d
	for _, e := range edges {
		if e.X == e.Y {
			st.Ops++
			continue
		}
		i, j := d.part.ShardOf(e.X), d.part.ShardOf(e.Y)
		lx := v.locals[i].FindCounted(d.part.Local(e.X), st)
		ly := v.locals[j].FindCounted(d.part.Local(e.Y), st)
		m, r := v.bridge.UniteRetries(d.part.Global(i, lx), d.part.Global(j, ly), st)
		if m {
			merged++
		}
		retries += r
	}
	return merged, retries
}

// SameSetSpan implements the engine target's SameSet mode on a view, one
// pair at a time; sameSet answers a self-pair true without finds.
func (v view) SameSetSpan(pairs []engine.Edge, out []bool, st *core.Stats) {
	for i, e := range pairs {
		out[i] = v.sameSet(e.X, e.Y, st)
	}
}

// chaseRoot follows parent pointers from lx to a root within a snapshot
// copy, under a hard hop bound of len(parent). In any per-word-atomic
// snapshot of a core forest the chase terminates well inside the bound —
// every pointer moves strictly up the linking order, whichever moment
// each word was copied at — but the bound makes termination a structural
// guarantee rather than an argument: even a degenerate (cyclic) pointer
// array returns, with ok false, instead of spinning forever.
func chaseRoot(parent []uint32, lx uint32) (r uint32, ok bool) {
	r = lx
	for hops := 0; parent[r] != r; hops++ {
		if hops >= len(parent) {
			return 0, false
		}
		r = parent[r]
	}
	return r, true
}

// reps resolves every element's global representative — the bridge root of
// its shard-local root — in one pass per shard over a parent-array
// snapshot. Call at quiescence for an exact picture: mid-mutation, local
// roots and bridge classes are in flux and the per-root memoization mixes
// epochs, but the pass still terminates (chaseRoot's hop bound, with the
// live wait-free Find as the fallback resolver).
func (d *DSU) reps() []uint32 {
	n := d.part.N()
	rep := make([]uint32, n)
	for i := 0; i < d.part.Shards(); i++ {
		parent := d.locals[i].Snapshot()
		repOf := make(map[uint32]uint32, 16)
		for lx := range parent {
			r, ok := chaseRoot(parent, uint32(lx))
			if !ok {
				// The snapshot degenerated; resolve through the live
				// structure, whose finds are wait-free.
				r = d.locals[i].Find(uint32(lx))
			}
			br, ok := repOf[r]
			if !ok {
				br = d.bridge.Find(d.part.Global(i, r))
				repOf[r] = br
			}
			rep[d.part.Global(i, uint32(lx))] = br
		}
	}
	return rep
}

// Snapshot returns the flattened global forest: element x's entry is its
// global representative, so every tree has depth at most one. The
// two-level structure has no single parent array to copy — stitching the
// local and bridge forests into one pointer array could cycle through
// dethroned roots — so the flattened view is the honest single-array
// picture of the partition. Roots are exactly the global representatives
// (parent[x] == x), matching the flat structure's root convention.
// Exact at quiescence; mid-mutation the entries may mix epochs but the
// call always terminates (every root chase runs under chaseRoot's hard
// hop bound).
func (d *DSU) Snapshot() []uint32 { return d.reps() }

// ID returns x's position in the bridge level's random linking order,
// fixed at construction — the globally meaningful analogue of the flat
// structure's ID (each shard's local forest has its own order; the bridge
// order is the one spanning the whole universe).
func (d *DSU) ID(x uint32) uint32 { return d.bridge.ID(x) }

// CanonicalLabels returns the min-element labelling of the global
// partition. Quiescent-state use only, like the flat structure's.
func (d *DSU) CanonicalLabels() []uint32 {
	n := d.part.N()
	rep := d.reps()
	minOf := make(map[uint32]uint32, 16)
	for x := 0; x < n; x++ {
		if m, ok := minOf[rep[x]]; !ok || uint32(x) < m {
			minOf[rep[x]] = uint32(x)
		}
	}
	labels := make([]uint32, n)
	for x := range labels {
		labels[x] = minOf[rep[x]]
	}
	return labels
}

// Sets counts the current number of global sets. Quiescent-state use only.
func (d *DSU) Sets() int {
	labels := d.CanonicalLabels()
	count := 0
	for x, l := range labels {
		if uint32(x) == l {
			count++
		}
	}
	return count
}
