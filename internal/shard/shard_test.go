package shard

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/randutil"
	"repro/internal/seqdsu"
	"repro/internal/workload"
)

// refPartition replays edges through the classical sequential structure.
func refPartition(n int, edges []engine.Edge) *seqdsu.DSU {
	ref := seqdsu.New(n, seqdsu.LinkRank, seqdsu.CompactHalving, 1)
	for _, e := range edges {
		ref.Unite(e.X, e.Y)
	}
	return ref
}

func checkLabels(t *testing.T, d *DSU, ref *seqdsu.DSU) {
	t.Helper()
	want := ref.CanonicalLabels()
	got := d.CanonicalLabels()
	for x := range got {
		if got[x] != want[x] {
			t.Fatalf("label[%d] = %d, want %d", x, got[x], want[x])
		}
	}
}

// TestShardedMatchesFlatAcrossBatches is the core cross-validation: for
// several seeds × shard counts, a multi-batch schedule (each batch mixing
// intra- and cross-shard edges) must leave the sharded structure with
// exactly the flat sequential partition. Multiple batches matter — they
// exercise the re-anchor pass that carries bridge classes across local
// root changes.
func TestShardedMatchesFlatAcrossBatches(t *testing.T) {
	const n = 3000
	for _, seed := range []uint64{1, 2, 3} {
		for _, shards := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				d := New(n, shards, core.Config{Seed: seed})
				var all []engine.Edge
				batches := [][]engine.Edge{
					engine.FromOps(workload.CommunityUnions(n, 2*n, shards, 0.9, seed+10)),
					engine.FromOps(workload.RandomUnions(n, n, seed+20)),
					engine.FromOps(workload.CommunityUnions(n, n, 16, 0.95, seed+30)),
					engine.FromOps(workload.RandomUnions(n, n/2, seed+40)),
				}
				for _, b := range batches {
					all = append(all, b...)
					d.UniteAll(b, engine.Config{Workers: 4, Grain: 32, Seed: seed})
					// Validate after every batch, not only at the end: an
					// invariant broken mid-schedule must not be masked by a
					// later batch re-merging the same sets.
					checkLabels(t, d, refPartition(n, all))
				}
			})
		}
	}
}

// TestReanchorCarriesBridgeClasses pins the exact scenario the re-anchor
// pass exists for: batch 1 links sets across shards, batch 2 merges those
// sets locally under new roots, and connectivity through the dethroned
// roots must survive. Swept over seeds so both link directions occur.
func TestReanchorCarriesBridgeClasses(t *testing.T) {
	for seed := uint64(0); seed < 16; seed++ {
		d := New(8, 4, core.Config{Seed: seed}) // blocks {0,1} {2,3} {4,5} {6,7}
		d.UniteAll([]engine.Edge{{X: 0, Y: 2}, {X: 4, Y: 6}}, engine.Config{Workers: 2, Seed: seed})
		d.UniteAll([]engine.Edge{{X: 0, Y: 1}, {X: 2, Y: 3}, {X: 4, Y: 5}}, engine.Config{Workers: 2, Seed: seed})
		for _, q := range [][2]uint32{{1, 3}, {0, 3}, {1, 2}, {5, 6}} {
			if !d.SameSet(q[0], q[1]) {
				t.Fatalf("seed %d: SameSet(%d,%d) = false after cross-then-local merges", seed, q[0], q[1])
			}
		}
		if d.SameSet(1, 5) {
			t.Fatalf("seed %d: disjoint components reported united", seed)
		}
		if got := d.Sets(); got != 3 {
			t.Fatalf("seed %d: Sets() = %d, want 3", seed, got)
		}
	}
}

// TestPointOpsInterleaveWithBatches mixes exact point Unites with batch
// runs and checks Unite's return value against the sequential oracle at
// every step.
func TestPointOpsInterleaveWithBatches(t *testing.T) {
	const n = 600
	for _, shards := range []int{1, 3, 8} {
		ref := seqdsu.New(n, seqdsu.LinkRank, seqdsu.CompactHalving, 1)
		d := New(n, shards, core.Config{Seed: uint64(shards)})
		rng := randutil.NewXoshiro256(uint64(77 + shards))
		for step := 0; step < 40; step++ {
			if step%8 == 3 {
				batch := engine.FromOps(workload.RandomUnions(n, n/4, rng.Next()))
				d.UniteAll(batch, engine.Config{Workers: 3, Grain: 8})
				for _, e := range batch {
					ref.Unite(e.X, e.Y)
				}
				continue
			}
			x, y := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			want := ref.Unite(x, y)
			if got := d.Unite(x, y); got != want {
				t.Fatalf("shards=%d step %d: Unite(%d,%d) = %v, want %v", shards, step, x, y, got, want)
			}
			if !d.SameSet(x, y) {
				t.Fatalf("shards=%d step %d: SameSet(%d,%d) false after Unite", shards, step, x, y)
			}
		}
		for x := 0; x < n; x++ {
			for _, y := range []uint32{0, uint32(n / 2), uint32(n - 1)} {
				if got, want := d.SameSet(uint32(x), y), ref.SameSet(uint32(x), y); got != want {
					t.Fatalf("shards=%d: SameSet(%d,%d) = %v, want %v", shards, x, y, got, want)
				}
			}
		}
	}
}

// TestSameSetAllThroughTwoLevels validates the batched query path against
// the oracle after a mixed intra/cross build-up.
func TestSameSetAllThroughTwoLevels(t *testing.T) {
	const n = 2000
	unions := engine.FromOps(workload.CommunityUnions(n, 2*n, 8, 0.8, 5))
	queries := engine.FromOps(workload.RandomUnions(n, 4*n, 7))
	ref := refPartition(n, unions)

	d := New(n, 4, core.Config{Seed: 9})
	d.UniteAll(unions, engine.Config{Workers: 4})
	got, res := d.SameSetAll(queries, engine.Config{Workers: 4, Grain: 64})
	if st := res.Stats(); st.Ops != int64(len(queries)) {
		t.Errorf("query ops = %d, want %d", st.Ops, len(queries))
	}
	for i, q := range queries {
		if want := ref.SameSet(q.X, q.Y); got[i] != want {
			t.Fatalf("query %d (%d,%d): got %v, want %v", i, q.X, q.Y, got[i], want)
		}
	}
}

// TestQueriesConcurrentWithMutations exercises the lock-free query path
// while batches and point ops mutate the structure: under -race this checks
// the memory discipline, and every true answer must hold in the final
// partition (the contract: witnessed connectivity never lies).
func TestQueriesConcurrentWithMutations(t *testing.T) {
	const n = 2000
	unions := engine.FromOps(workload.CommunityUnions(n, 3*n, 6, 0.7, 11))
	ref := refPartition(n, unions)

	d := New(n, 3, core.Config{Seed: 13})
	done := make(chan struct{})
	type obs struct {
		x, y uint32
		same bool
	}
	results := make(chan []obs, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			rng := randutil.NewXoshiro256(uint64(100 + g))
			var seen []obs
			for {
				select {
				case <-done:
					results <- seen
					return
				default:
				}
				x, y := uint32(rng.Intn(n)), uint32(rng.Intn(n))
				seen = append(seen, obs{x, y, d.SameSet(x, y)})
				d.Find(x)
			}
		}(g)
	}
	const batch = 512
	for lo := 0; lo < len(unions); lo += batch {
		hi := min(lo+batch, len(unions))
		d.UniteAll(unions[lo:hi], engine.Config{Workers: 2, Grain: 16})
	}
	close(done)
	for g := 0; g < 2; g++ {
		for _, o := range <-results {
			if o.same && !ref.SameSet(o.x, o.y) {
				t.Fatalf("concurrent SameSet(%d,%d) invented connectivity", o.x, o.y)
			}
		}
	}
	checkLabels(t, d, ref)
}

// TestShardedStatsAggregation checks the batch Result accounts for every
// classified edge and sums work across all phases.
func TestShardedStatsAggregation(t *testing.T) {
	const n = 1000
	edges := engine.FromOps(workload.RandomUnions(n, 2*n, 17))
	edges = append(edges, engine.Edge{X: 5, Y: 5}, engine.Edge{X: 9, Y: 9})
	wantLoops := 0
	for _, e := range edges {
		if e.X == e.Y {
			wantLoops++ // the two injected plus any natural collisions
		}
	}
	d := New(n, 4, core.Config{Seed: 19})
	res := d.UniteAll(edges, engine.Config{Workers: 3})
	if got := res.Intra + res.Spill + res.SelfLoops; got != len(edges) {
		t.Errorf("classified %d edges (intra %d, spill %d, loops %d), want %d",
			got, res.Intra, res.Spill, res.SelfLoops, len(edges))
	}
	if res.SelfLoops != wantLoops {
		t.Errorf("SelfLoops = %d, want %d", res.SelfLoops, wantLoops)
	}
	st := res.Stats()
	if st.Ops != int64(res.Intra+res.Spill) {
		t.Errorf("aggregated ops = %d, want %d", st.Ops, res.Intra+res.Spill)
	}
	if st.Work() <= 0 {
		t.Error("aggregated batch reported no work")
	}
	if res.Merged < res.Bridge.Merged {
		t.Error("Merged must include the bridge run")
	}
}

// TestDegenerateShapes covers the boundary universes: empty, single
// element, single shard, and more shards than elements.
func TestDegenerateShapes(t *testing.T) {
	empty := New(0, 4, core.Config{})
	if empty.N() != 0 || empty.Shards() != 0 || empty.Sets() != 0 {
		t.Errorf("empty universe: N=%d Shards=%d Sets=%d", empty.N(), empty.Shards(), empty.Sets())
	}
	if res := empty.UniteAll(nil, engine.Config{}); res.Merged != 0 {
		t.Error("empty UniteAll merged")
	}

	one := New(1, 8, core.Config{})
	if one.Shards() != 1 || !one.SameSet(0, 0) || one.Unite(0, 0) {
		t.Error("singleton universe misbehaves")
	}

	tiny := New(5, 64, core.Config{Seed: 23})
	tiny.UniteAll([]engine.Edge{{X: 0, Y: 4}, {X: 1, Y: 2}}, engine.Config{Workers: 8})
	ref := refPartition(5, []engine.Edge{{X: 0, Y: 4}, {X: 1, Y: 2}})
	checkLabels(t, tiny, ref)
	if tiny.Sets() != 3 {
		t.Errorf("tiny Sets = %d, want 3", tiny.Sets())
	}
}

// TestViewSelfLoopsSkipFinds pins the engine targets' self-loop rule on the
// two-level view, in both modes: a self-loop merges nothing, pays no finds
// and counts as one completed operation. UniteAll drops self-loops while
// routing, so the view's Unite mode is driven directly.
func TestViewSelfLoopsSkipFinds(t *testing.T) {
	const n, m = 64, 500
	edges := make([]engine.Edge, m)
	for i := range edges {
		v := uint32(i % n)
		edges[i] = engine.Edge{X: v, Y: v}
	}
	d := New(n, 4, core.Config{Seed: 71})
	d.mu.Lock()
	res := engine.UniteAll(d.view(0), edges, engine.Config{Workers: 3, Grain: 16})
	d.mu.Unlock()
	st := res.Stats()
	if res.Merged != 0 || st.Ops != m || st.Finds != 0 || st.Reads != 0 {
		t.Errorf("unite mode: merged=%d ops=%d finds=%d reads=%d, want 0, %d, 0, 0",
			res.Merged, st.Ops, st.Finds, st.Reads, m)
	}
	out, qres := engine.SameSetAll(d.view(0), edges, engine.Config{Workers: 3, Grain: 16})
	for i, ans := range out {
		if !ans {
			t.Fatalf("self-pair %d answered false", i)
		}
	}
	if qst := qres.Stats(); qst.Ops != m || qst.Finds != 0 || qst.Reads != 0 {
		t.Errorf("query mode: ops=%d finds=%d reads=%d, want %d, 0, 0", qst.Ops, qst.Finds, qst.Reads, m)
	}
}
