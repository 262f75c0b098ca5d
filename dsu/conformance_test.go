package dsu_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/dsu"
	"repro/internal/engine"
	"repro/internal/randutil"
	"repro/internal/seqdsu"
	"repro/internal/workload"
)

// This file is the shared conformance suite: one table of the ways to
// build the structure — New, and a Registry spec naming the retired
// lock-free kind — driven through the one contract. Constructor
// boundaries, batch ≡ blocking partitions and merge counts, oracle
// cross-validation, and counted accounting are each written once here,
// as are the overlap and retry-accounting contracts; point-op
// linearizability is checked on the core (internal/core). CI runs the
// suite under -race.

// backendCase names one way to build the structure.
type backendCase struct {
	name string
	make func(n int, opts ...dsu.Option) *dsu.DSU
}

func backendCases() []backendCase {
	return []backendCase{
		{"flat", func(n int, opts ...dsu.Option) *dsu.DSU { return dsu.New(n, opts...) }},
		{"lockfree", newLockFreeSpec},
	}
}

// newLockFreeSpec builds the structure the way an older spec naming the
// retired lock-free kind does: Registry.Create with
// WithKind(KindLockFree). Every kind name builds the same structure, so
// the suite holds it to New's contract. It panics where Create errs, as
// New would.
func newLockFreeSpec(n int, opts ...dsu.Option) *dsu.DSU {
	u, err := dsu.NewRegistry().Create("spec", n, append([]dsu.Option{dsu.WithKind(dsu.KindLockFree)}, opts...)...)
	if err != nil {
		panic(err)
	}
	return u.Backend()
}

// oracle replays edges through the classical sequential structure.
func oracle(n int, batches ...[]dsu.Edge) *seqdsu.DSU {
	ref := seqdsu.New(n, seqdsu.LinkRank, seqdsu.CompactHalving, 1)
	for _, b := range batches {
		for _, e := range b {
			ref.Unite(e.X, e.Y)
		}
	}
	return ref
}

func checkLabelsMatch(t *testing.T, got, want []uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("label count %d, want %d", len(got), len(want))
	}
	for x := range got {
		if got[x] != want[x] {
			t.Fatalf("label[%d] = %d, want %d", x, got[x], want[x])
		}
	}
}

// TestBackendConformanceOracle is the acceptance cross-validation, run
// against every way of building the structure: a multi-batch schedule
// must leave it with exactly the sequential oracle's partition — same canonical
// labels, set count, batch and point SameSet answers, snapshot roots,
// component materialization, and an ID permutation.
func TestBackendConformanceOracle(t *testing.T) {
	const n = 2500
	for _, bc := range backendCases() {
		for _, seed := range []uint64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed=%d", bc.name, seed), func(t *testing.T) {
				d := bc.make(n, dsu.WithSeed(seed))
				batches := [][]dsu.Edge{
					engine.FromOps(workload.CommunityUnions(n, 2*n, 8, 0.9, seed+100)),
					engine.FromOps(workload.RandomUnions(n, n, seed+200)),
					engine.FromOps(workload.ZipfMixed(n, n, 1.0, 1.1, seed+300)),
				}
				for _, b := range batches {
					d.UniteAll(b, dsu.WithWorkers(4), dsu.WithGrain(64))
				}
				ref := oracle(n, batches...)

				queries := engine.FromOps(workload.RandomUnions(n, 4*n, seed+400))
				ans := d.SameSetAll(queries, dsu.WithWorkers(4))
				for i, q := range queries {
					want := ref.SameSet(q.X, q.Y)
					if ans[i] != want {
						t.Fatalf("batch query %d (%d,%d) = %v, oracle %v", i, q.X, q.Y, ans[i], want)
					}
					if got := d.SameSet(q.X, q.Y); got != want {
						t.Fatalf("point SameSet(%d,%d) = %v, oracle %v", q.X, q.Y, got, want)
					}
				}

				want := ref.CanonicalLabels()
				checkLabelsMatch(t, d.CanonicalLabels(), want)
				if got, wantSets := d.Sets(), ref.Sets(); got != wantSets {
					t.Fatalf("Sets() = %d, oracle %d", got, wantSets)
				}

				// Snapshot names the same partition: entries are roots, and
				// two elements share an entry iff they share a label.
				snap := d.Snapshot()
				for x := range snap {
					if snap[snap[x]] != snap[x] {
						t.Fatalf("snapshot entry %d → %d is not a root", x, snap[x])
					}
					if x > 0 && (snap[x] == snap[x-1]) != (want[x] == want[x-1]) {
						t.Fatalf("snapshot and labels disagree on (%d,%d)", x-1, x)
					}
				}

				// Components bucket the labelling exactly.
				total := 0
				for _, comp := range d.Components() {
					total += len(comp)
					for _, x := range comp {
						if want[x] != want[comp[0]] {
							t.Fatalf("component mixing labels: %d with %d", x, comp[0])
						}
					}
				}
				if total != n {
					t.Fatalf("components cover %d elements, want %d", total, n)
				}

				// ID is a permutation of 0..n−1, fixed at construction.
				seen := make([]bool, n)
				for x := 0; x < n; x++ {
					id := d.ID(uint32(x))
					if id >= uint32(n) || seen[id] {
						t.Fatalf("ID(%d) = %d is out of range or duplicated", x, id)
					}
					seen[id] = true
				}
			})
		}
	}
}

// TestBackendBatchEqualsBlocking pins batch ≡ blocking: a UniteAll over a
// batch leaves exactly the partition of a point-op loop over the same
// edges, however built, and reports exactly the loop's merge count.
func TestBackendBatchEqualsBlocking(t *testing.T) {
	const n = 1500
	edges := engine.FromOps(workload.CommunityUnions(n, 3*n, 6, 0.8, 17))
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			batch := bc.make(n, dsu.WithSeed(5))
			merged := batch.UniteAll(edges, dsu.WithWorkers(4))

			point := bc.make(n, dsu.WithSeed(5))
			pointMerged := 0
			for _, e := range edges {
				if point.Unite(e.X, e.Y) {
					pointMerged++
				}
			}
			checkLabelsMatch(t, batch.CanonicalLabels(), point.CanonicalLabels())
			if merged != pointMerged {
				t.Fatalf("batch merged %d, blocking loop %d", merged, pointMerged)
			}
			if batch.Sets() != point.Sets() {
				t.Fatalf("batch Sets %d, blocking %d", batch.Sets(), point.Sets())
			}
		})
	}
}

// TestBackendFindVariantConformance sweeps every find strategy — the
// splitting family, halving, compression and the compatibility name
// FindAuto — checking the partition is variant-independent.
func TestBackendFindVariantConformance(t *testing.T) {
	const n = 800
	edges := engine.FromOps(workload.CommunityUnions(n, 2*n, 4, 0.8, 31))
	want := oracle(n, edges).CanonicalLabels()
	for _, bc := range backendCases() {
		for _, f := range []dsu.FindStrategy{dsu.NoCompaction, dsu.OneTrySplitting, dsu.TwoTrySplitting, dsu.FindAuto, dsu.Halving, dsu.Compression} {
			t.Run(fmt.Sprintf("%s/%v", bc.name, f), func(t *testing.T) {
				d := bc.make(n, dsu.WithFind(f), dsu.WithSeed(33))
				d.UniteAll(edges, dsu.WithWorkers(3))
				checkLabelsMatch(t, d.CanonicalLabels(), want)
			})
		}
	}
}

// TestConformanceVariantSwitch cross-validates per-batch find overrides
// and the property they rely on: every find variant keeps the same
// invariants over the same parent array, so a forest whose batches cycle
// through all five variants — unites and queries alike, through the
// Universe DTO layer — merges exactly what a fixed two-try structure
// merges, answers every query batch the same, and ends on the same
// partition.
func TestConformanceVariantSwitch(t *testing.T) {
	const n = 1800
	variants := []dsu.FindStrategy{dsu.NoCompaction, dsu.OneTrySplitting, dsu.TwoTrySplitting, dsu.Halving, dsu.Compression}
	for _, seed := range []uint64{2, 19, 77} {
		edges := engine.FromOps(workload.ZipfMixed(n, 3*n, 1.0, 1.1, seed+300))
		edges = append(edges, engine.FromOps(workload.CommunityUnions(n, 2*n, 8, 0.9, seed+400))...)
		// Half the queries repeat edges (connected once united), half are
		// random pairs (mostly not).
		queries := append(append([]dsu.Edge{}, edges[:n/2]...), engine.FromOps(workload.RandomUnions(n, n/2, seed+500))...)
		for _, batch := range []int{193, 2048} {
			for _, bc := range backendCases() {
				t.Run(fmt.Sprintf("seed=%d/batch=%d/%s", seed, batch, bc.name), func(t *testing.T) {
					fixed := dsu.NewUniverse("fixed", dsu.New(n, dsu.WithSeed(seed)))
					switched := dsu.NewUniverse("switched", bc.make(n, dsu.WithSeed(seed)))
					for k, lo := 0, 0; lo < len(edges); k, lo = k+1, lo+batch {
						uv, qv := variants[k%len(variants)], variants[(k+2)%len(variants)]
						unite := edges[lo:min(lo+batch, len(edges))]
						want, err := fixed.UniteAll(dsu.UniteRequest{Edges: unite, Options: dsu.BatchOptions{Workers: 3}})
						if err != nil {
							t.Fatal(err)
						}
						got, err := switched.UniteAll(dsu.UniteRequest{Edges: unite, Options: dsu.BatchOptions{Workers: 3, Find: uv}})
						if err != nil {
							t.Fatal(err)
						}
						if got.Find != uv || got.Merged != want.Merged {
							t.Fatalf("unite batch at %d: ran %v and merged %d; want %v and the fixed structure's %d",
								lo, got.Find, got.Merged, uv, want.Merged)
						}
						wantQ, err := fixed.SameSetAll(dsu.QueryRequest{Pairs: queries, Options: dsu.BatchOptions{Workers: 3}})
						if err != nil {
							t.Fatal(err)
						}
						gotQ, err := switched.SameSetAll(dsu.QueryRequest{Pairs: queries, Options: dsu.BatchOptions{Workers: 3, Find: qv}})
						if err != nil {
							t.Fatal(err)
						}
						if gotQ.Find != qv {
							t.Fatalf("query after batch at %d ran %v, want %v", lo, gotQ.Find, qv)
						}
						for i := range gotQ.Answers {
							if gotQ.Answers[i] != wantQ.Answers[i] {
								t.Fatalf("query after batch at %d: answer[%d] = %v under %v, fixed %v",
									lo, i, gotQ.Answers[i], qv, wantQ.Answers[i])
							}
						}
					}
					checkLabelsMatch(t, switched.CanonicalLabels(), fixed.CanonicalLabels())
				})
			}
		}
	}
}

// TestAdaptiveFindOption pins the compatibility spellings of two-try
// splitting: FindAuto stringifies as "auto", and WithAdaptiveFind and
// WithFind(FindAuto) build what WithFind(TwoTrySplitting) builds — the
// same merges and partition, and replies that report TwoTrySplitting.
func TestAdaptiveFindOption(t *testing.T) {
	if dsu.FindAuto.String() != "auto" {
		t.Errorf("FindAuto.String() = %q, want auto", dsu.FindAuto.String())
	}
	const n = 256
	edges := engine.FromOps(workload.RandomUnions(n, 2*n, 44))
	want := dsu.New(n, dsu.WithSeed(8), dsu.WithFind(dsu.TwoTrySplitting))
	wantMerged := want.UniteAll(edges)
	for name, opt := range map[string]dsu.Option{
		"WithAdaptiveFind":   dsu.WithAdaptiveFind(),
		"WithFind(FindAuto)": dsu.WithFind(dsu.FindAuto),
	} {
		u := dsu.NewUniverse(name, dsu.New(n, dsu.WithSeed(8), opt))
		rep, err := u.UniteAll(dsu.UniteRequest{Edges: edges})
		if err != nil || rep.Merged != int64(wantMerged) || rep.Find != dsu.TwoTrySplitting {
			t.Errorf("%s: unite reply merged %d under %v (%v); want %d under twotry", name, rep.Merged, rep.Find, err, wantMerged)
		}
		if q, err := u.SameSetAll(dsu.QueryRequest{Pairs: edges}); err != nil || q.Find != dsu.TwoTrySplitting {
			t.Errorf("%s: query reply ran %v (%v), want twotry", name, q.Find, err)
		}
		checkLabelsMatch(t, u.CanonicalLabels(), want.CanonicalLabels())
	}
}

// TestBatchOptionBoundaries sweeps WithWorkers and WithGrain through their
// documented degenerate values — zero, negative, larger than the batch —
// on the batch path, checking the partition is immune.
func TestBatchOptionBoundaries(t *testing.T) {
	const n = 1200
	edges := engine.FromOps(workload.RandomUnions(n, 2*n, 41))
	flat := dsu.New(n)
	flat.UniteAll(edges)
	want := flat.CanonicalLabels()

	for _, bc := range backendCases() {
		for _, workers := range []int{0, -1, 1, len(edges) + 7} {
			for _, grain := range []int{0, -5, 1, len(edges) * 3} {
				t.Run(fmt.Sprintf("%s/workers=%d/grain=%d", bc.name, workers, grain), func(t *testing.T) {
					d := bc.make(n)
					d.UniteAll(edges, dsu.WithWorkers(workers), dsu.WithGrain(grain))
					checkLabelsMatch(t, d.CanonicalLabels(), want)
				})
			}
		}
	}

	// Queries under the same degenerate options.
	for _, bc := range backendCases() {
		d := bc.make(n)
		d.UniteAll(edges)
		for i, ans := range d.SameSetAll(edges, dsu.WithWorkers(-2), dsu.WithGrain(0)) {
			if !ans {
				t.Fatalf("%s: united pair %d answered false", bc.name, i)
			}
		}
	}
}

// TestBackendCountedConformance checks the counted batch variants account
// work: a mutation batch reports operations and nonzero
// work, and a query batch reports exactly one operation per pair.
func TestBackendCountedConformance(t *testing.T) {
	const n = 1500
	edges := engine.FromOps(workload.CommunityUnions(n, 2*n, 5, 0.7, 47))
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			d := bc.make(n)
			var st dsu.Stats
			d.UniteAllCounted(edges, &st, dsu.WithWorkers(3))
			if st.Ops == 0 || st.Work() <= 0 {
				t.Errorf("counted mutation batch reported no work: %+v", st)
			}
			before := st.Ops
			d.SameSetAllCounted(edges, &st, dsu.WithWorkers(3))
			if st.Ops-before != int64(len(edges)) {
				t.Errorf("SameSetAllCounted ops = %d, want %d", st.Ops-before, len(edges))
			}
		})
	}
}

// TestBackendConstructorContract pins every constructor's documented
// boundaries in one table: the rejections (out-of-range n, unknown
// strategies, undefined option combinations), and the combinations that
// must construct, whichever way the structure is built.
func TestBackendConstructorContract(t *testing.T) {
	panics := []struct {
		name string
		fn   func()
	}{
		{"flat/negative n", func() { dsu.New(-1) }},
		{"flat/n over 2^31-1", func() { dsu.New(1 << 31) }},
		{"flat/unknown find strategy", func() { dsu.New(4, dsu.WithFind(dsu.FindStrategy(99))) }},
		{"flat/early termination + halving", func() { dsu.New(4, dsu.WithFind(dsu.Halving), dsu.WithEarlyTermination()) }},
		{"flat/early termination + compression", func() { dsu.New(4, dsu.WithFind(dsu.Compression), dsu.WithEarlyTermination()) }},
		{"dynamic/negative capacity", func() { dsu.NewDynamic(-1) }},
	}
	for _, c := range panics {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			c.fn()
		})
	}

	// Accepted combinations, whichever way the structure is built: every
	// strategy, early termination where Section 6 defines it, and the
	// empty universe.
	for _, bc := range backendCases() {
		for _, f := range []dsu.FindStrategy{dsu.NoCompaction, dsu.OneTrySplitting, dsu.TwoTrySplitting, dsu.Halving, dsu.Compression} {
			if d := bc.make(4, dsu.WithFind(f)); d.N() != 4 {
				t.Errorf("%s %v: N = %d, want 4", bc.name, f, d.N())
			}
		}
		for _, f := range []dsu.FindStrategy{dsu.NoCompaction, dsu.OneTrySplitting, dsu.TwoTrySplitting} {
			d := bc.make(4, dsu.WithFind(f), dsu.WithEarlyTermination())
			d.Unite(0, 1)
			if !d.SameSet(0, 1) {
				t.Errorf("%s %v+early: SameSet(0,1) = false after Unite", bc.name, f)
			}
		}
		if e := bc.make(0); e.N() != 0 || e.Sets() != 0 {
			t.Errorf("%s: empty universe should construct", bc.name)
		}
	}
}

// overlapConfigs are the eight configurations New accepts: the five finds,
// and early termination with naive, one-try and two-try.
var overlapConfigs = []struct {
	find  dsu.FindStrategy
	early bool
}{
	{dsu.NoCompaction, false}, {dsu.OneTrySplitting, false}, {dsu.TwoTrySplitting, false},
	{dsu.Halving, false}, {dsu.Compression, false},
	{dsu.NoCompaction, true}, {dsu.OneTrySplitting, true}, {dsu.TwoTrySplitting, true},
}

// TestOverlappingBatchesExactMerges is the no-barrier contract, accounting
// half, under every configuration New accepts: many UniteAll calls
// overlapping on one structure from many goroutines, with point
// operations racing them, must sum their merge counts to exactly initial
// sets − final sets — every successful link counted exactly once — and
// land on the oracle partition.
func TestOverlappingBatchesExactMerges(t *testing.T) {
	const n, batches, perBatch = 2048, 8, 1024
	rng := randutil.NewXoshiro256(77)
	all := make([][]dsu.Edge, batches)
	for i := range all {
		all[i] = engine.FromOps(workload.RandomUnions(n, perBatch, rng.Next()))
	}
	points := engine.FromOps(workload.RandomUnions(n, 256, 123))
	want := oracle(n, append(all, points)...).CanonicalLabels()

	for _, c := range overlapConfigs {
		name := c.find.String()
		opts := []dsu.Option{dsu.WithFind(c.find), dsu.WithSeed(21)}
		if c.early {
			name += "+early"
			opts = append(opts, dsu.WithEarlyTermination())
		}
		t.Run(name, func(t *testing.T) {
			d := dsu.New(n, opts...)
			var wg sync.WaitGroup
			merged := make([]int, batches)
			for i := range all {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					merged[i] = d.UniteAll(all[i], dsu.WithWorkers(2))
				}(i)
			}
			// Point operations race the batches; their merges must be
			// counted by them alone (Unite returning true), never
			// double-counted by a batch.
			pointMerged := 0
			for _, e := range points {
				if d.Unite(e.X, e.Y) {
					pointMerged++
				}
			}
			wg.Wait()

			total := pointMerged
			for _, m := range merged {
				total += m
			}
			if want := n - d.Sets(); total != want {
				t.Fatalf("summed merges %d, want exactly %d (initial − final sets)", total, want)
			}
			checkLabelsMatch(t, d.CanonicalLabels(), want)
		})
	}
}

// TestBatchCASRetriesMatchRounds pins the retry plumbing from the core's
// Algorithm 3 loop to the batch reply. Each link attempt is one round, so
// on a unite batch every non-self-loop edge costs one round
// plus one per lost link race: CASRetries = Rounds − (Ops − self-loops),
// exactly. A reply that dropped or double-counted retries breaks the
// identity. The batch makes the races real: every edge joins one hot key
// to the next element in linking order, so each link moves the root every
// in-flight unite is about to link, and overlapping calls contend on it.
func TestBatchCASRetriesMatchRounds(t *testing.T) {
	const n, calls = 1 << 12, 4
	for _, kind := range []dsu.Kind{dsu.KindFlat, dsu.KindLockFree} {
		t.Run(kind.String(), func(t *testing.T) {
			var retries int64
			attempt := 0
			// Contention is a scheduling outcome, so repeat until some
			// race was observed (a multi-core run sees one at once).
			for ; attempt < 20 && retries == 0; attempt++ {
				u, err := dsu.NewRegistry().Create("hot", n, dsu.WithKind(kind), dsu.WithSeed(uint64(attempt)))
				if err != nil {
					t.Fatal(err)
				}
				byID := make([]uint32, n)
				for x := uint32(0); x < n; x++ {
					byID[u.ID(x)] = x
				}
				edges := make([]dsu.Edge, 0, n)
				for _, x := range byID {
					edges = append(edges, dsu.Edge{X: byID[0], Y: x}) // the first is a self-loop
				}
				reps := make([]dsu.BatchReply, calls)
				var wg sync.WaitGroup
				for c := range reps {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						rep, err := u.UniteAll(dsu.UniteRequest{Edges: edges, Options: dsu.BatchOptions{Workers: 4}})
						if err != nil {
							t.Error(err)
						}
						reps[c] = rep
					}(c)
				}
				wg.Wait()
				for c, rep := range reps {
					if want := rep.Stats.Rounds - (rep.Stats.Ops - 1); rep.CASRetries != want {
						t.Fatalf("call %d: CASRetries = %d, want Rounds − (Ops − self-loops) = %d", c, rep.CASRetries, want)
					}
					retries += rep.CASRetries
				}
			}
			t.Logf("%d root-link retries in %d attempts (GOMAXPROCS=%d)", retries, attempt, runtime.GOMAXPROCS(0))
		})
	}
}
