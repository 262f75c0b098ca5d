package engine

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/seqdsu"
	"repro/internal/workload"
)

// seqPartition replays edges through the classical sequential structure,
// returning it and the number of merges — the oracle every batch run must
// reproduce.
func seqPartition(n int, edges []Edge) (*seqdsu.DSU, int) {
	ref := seqdsu.New(n, seqdsu.LinkRank, seqdsu.CompactHalving, 1)
	merges := 0
	for _, e := range edges {
		if ref.Unite(e.X, e.Y) {
			merges++
		}
	}
	return ref, merges
}

func TestUniteAllMatchesSequentialBaseline(t *testing.T) {
	const n = 1 << 11
	edges := FromOps(workload.RandomUnions(n, 4*n, 17))
	ref, wantMerges := seqPartition(n, edges)
	want := ref.CanonicalLabels()

	for _, workers := range []int{1, 2, 3, 8, 16} {
		for _, grain := range []int{1, 7, 1024} {
			d := core.New(n, core.Config{Seed: 5})
			res := UniteAll(d, edges, Config{Workers: workers, Grain: grain, Seed: 99})
			if res.Merged != int64(wantMerges) {
				t.Errorf("workers=%d grain=%d: Merged = %d, want %d", workers, grain, res.Merged, wantMerges)
			}
			got := d.CanonicalLabels()
			for x := range got {
				if got[x] != want[x] {
					t.Fatalf("workers=%d grain=%d: label[%d] = %d, want %d", workers, grain, x, got[x], want[x])
				}
			}
		}
	}
}

func TestSameSetAllMatchesSequentialBaseline(t *testing.T) {
	const n = 1 << 11
	unions := FromOps(workload.RandomUnions(n, n, 23))
	ref, _ := seqPartition(n, unions)

	d := core.New(n, core.Config{Seed: 7})
	UniteAll(d, unions, Config{Workers: 4})

	queries := FromOps(workload.RandomUnions(n, 4*n, 29))
	got, res := SameSetAll(d, queries, Config{Workers: 5, Grain: 64})
	if len(got) != len(queries) {
		t.Fatalf("len(got) = %d, want %d", len(got), len(queries))
	}
	if st := res.Stats(); st.Ops != int64(len(queries)) {
		t.Errorf("counted ops = %d, want %d", st.Ops, len(queries))
	}
	for i, q := range queries {
		if want := ref.SameSet(q.X, q.Y); got[i] != want {
			t.Errorf("query %d %v: got %v, want %v", i, q, got[i], want)
		}
	}
}

func TestUniteAllDrivesDynamicTarget(t *testing.T) {
	const n = 512
	d := core.NewDynamic(n, 3)
	for i := 0; i < n; i++ {
		if _, err := d.MakeSet(); err != nil {
			t.Fatal(err)
		}
	}
	edges := FromOps(workload.RandomUnions(n, 2*n, 31))
	ref, wantMerges := seqPartition(n, edges)
	res := UniteAll(d, edges, Config{Workers: 4, Grain: 16})
	if res.Merged != int64(wantMerges) {
		t.Errorf("Merged = %d, want %d", res.Merged, wantMerges)
	}
	want := ref.CanonicalLabels()
	got := d.CanonicalLabels()
	for x := range got {
		if got[x] != want[x] {
			t.Fatalf("label[%d] = %d, want %d", x, got[x], want[x])
		}
	}
}

// countingTarget records how many times each batch index was delivered,
// using the X endpoint as the index, counting each edge inside its span
// loop. Each unite reports one link retry, so the batch's CASRetries must
// equal its delivery count; each query answers whether its index is even,
// so a span handed the wrong slice of the answer array shows up as a wrong
// answer.
type countingTarget struct {
	counts []atomic.Int32
}

func (c *countingTarget) UniteSpan(edges []Edge, st *core.Stats) (merged, retries int64) {
	for _, e := range edges {
		c.counts[e.X].Add(1)
		retries++
	}
	return 0, retries
}

func (c *countingTarget) SameSetSpan(pairs []Edge, out []bool, st *core.Stats) {
	for i, e := range pairs {
		c.counts[e.X].Add(1)
		out[i] = e.X%2 == 0
	}
}

// TestExactlyOnceDelivery forces heavy stealing (tiny grain, many workers)
// and checks that every edge is processed exactly once, in both modes.
func TestExactlyOnceDelivery(t *testing.T) {
	const m = 100_000
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{X: uint32(i), Y: ^uint32(0)}
	}
	tgt := &countingTarget{counts: make([]atomic.Int32, m)}
	res := UniteAll(tgt, edges, Config{Workers: 8, Grain: 2, Seed: 41})
	for i := range tgt.counts {
		if got := tgt.counts[i].Swap(0); got != 1 {
			t.Fatalf("edge %d delivered %d times, want 1", i, got)
		}
	}
	if res.CASRetries != m {
		t.Fatalf("CASRetries = %d, want %d (one per delivered unite)", res.CASRetries, m)
	}
	out, _ := SameSetAll(tgt, edges, Config{Workers: 8, Grain: 3, Seed: 43})
	for i := range tgt.counts {
		if got := tgt.counts[i].Load(); got != 1 {
			t.Fatalf("query %d delivered %d times, want 1", i, got)
		}
		if out[i] != (i%2 == 0) {
			t.Fatalf("query %d answered %v, want %v", i, out[i], i%2 == 0)
		}
	}
}

// TestSelfLoopsSkipFinds pins the self-loop rule every Target implements
// (the sharded view's copy is pinned in internal/shard): a self-loop edge
// is answered without a merge, finds or shared-memory traffic, while still
// counting as a completed operation.
func TestSelfLoopsSkipFinds(t *testing.T) {
	const n, m = 50, 1000
	edges := make([]Edge, m)
	for i := range edges {
		v := uint32(i % n)
		edges[i] = Edge{X: v, Y: v}
	}
	dyn := core.NewDynamic(n, 59)
	for i := 0; i < n; i++ {
		if _, err := dyn.MakeSet(); err != nil {
			t.Fatal(err)
		}
	}
	targets := map[string]Target{
		"core":       core.New(n, core.Config{Seed: 59}),
		"core+early": core.New(n, core.Config{Find: core.FindOneTry, EarlyTermination: true, Seed: 59}),
		"dynamic":    dyn,
	}
	for name, tgt := range targets {
		res := UniteAll(tgt, edges, Config{Workers: 3, Grain: 16})
		if res.Merged != 0 {
			t.Errorf("%s: self-loop batch Merged = %d, want 0", name, res.Merged)
		}
		st := res.Stats()
		if st.Ops != m {
			t.Errorf("%s: self-loop batch Ops = %d, want %d", name, st.Ops, m)
		}
		if st.Finds != 0 || st.Reads != 0 || st.CASAttempts != 0 {
			t.Errorf("%s: self-loop batch paid work: finds=%d reads=%d cas=%d, want all 0",
				name, st.Finds, st.Reads, st.CASAttempts)
		}
		out, qres := SameSetAll(tgt, edges, Config{Workers: 3, Grain: 16})
		for i, ans := range out {
			if !ans {
				t.Fatalf("%s: SameSetAll self-pair %d = false, want true", name, i)
			}
		}
		if qst := qres.Stats(); qst.Finds != 0 || qst.Reads != 0 || qst.Ops != m {
			t.Errorf("%s: self-pair queries: finds=%d reads=%d ops=%d, want 0, 0 and %d",
				name, qst.Finds, qst.Reads, qst.Ops, m)
		}
	}
}

// TestMixedSelfLoopsMatchBaseline checks a batch interleaving self-loops
// with real edges still reproduces the sequential partition and merge count.
func TestMixedSelfLoopsMatchBaseline(t *testing.T) {
	const n = 1 << 10
	edges := FromOps(workload.RandomUnions(n, 3*n, 61))
	for i := 0; i < len(edges); i += 5 {
		edges[i] = Edge{X: uint32(i % n), Y: uint32(i % n)}
	}
	ref, wantMerges := seqPartition(n, edges)
	want := ref.CanonicalLabels()
	d := core.New(n, core.Config{Seed: 67})
	res := UniteAll(d, edges, Config{Workers: 4, Grain: 32})
	if res.Merged != int64(wantMerges) {
		t.Errorf("Merged = %d, want %d", res.Merged, wantMerges)
	}
	got := d.CanonicalLabels()
	for x := range got {
		if got[x] != want[x] {
			t.Fatalf("label[%d] = %d, want %d", x, got[x], want[x])
		}
	}
}

func TestEmptyAndTinyBatches(t *testing.T) {
	d := core.New(8, core.Config{})
	if res := UniteAll(d, nil, Config{Workers: 4}); res.Merged != 0 || len(res.PerWorker) != 0 {
		t.Errorf("empty batch: got %+v", res)
	}
	res := UniteAll(d, []Edge{{X: 0, Y: 1}}, Config{Workers: 16})
	if res.Workers != 1 {
		t.Errorf("one-edge batch resolved %d workers, want 1", res.Workers)
	}
	if res.Merged != 1 {
		t.Errorf("one-edge batch Merged = %d, want 1", res.Merged)
	}
	out, _ := SameSetAll(d, []Edge{{X: 0, Y: 1}, {X: 0, Y: 2}}, Config{Workers: 16})
	if !out[0] || out[1] {
		t.Errorf("tiny SameSetAll = %v, want [true false]", out)
	}
}

// TestHugeGrainClamped pins the clamp that keeps an over-wide Grain from
// truncating to 0 in the uint32 span arithmetic (which would livelock the
// claim loop).
func TestHugeGrainClamped(t *testing.T) {
	const n = 256
	edges := FromOps(workload.RandomUnions(n, 2*n, 53))
	_, wantMerges := seqPartition(n, edges)
	d := core.New(n, core.Config{Seed: 3})
	res := UniteAll(d, edges, Config{Workers: 4, Grain: int(^uint(0) >> 1)})
	if res.Grain != len(edges) {
		t.Errorf("resolved grain = %d, want clamp to %d", res.Grain, len(edges))
	}
	if res.Merged != int64(wantMerges) {
		t.Errorf("Merged = %d, want %d", res.Merged, wantMerges)
	}
}

func TestMergedIsScheduleIndependent(t *testing.T) {
	const n = 1 << 10
	edges := FromOps(workload.RandomUnions(n, 3*n, 47))
	var first int64
	for rep := 0; rep < 4; rep++ {
		d := core.New(n, core.Config{Seed: uint64(rep)})
		res := UniteAll(d, edges, Config{Workers: 6, Grain: 8, Seed: uint64(rep)})
		if rep == 0 {
			first = res.Merged
		} else if res.Merged != first {
			t.Fatalf("rep %d: Merged = %d, want %d (merge count depends only on the edge multiset)", rep, res.Merged, first)
		}
	}
}

func TestSpanPackUnpack(t *testing.T) {
	cases := [][2]uint32{{0, 0}, {0, 1}, {5, 9}, {1<<32 - 2, 1<<32 - 1}}
	for _, c := range cases {
		n, l := unpack(pack(c[0], c[1]))
		if n != c[0] || l != c[1] {
			t.Errorf("pack/unpack(%d, %d) = (%d, %d)", c[0], c[1], n, l)
		}
	}
}

func TestSpanClaim(t *testing.T) {
	var s span
	s.reset(0, 10)
	if lo, hi, ok := s.claim(4); !ok || lo != 0 || hi != 4 {
		t.Fatalf("claim = (%d, %d, %v), want (0, 4, true)", lo, hi, ok)
	}
	if lo, hi, ok := s.claim(100); !ok || lo != 4 || hi != 10 {
		t.Fatalf("claim caps at limit: (%d, %d, %v), want (4, 10, true)", lo, hi, ok)
	}
	if _, _, ok := s.claim(1); ok {
		t.Fatal("claim on empty span succeeded")
	}
}

func TestSpanStealHalf(t *testing.T) {
	var s span
	s.reset(0, 100)
	lo, hi, ok := s.stealHalf(10)
	if !ok || lo != 50 || hi != 100 {
		t.Fatalf("stealHalf = (%d, %d, %v), want (50, 100, true)", lo, hi, ok)
	}
	if s.remaining() != 50 {
		t.Fatalf("victim remaining = %d, want 50", s.remaining())
	}
	s.reset(0, 19)
	if _, _, ok := s.stealHalf(10); ok {
		t.Fatal("stealHalf below the 2×grain threshold succeeded")
	}
}

// TestSpanConcurrentClaimSteal hammers one span with a claiming owner and
// stealing thieves and checks the handed-out intervals tile [0, N) exactly.
func TestSpanConcurrentClaimSteal(t *testing.T) {
	const N = 1 << 16
	var s span
	s.reset(0, N)
	seen := make([]atomic.Int32, N)
	mark := func(lo, hi uint32) {
		for i := lo; i < hi; i++ {
			seen[i].Add(1)
		}
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // owner
		defer wg.Done()
		for {
			lo, hi, ok := s.claim(3)
			if !ok {
				return
			}
			mark(lo, hi)
		}
	}()
	for th := 0; th < 2; th++ {
		go func() { // thieves re-stealing from the same span
			defer wg.Done()
			for {
				lo, hi, ok := s.stealHalf(3)
				if !ok {
					return
				}
				mark(lo, hi)
			}
		}()
	}
	wg.Wait()
	// Thieves stop below the 2×grain threshold, so the owner must have
	// drained the rest; every index is covered exactly once.
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("index %d covered %d times, want 1", i, got)
		}
	}
}
