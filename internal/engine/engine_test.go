package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/seqdsu"
	"repro/internal/tracespan"
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
	d := core.NewDynamic(n, core.Config{Seed: 3})
	for i := 0; i < n; i++ {
		if _, err := d.MakeSet(); err != nil {
			t.Fatal(err)
		}
	}
	edges := FromOps(workload.RandomUnions(n, 2*n, 31))
	ref, wantMerges := seqPartition(n, edges)
	res := UniteAll(d.DSU, edges, Config{Workers: 4, Grain: 16})
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
// loop. Each unite reports one link retry, and a merge when its index is
// even; each query answers whether its index is even, so a span handed the
// wrong slice of the answer array shows up as a wrong answer. Every
// delivered edge counts one operation into the worker's Stats, and the
// target sums what its spans reported, for the Result to match.
type countingTarget struct {
	counts          []atomic.Int32
	merged, retries atomic.Int64
}

func (c *countingTarget) UniteSpan(edges []Edge, st *core.Stats) (merged, retries int64) {
	for _, e := range edges {
		c.counts[e.X].Add(1)
		st.Ops++
		if e.X%2 == 0 {
			merged++
		}
		retries++
	}
	c.merged.Add(merged)
	c.retries.Add(retries)
	return merged, retries
}

func (c *countingTarget) SameSetSpan(pairs []Edge, out []bool, st *core.Stats) {
	for i, e := range pairs {
		c.counts[e.X].Add(1)
		st.Ops++
		out[i] = e.X%2 == 0
	}
}

// TestExactlyOnceDelivery checks that every edge is processed exactly once
// and every answer lands at its pair's index, in both modes: under heavy
// stealing (tiny grain, many workers), and at the batch lengths around the
// inline boundary, where a batch of at most one grain runs on the caller
// as one worker. Merged, CASRetries and the workers' Stats must sum what
// the spans reported, and a traced batch keeps one record per worker.
func TestExactlyOnceDelivery(t *testing.T) {
	type input struct{ m, workers, grain int }
	inputs := []input{{100_000, 8, 2}, {100_000, 8, 3}}
	const grain = 16
	for _, m := range []int{0, 1, grain - 1, grain, grain + 1, 2*grain + 1} {
		for _, workers := range []int{1, 2, 4} {
			inputs = append(inputs, input{m, workers, grain})
		}
	}
	rec := tracespan.New(tracespan.Config{})
	for _, in := range inputs {
		edges := make([]Edge, in.m)
		evens := int64(0)
		for i := range edges {
			edges[i] = Edge{X: uint32(i), Y: ^uint32(0)}
			if i%2 == 0 {
				evens++
			}
		}
		wantWorkers := min(in.workers, in.m)
		if in.m <= in.grain && in.m > 0 {
			wantWorkers = 1
		}
		for _, query := range []bool{false, true} {
			name := fmt.Sprintf("m=%d workers=%d grain=%d query=%v", in.m, in.workers, in.grain, query)
			tgt := &countingTarget{counts: make([]atomic.Int32, in.m)}
			cfg := Config{Workers: in.workers, Grain: in.grain, Seed: 41}
			if in.m < 1000 {
				// The boundary inputs run traced, so they keep per-worker
				// records; the stealing inputs run untraced.
				op := tracespan.OpUnite
				if query {
					op = tracespan.OpQuery
				}
				cfg.Trace = rec.Start(op, tracespan.SourceBlocking)
			}
			var res Result
			var out []bool
			if query {
				out, res = SameSetAll(tgt, edges, cfg)
			} else {
				res = UniteAll(tgt, edges, cfg)
			}
			for i := range tgt.counts {
				if got := tgt.counts[i].Load(); got != 1 {
					t.Fatalf("%s: edge %d delivered %d times, want 1", name, i, got)
				}
				if query && out[i] != (i%2 == 0) {
					t.Fatalf("%s: query %d answered %v, want %v", name, i, out[i], i%2 == 0)
				}
			}
			if res.Workers != wantWorkers {
				t.Errorf("%s: Workers = %d, want %d", name, res.Workers, wantWorkers)
			}
			if res.Merged != tgt.merged.Load() || res.CASRetries != tgt.retries.Load() {
				t.Errorf("%s: Merged, CASRetries = %d, %d; the spans reported %d, %d",
					name, res.Merged, res.CASRetries, tgt.merged.Load(), tgt.retries.Load())
			}
			if !query && (res.Merged != evens || res.CASRetries != int64(in.m)) {
				t.Errorf("%s: Merged, CASRetries = %d, %d; want %d, %d (one merge per even index, one retry per unite)",
					name, res.Merged, res.CASRetries, evens, in.m)
			}
			if got := res.Stats().Ops; got != int64(in.m) {
				t.Errorf("%s: Stats().Ops = %d, want %d (one per delivered edge)", name, got, in.m)
			}
			if cfg.Trace == nil {
				continue
			}
			if len(res.PerWorker) != res.Workers {
				t.Errorf("%s: %d per-worker records for %d workers", name, len(res.PerWorker), res.Workers)
			}
			var sum core.Stats
			for _, st := range res.PerWorker {
				sum.Add(st)
			}
			if sum != res.WorkerStats {
				t.Errorf("%s: per-worker records sum to %+v, WorkerStats = %+v", name, sum, res.WorkerStats)
			}
		}
	}
}

// TestSelfLoopsSkipFinds pins the self-loop rule every Target implements:
// a self-loop edge
// is answered without a merge, finds or shared-memory traffic, while still
// counting as a completed operation.
func TestSelfLoopsSkipFinds(t *testing.T) {
	const n, m = 50, 1000
	edges := make([]Edge, m)
	for i := range edges {
		v := uint32(i % n)
		edges[i] = Edge{X: v, Y: v}
	}
	dyn := core.NewDynamic(n, core.Config{Seed: 59})
	for i := 0; i < n; i++ {
		if _, err := dyn.MakeSet(); err != nil {
			t.Fatal(err)
		}
	}
	targets := map[string]Target{
		"core":       core.New(n, core.Config{Seed: 59}),
		"core+early": core.New(n, core.Config{Find: core.FindOneTry, EarlyTermination: true, Seed: 59}),
		"dynamic":    dyn.DSU,
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
	if res := UniteAll(d, nil, Config{Workers: 4}); res.Merged != 0 || len(res.PerWorker) != 0 || res.Workers != 0 {
		t.Errorf("empty batch: got %+v", res)
	}
	// A one-edge batch fits in one grain, whatever the pool size asked
	// for: it runs on the caller as one worker, and its accounting reads
	// as a pool run's would.
	rec := tracespan.New(tracespan.Config{})
	for _, workers := range []int{0, 1, 2, 4, 16} {
		d := core.New(8, core.Config{})
		cfg := Config{Workers: workers, Trace: rec.Start(tracespan.OpUnite, tracespan.SourceBlocking)}
		res := UniteAll(d, []Edge{{X: 0, Y: 1}}, cfg)
		if res.Workers != 1 {
			t.Errorf("workers=%d: one-edge batch resolved %d workers, want 1", workers, res.Workers)
		}
		if res.Merged != 1 || res.CASRetries != 0 {
			t.Errorf("workers=%d: one-edge batch Merged, CASRetries = %d, %d; want 1, 0", workers, res.Merged, res.CASRetries)
		}
		if st := res.Stats(); st.Ops != 1 || st.Links != 1 || st.Finds != 2 {
			t.Errorf("workers=%d: one-edge batch Stats ops=%d links=%d finds=%d, want 1, 1, 2", workers, st.Ops, st.Links, st.Finds)
		}
		if len(res.PerWorker) != 1 || res.PerWorker[0] != res.WorkerStats {
			t.Errorf("workers=%d: traced one-edge batch kept %d per-worker records, want 1 equal to WorkerStats", workers, len(res.PerWorker))
		}
		out, qres := SameSetAll(d, []Edge{{X: 0, Y: 1}, {X: 0, Y: 2}}, Config{Workers: workers})
		if !out[0] || out[1] {
			t.Errorf("workers=%d: tiny SameSetAll = %v, want [true false]", workers, out)
		}
		if qres.Workers != 1 || qres.Stats().Ops != 2 || qres.PerWorker != nil {
			t.Errorf("workers=%d: untraced tiny SameSetAll: Workers=%d ops=%d PerWorker=%v; want 1, 2, nil",
				workers, qres.Workers, qres.Stats().Ops, qres.PerWorker)
		}
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

// TestResultStatsAggregation pins Result.Stats as the pool's sum: every
// pair of the batch counts as one operation, and on a traced batch, whose
// per-worker breakdown the engine keeps, the workers' counters sum to it
// exactly.
func TestResultStatsAggregation(t *testing.T) {
	const n = 1024
	d := core.New(n, core.Config{Seed: 13})
	edges := FromOps(workload.RandomUnions(n, 4*n, 17))
	tr := tracespan.New(tracespan.Config{}).Start("unite", tracespan.SourceBlocking)
	res := UniteAll(d, edges, Config{Workers: 2, Grain: 64, Seed: 3, Trace: tr})

	if got := res.Stats(); got != res.WorkerStats {
		t.Errorf("Stats() = %+v, want the pool's WorkerStats %+v", got, res.WorkerStats)
	}
	if res.Stats().Ops != int64(len(edges)) {
		t.Errorf("Stats().Ops = %d, batch has %d edges", res.Stats().Ops, len(edges))
	}
	if len(res.PerWorker) != res.Workers || res.Workers != 2 {
		t.Fatalf("traced batch kept %d per-worker records for %d workers, want 2", len(res.PerWorker), res.Workers)
	}
	var manual core.Stats
	for _, w := range res.PerWorker {
		manual.Add(w)
	}
	if manual != res.Stats() {
		t.Errorf("Σ PerWorker = %+v, Stats() %+v", manual, res.Stats())
	}
}
