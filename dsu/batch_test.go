package dsu_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/dsu"
	"repro/internal/engine"
	"repro/internal/seqdsu"
	"repro/internal/workload"
)

// randomEdges generates a batch of m uniformly random element pairs.
func randomEdges(n, m int, seed uint64) []dsu.Edge {
	return engine.FromOps(workload.RandomUnions(n, m, seed))
}

// TestUniteAllMatchesSequentialBaseline validates the batched path against
// the classical sequential structure: identical partition, identical merge
// count, for several pool sizes. CI runs this under -race.
func TestUniteAllMatchesSequentialBaseline(t *testing.T) {
	const n = 5000
	edges := randomEdges(n, 4*n, 71)

	ref := seqdsu.New(n, seqdsu.LinkRank, seqdsu.CompactHalving, 1)
	wantMerges := 0
	for _, e := range edges {
		if ref.Unite(e.X, e.Y) {
			wantMerges++
		}
	}
	want := ref.CanonicalLabels()

	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			d := dsu.New(n, dsu.WithSeed(9))
			merged := d.UniteAll(edges, dsu.BatchOptions{Workers: workers, Grain: 64})
			if merged != wantMerges {
				t.Errorf("UniteAll merged %d edges, want %d", merged, wantMerges)
			}
			got := d.CanonicalLabels()
			for x := range got {
				if got[x] != want[x] {
					t.Fatalf("label[%d] = %d, want %d", x, got[x], want[x])
				}
			}
		})
	}
}

func TestSameSetAllMatchesSequentialBaseline(t *testing.T) {
	const n = 5000
	unions := randomEdges(n, n, 73)
	queries := randomEdges(n, 2*n, 79)

	ref := seqdsu.New(n, seqdsu.LinkRank, seqdsu.CompactHalving, 1)
	for _, e := range unions {
		ref.Unite(e.X, e.Y)
	}

	d := dsu.New(n, dsu.WithSeed(11))
	d.UniteAll(unions, dsu.BatchOptions{Workers: 4})
	got := d.SameSetAll(queries, dsu.BatchOptions{Workers: 4, Grain: 32})
	for i, q := range queries {
		if want := ref.SameSet(q.X, q.Y); got[i] != want {
			t.Errorf("query %d (%d,%d): got %v, want %v", i, q.X, q.Y, got[i], want)
		}
	}
}

// TestBatchCounted checks the counted twins account for every operation in
// the batch.
func TestBatchCounted(t *testing.T) {
	const n = 2000
	edges := randomEdges(n, 2*n, 83)
	d := dsu.New(n)
	var st dsu.Stats
	d.UniteAllCounted(edges, &st, dsu.BatchOptions{Workers: 3})
	if st.Ops != int64(len(edges)) {
		t.Errorf("UniteAllCounted ops = %d, want %d", st.Ops, len(edges))
	}
	before := st.Ops
	d.SameSetAllCounted(edges, &st, dsu.BatchOptions{Workers: 3})
	if st.Ops-before != int64(len(edges)) {
		t.Errorf("SameSetAllCounted ops = %d, want %d", st.Ops-before, len(edges))
	}
	if st.Work() <= 0 {
		t.Error("counted batch reported no work")
	}
}

// TestBatchConcurrentWithPointOps runs UniteAll concurrently with ordinary
// Unites and checks the union of both edge sets is what lands. Exercised
// under -race in CI.
func TestBatchConcurrentWithPointOps(t *testing.T) {
	const n = 4000
	batch := randomEdges(n, 2*n, 89)
	extra := randomEdges(n, n, 97)

	d := dsu.New(n, dsu.WithSeed(13))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, e := range extra {
			d.Unite(e.X, e.Y)
		}
	}()
	d.UniteAll(batch, dsu.BatchOptions{Workers: 4})
	<-done

	ref := seqdsu.New(n, seqdsu.LinkRank, seqdsu.CompactHalving, 1)
	for _, e := range append(append([]dsu.Edge(nil), batch...), extra...) {
		ref.Unite(e.X, e.Y)
	}
	want := ref.CanonicalLabels()
	got := d.CanonicalLabels()
	for x := range got {
		if got[x] != want[x] {
			t.Fatalf("label[%d] = %d, want %d", x, got[x], want[x])
		}
	}
}

func TestDynamicBatch(t *testing.T) {
	const n = 1000
	d := dsu.NewDynamic(n, dsu.WithSeed(17))
	for i := 0; i < n; i++ {
		if _, err := d.MakeSet(); err != nil {
			t.Fatal(err)
		}
	}
	edges := randomEdges(n, 2*n, 101)
	ref := seqdsu.New(n, seqdsu.LinkRank, seqdsu.CompactHalving, 1)
	wantMerges := 0
	for _, e := range edges {
		if ref.Unite(e.X, e.Y) {
			wantMerges++
		}
	}
	if merged := d.UniteAll(edges, dsu.BatchOptions{Workers: 4}); merged != wantMerges {
		t.Errorf("Dynamic.UniteAll merged %d, want %d", merged, wantMerges)
	}
	queries := randomEdges(n, n, 103)
	got := d.SameSetAll(queries, dsu.BatchOptions{Workers: 2})
	for i, q := range queries {
		if want := ref.SameSet(q.X, q.Y); got[i] != want {
			t.Errorf("query %d: got %v, want %v", i, got[i], want)
		}
	}

	// A Dynamic always finds by two-try splitting: a find override is a
	// contract violation, refused with a diagnosis before the batch runs.
	override := dsu.BatchOptions{Find: dsu.NoCompaction}
	for name, call := range map[string]func(){
		"UniteAll":   func() { d.UniteAll(edges, override) },
		"SameSetAll": func() { d.SameSetAll(queries, override) },
	} {
		func() {
			defer func() {
				err, ok := recover().(error)
				if !ok || !strings.Contains(err.Error(), "find override") {
					t.Errorf("Dynamic.%s with a find override: panic %v, want a diagnosed refusal", name, err)
				}
			}()
			call()
		}()
	}
}
