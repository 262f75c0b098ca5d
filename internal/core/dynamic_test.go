package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/randutil"
	"repro/internal/seqdsu"
)

func TestDynamicMakeSetSequence(t *testing.T) {
	d := NewDynamic(4, Config{Seed: 1})
	if d.N() != 0 || d.Cap() != 4 {
		t.Fatalf("fresh: Len=%d Cap=%d", d.N(), d.Cap())
	}
	var els []uint32
	for i := 0; i < 4; i++ {
		e, err := d.MakeSet()
		if err != nil {
			t.Fatalf("MakeSet %d: %v", i, err)
		}
		els = append(els, e)
	}
	if _, err := d.MakeSet(); !errors.Is(err, ErrFull) {
		t.Fatalf("expected ErrFull, got %v", err)
	}
	if d.N() != 4 {
		t.Fatalf("Len = %d after overflow attempt, want 4", d.N())
	}
	// Every find-variant view shares the count MakeSet advances.
	for f := FindNaive; f <= FindCompress; f++ {
		if v := d.WithFind(f); v.N() != 4 || len(v.CanonicalLabels()) != 4 {
			t.Fatalf("%v view: N = %d, want 4", f, v.N())
		}
	}
	for i, e := range els {
		if d.Find(e) != e {
			t.Errorf("element %d not a singleton root", i)
		}
	}
}

func TestDynamicSemanticsMatchSpec(t *testing.T) {
	const n = 100
	d := NewDynamic(n, Config{Seed: 42})
	s := seqdsu.NewSpec(n)
	for i := 0; i < n; i++ {
		if _, err := d.MakeSet(); err != nil {
			t.Fatal(err)
		}
	}
	rng := randutil.NewXoshiro256(9)
	for i := 0; i < 500; i++ {
		x, y := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if rng.Intn(2) == 0 {
			if d.Unite(x, y) != s.Unite(x, y) {
				t.Fatalf("Unite diverged at op %d", i)
			}
		} else if d.SameSet(x, y) != s.SameSet(x, y) {
			t.Fatalf("SameSet diverged at op %d", i)
		}
	}
	labels := d.CanonicalLabels()
	for i, want := range s.Labels() {
		if labels[i] != want {
			t.Fatalf("partition differs at %d", i)
		}
	}
}

func TestDynamicPriorityOrderInvariant(t *testing.T) {
	const n = 500
	d := NewDynamic(n, Config{Seed: 5})
	for i := 0; i < n; i++ {
		if _, err := d.MakeSet(); err != nil {
			t.Fatal(err)
		}
	}
	rng := randutil.NewXoshiro256(6)
	for i := 0; i < 2000; i++ {
		d.Unite(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	for x := uint32(0); x < n; x++ {
		p := d.Parent(x)
		if p != x && !d.less(x, p) {
			t.Fatalf("node %d not below its parent %d in the linking order", x, p)
		}
	}
}

// TestDynamicConcurrentGrowthAndUnions exercises the lock-free mixed mode:
// some workers create elements while others unite the ones that exist.
func TestDynamicConcurrentGrowthAndUnions(t *testing.T) {
	const capacity, makers, uniters = 20000, 4, 4
	d := NewDynamic(capacity, Config{Seed: 7})
	var wg sync.WaitGroup
	created := make([][]uint32, makers)
	for w := 0; w < makers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < capacity/makers; i++ {
				e, err := d.MakeSet()
				if err != nil {
					return
				}
				created[w] = append(created[w], e)
			}
		}(w)
	}
	for w := 0; w < uniters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := randutil.NewXoshiro256(uint64(w) + 100)
			for i := 0; i < 5000; i++ {
				n := uint32(d.N())
				if n < 2 {
					continue
				}
				d.Unite(uint32(rng.Uint64n(uint64(n))), uint32(rng.Uint64n(uint64(n))))
			}
		}(w)
	}
	wg.Wait()
	// All elements were created exactly once.
	seen := make(map[uint32]bool, capacity)
	for _, list := range created {
		for _, e := range list {
			if seen[e] {
				t.Fatalf("element %d returned twice by MakeSet", e)
			}
			seen[e] = true
		}
	}
	if len(seen) != capacity {
		t.Fatalf("created %d elements, want %d", len(seen), capacity)
	}
	// Priority order invariant holds at quiescence.
	for x := uint32(0); x < capacity; x++ {
		p := d.Parent(x)
		if p != x && !d.less(x, p) {
			t.Fatalf("order violated: %d under %d", x, p)
		}
	}
}

func TestDynamicCountedStats(t *testing.T) {
	d := NewDynamic(16, Config{Seed: 3})
	for i := 0; i < 16; i++ {
		if _, err := d.MakeSet(); err != nil {
			t.Fatal(err)
		}
	}
	var st Stats
	for i := uint32(0); i < 15; i++ {
		d.UniteCounted(i, i+1, &st)
	}
	if st.Links != 15 {
		t.Errorf("Links = %d, want 15", st.Links)
	}
	if !d.SameSetCounted(0, 15, &st) {
		t.Error("0 and 15 should be united")
	}
	if st.Ops != 16 {
		t.Errorf("Ops = %d, want 16", st.Ops)
	}
}

func TestDynamicPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative capacity")
		}
	}()
	NewDynamic(-1, Config{})
}

func TestDynamicZeroCapacity(t *testing.T) {
	d := NewDynamic(0, Config{})
	if _, err := d.MakeSet(); !errors.Is(err, ErrFull) {
		t.Fatalf("expected ErrFull on zero-capacity MakeSet, got %v", err)
	}
}
