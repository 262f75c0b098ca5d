package dsu_test

import (
	"errors"
	"sync"
	"testing"

	"repro/dsu"
	"repro/internal/randutil"
	"repro/internal/seqdsu"
)

func allStrategies() []dsu.FindStrategy {
	return []dsu.FindStrategy{
		dsu.NoCompaction, dsu.OneTrySplitting, dsu.TwoTrySplitting,
		dsu.Halving, dsu.Compression,
	}
}

func TestBasicUsage(t *testing.T) {
	d := dsu.New(10)
	if d.N() != 10 {
		t.Fatalf("N = %d", d.N())
	}
	if d.SameSet(0, 1) {
		t.Fatal("fresh elements united")
	}
	if !d.Unite(0, 1) {
		t.Fatal("Unite(0,1) reported no merge")
	}
	if d.Unite(1, 0) {
		t.Fatal("repeat Unite reported a merge")
	}
	if !d.SameSet(0, 1) {
		t.Fatal("united elements report separate")
	}
	if d.Sets() != 9 {
		t.Fatalf("Sets = %d, want 9", d.Sets())
	}
	if d.Find(0) != d.Find(1) {
		t.Fatal("united elements have different roots")
	}
}

func TestOptionsSelectVariants(t *testing.T) {
	for _, f := range allStrategies() {
		t.Run(f.String(), func(t *testing.T) {
			d := dsu.New(100, dsu.WithFind(f), dsu.WithSeed(7))
			s := seqdsu.NewSpec(100)
			rng := randutil.NewXoshiro256(1)
			for i := 0; i < 300; i++ {
				x, y := uint32(rng.Intn(100)), uint32(rng.Intn(100))
				if rng.Intn(2) == 0 {
					if d.Unite(x, y) != s.Unite(x, y) {
						t.Fatalf("Unite diverged at %d", i)
					}
				} else if d.SameSet(x, y) != s.SameSet(x, y) {
					t.Fatalf("SameSet diverged at %d", i)
				}
			}
		})
	}
}

func TestEarlyTerminationOption(t *testing.T) {
	for _, f := range []dsu.FindStrategy{dsu.NoCompaction, dsu.OneTrySplitting, dsu.TwoTrySplitting} {
		d := dsu.New(50, dsu.WithFind(f), dsu.WithEarlyTermination())
		s := seqdsu.NewSpec(50)
		rng := randutil.NewXoshiro256(2)
		for i := 0; i < 200; i++ {
			x, y := uint32(rng.Intn(50)), uint32(rng.Intn(50))
			if rng.Intn(2) == 0 {
				if d.Unite(x, y) != s.Unite(x, y) {
					t.Fatalf("%v: Unite diverged at %d", f, i)
				}
			} else if d.SameSet(x, y) != s.SameSet(x, y) {
				t.Fatalf("%v: SameSet diverged at %d", f, i)
			}
		}
	}
}

func TestEarlyTerminationPanicsWithHalving(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	dsu.New(10, dsu.WithFind(dsu.Halving), dsu.WithEarlyTermination())
}

// TestSeedReproducibility: equal seeds give equal orders, different seeds
// different ones, and a structure built without WithSeed takes the stable
// default, so in-process runs repeat exactly.
func TestSeedReproducibility(t *testing.T) {
	a := dsu.New(64, dsu.WithSeed(5))
	b := dsu.New(64, dsu.WithSeed(5))
	c := dsu.New(64, dsu.WithSeed(6))
	d, e := dsu.New(64), dsu.New(64)
	sameAsA, sameAsC, sameDefault := true, true, true
	for x := uint32(0); x < 64; x++ {
		if a.ID(x) != b.ID(x) {
			sameAsA = false
		}
		if a.ID(x) != c.ID(x) {
			sameAsC = false
		}
		if d.ID(x) != e.ID(x) {
			sameDefault = false
		}
	}
	if !sameAsA || !sameDefault {
		t.Error("equal seeds produced different orders")
	}
	if sameAsC {
		t.Error("different seeds produced identical orders")
	}
}

func TestConcurrentUse(t *testing.T) {
	const n, workers, per = 4000, 8, 6000
	d := dsu.New(n)
	spec := seqdsu.New(n, seqdsu.LinkSize, seqdsu.CompactCompression, 0)
	rng := randutil.NewXoshiro256(3)
	type pair struct{ x, y uint32 }
	pairs := make([]pair, workers*per)
	for i := range pairs {
		pairs[i] = pair{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
		spec.Unite(pairs[i].x, pairs[i].y)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * per; i < (w+1)*per; i++ {
				d.Unite(pairs[i].x, pairs[i].y)
			}
		}(w)
	}
	wg.Wait()
	want := spec.CanonicalLabels()
	got := d.CanonicalLabels()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("partition differs at %d", i)
		}
	}
}

func TestCountedOps(t *testing.T) {
	d := dsu.New(100)
	var st dsu.Stats
	for i := uint32(0); i < 99; i++ {
		d.UniteCounted(i, i+1, &st)
	}
	if st.Links != 99 {
		t.Errorf("Links = %d, want 99", st.Links)
	}
	if !d.SameSetCounted(0, 99, &st) {
		t.Error("chain not connected")
	}
	if d.FindCounted(0, &st) != d.Find(0) {
		t.Error("counted find differs")
	}
	if st.Work() <= 0 {
		t.Error("Work() not positive")
	}
	var other dsu.Stats
	other.Add(st)
	if other.Work() != st.Work() {
		t.Error("Add lost work")
	}
}

func TestSnapshotAndLabels(t *testing.T) {
	d := dsu.New(6, dsu.WithSeed(1))
	d.Unite(0, 1)
	d.Unite(2, 3)
	snap := d.Snapshot()
	if len(snap) != 6 {
		t.Fatalf("snapshot len %d", len(snap))
	}
	labels := d.CanonicalLabels()
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[0] == labels[2] {
		t.Fatalf("labels = %v", labels)
	}
	if labels[4] != 4 || labels[5] != 5 {
		t.Fatalf("untouched singletons relabelled: %v", labels)
	}
}

func TestDynamicPublicAPI(t *testing.T) {
	d := dsu.NewDynamic(3, dsu.WithSeed(9))
	if d.Cap() != 3 || d.Len() != 0 {
		t.Fatalf("Cap/Len = %d/%d", d.Cap(), d.Len())
	}
	a, err := d.MakeSet()
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.MakeSet()
	if err != nil {
		t.Fatal(err)
	}
	if d.SameSet(a, b) {
		t.Fatal("fresh dynamic elements united")
	}
	if !d.Unite(a, b) {
		t.Fatal("Unite reported no merge")
	}
	if !d.SameSet(a, b) || d.Find(a) != d.Find(b) {
		t.Fatal("merge not visible")
	}
	if _, err := d.MakeSet(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.MakeSet(); !errors.Is(err, dsu.ErrFull) {
		t.Fatalf("want ErrFull, got %v", err)
	}
	labels := d.CanonicalLabels()
	if len(labels) != 3 || labels[0] != labels[1] {
		t.Fatalf("labels = %v", labels)
	}
}

func TestComponents(t *testing.T) {
	d := dsu.New(8, dsu.WithSeed(2))
	d.Unite(5, 2)
	d.Unite(2, 7)
	d.Unite(0, 1)
	comps := d.Components()
	want := [][]uint32{{0, 1}, {2, 5, 7}, {3}, {4}, {6}}
	if len(comps) != len(want) {
		t.Fatalf("components = %v, want %v", comps, want)
	}
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
		}
		for j := range want[i] {
			if comps[i][j] != want[i][j] {
				t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
			}
		}
	}
}

func TestComponentsEmptyAndSingle(t *testing.T) {
	if comps := dsu.New(0).Components(); len(comps) != 0 {
		t.Fatalf("empty DSU components = %v", comps)
	}
	comps := dsu.New(1).Components()
	if len(comps) != 1 || len(comps[0]) != 1 || comps[0][0] != 0 {
		t.Fatalf("singleton components = %v", comps)
	}
}

func TestStrategyStrings(t *testing.T) {
	want := map[dsu.FindStrategy]string{
		dsu.NoCompaction:    "naive",
		dsu.OneTrySplitting: "onetry",
		dsu.TwoTrySplitting: "twotry",
		dsu.Halving:         "halving",
		dsu.Compression:     "compress",
	}
	for f, name := range want {
		if f.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(f), f.String(), name)
		}
	}
}
