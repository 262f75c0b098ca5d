package core

import (
	"sync"
	"testing"

	"repro/internal/randutil"
	"repro/internal/seqdsu"
	"repro/internal/workload"
)

// TestHotPathsAllocationFree: Find, SameSet, and Unite must not allocate —
// wait-freedom in practice also means no hidden GC traffic per operation.
func TestHotPathsAllocationFree(t *testing.T) {
	for _, cfg := range allConfigs() {
		cfg := cfg
		t.Run(configName(cfg), func(t *testing.T) {
			const n = 1024
			d := New(n, cfg)
			rng := randutil.NewXoshiro256(1)
			var st Stats
			// Longer than one kernel group, so the second group runs too.
			span := make([]Edge, spanGroup+3)
			out := make([]bool, len(span))
			if allocs := testing.AllocsPerRun(200, func() {
				x, y := uint32(rng.Intn(n)), uint32(rng.Intn(n))
				d.Unite(x, y)
				d.SameSet(x, y)
				d.Find(x)
				d.UniteCounted(x, y, &st)
				d.SameSetCounted(x, y, &st)
				for i := range span {
					span[i] = Edge{X: uint32(rng.Intn(n)), Y: uint32(rng.Intn(n))}
				}
				d.UniteSpan(span, &st)
				d.SameSetSpan(span, out, &st)
			}); allocs > 0 {
				t.Fatalf("hot path allocates %.1f objects per run", allocs)
			}
		})
	}
}

func TestDynamicHotPathsAllocationFree(t *testing.T) {
	const n = 1024
	d := NewDynamic(n, Config{Seed: 1})
	for i := 0; i < n; i++ {
		if _, err := d.MakeSet(); err != nil {
			t.Fatal(err)
		}
	}
	rng := randutil.NewXoshiro256(2)
	var st Stats
	span := make([]Edge, 8)
	out := make([]bool, len(span))
	if allocs := testing.AllocsPerRun(200, func() {
		x, y := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		d.Unite(x, y)
		d.SameSet(x, y)
		d.Find(x)
		for i := range span {
			span[i] = Edge{X: uint32(rng.Intn(n)), Y: uint32(rng.Intn(n))}
		}
		d.UniteSpan(span, &st)
		d.SameSetSpan(span, out, &st)
	}); allocs > 0 {
		t.Fatalf("dynamic hot path allocates %.1f objects per run", allocs)
	}
}

// TestHotSpotContention drives all workers at a tiny hot set — maximal CAS
// contention on intersecting paths — and validates the final partition and
// the monotonicity of membership under every variant.
func TestHotSpotContention(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		const n, hot, workers, per = 4096, 8, 8, 5000
		d := New(n, cfg)
		spec := seqdsu.New(n, seqdsu.LinkSize, seqdsu.CompactCompression, 0)
		ops := workload.ZipfMixed(n, workers*per, 0.5, 1.5, 77)
		// Pre-compute the union closure for the final check.
		for _, op := range ops {
			if op.Kind == workload.OpUnite {
				spec.Unite(op.X, op.Y)
			}
		}
		perProc := workload.SplitRoundRobin(ops, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, op := range perProc[w] {
					switch op.Kind {
					case workload.OpUnite:
						d.Unite(op.X, op.Y)
					case workload.OpSameSet:
						d.SameSet(op.X, op.Y)
					}
				}
			}(w)
		}
		wg.Wait()
		want := spec.CanonicalLabels()
		got := d.CanonicalLabels()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("hot-spot partition differs at %d", i)
			}
		}
		// All-to-one stress on a single element pair set.
		d2 := New(hot, cfg)
		var wg2 sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg2.Add(1)
			go func(w int) {
				defer wg2.Done()
				for i := 0; i < per; i++ {
					d2.Unite(uint32(i%hot), uint32((i+w)%hot))
				}
			}(w)
		}
		wg2.Wait()
		if d2.Sets() != 1 {
			t.Fatalf("hot full-mesh left %d sets", d2.Sets())
		}
	})
}

// TestFindStability: at quiescence, Find is stable (same root twice) and
// consistent with SameSet for every variant, even though compaction mutates
// parents.
func TestFindStability(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		const n = 512
		d := New(n, cfg)
		rng := randutil.NewXoshiro256(5)
		for i := 0; i < 2*n; i++ {
			d.Unite(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		for x := uint32(0); x < n; x++ {
			r1 := d.Find(x)
			r2 := d.Find(x)
			if r1 != r2 {
				t.Fatalf("Find(%d) unstable at quiescence: %d then %d", x, r1, r2)
			}
			if d.Parent(r1) != r1 {
				t.Fatalf("Find(%d) = %d is not a root", x, r1)
			}
			if !d.SameSet(x, r1) {
				t.Fatalf("element %d not in same set as its root", x)
			}
		}
	})
}
