package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/forest"
	"repro/internal/workload"
)

// TestOrderPermutation: for every size the Feistel network's word width
// treats differently — empty, one bit, a full word (2ᵏ), one short of it,
// one past it (the longest cycle walks) and a prime — ID is a permutation
// of 0..n−1, and it depends on the seed.
func TestOrderPermutation(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 1<<10 - 1, 1 << 10, 1<<10 + 1, 1<<16 + 1, 65521} {
		for _, seed := range []uint64{0, 1, 0x6a79616e7469} {
			d := New(n, Config{Seed: seed})
			seen := make([]bool, n)
			for x := 0; x < n; x++ {
				id := d.ID(uint32(x))
				if int(id) >= n || seen[id] {
					t.Fatalf("n=%d seed=%d: ID(%d) = %d repeats or leaves [0, n)", n, seed, x, id)
				}
				seen[id] = true
			}
		}
		if n < 1<<10 {
			continue
		}
		a, b := New(n, Config{Seed: 1}), New(n, Config{Seed: 2})
		same := 0
		for x := uint32(0); int(x) < n; x++ {
			if a.ID(x) == b.ID(x) {
				same++
			}
		}
		if same > n/64 {
			t.Errorf("n=%d: seeds 1 and 2 agree on %d of %d ids", n, same, n)
		}
	}
}

// TestIDOutOfRangePanics: an element outside the structure has no place
// in the order, and ID panics on it as an index past the parent array
// does, where the cycle walk alone would never return.
func TestIDOutOfRangePanics(t *testing.T) {
	for _, c := range []struct {
		d *DSU
		x uint32
	}{
		{New(10, Config{}), 10},
		{New(10, Config{}), 100},
		{New(0, Config{}), 0},
		{New(1<<10, Config{}), 1<<32 - 1},
		{NewDynamic(10, Config{}).DSU, 10},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d: ID(%d) did not panic", len(c.d.parent), c.x)
				}
			}()
			c.d.ID(c.x)
		}()
	}
}

// orderBand is the spread of one order-quality metric over seeds 1–10
// under the order the structure stored before it was computed (a
// Fisher–Yates shuffle of 0..n−1 drawn from the seed by xoshiro256**).
type orderBand struct {
	name   string
	lo, hi float64 // that order's least and greatest run
	run    func(seed uint64) float64
}

// The bands hold the stored order's ten runs, seeds 1–10 in order:
//
//	chain:   0.9375 0.5000 1.2500 0.3750 0.8750 0.6250 0.7500 0.6875 0.8125 0.6875
//	grid:    1.1250 0.5625 1.0625 0.5625 0.9375 0.8125 0.8750 0.5000 0.6250 0.7500
//	columns: 0.7500 0.7500 0.7500 0.8125 0.8750 0.6875 0.7500 0.6250 0.8125 0.6875
//	work:    5.2889 5.2745 5.7876 5.4409 5.7471 5.9606 5.2303 5.2571 5.2306 5.7385
var orderBands = []orderBand{
	{"chain height/lg n", 0.375, 1.25, orderChainHeight},
	{"grid height/lg n", 0.5, 1.125, orderGridHeight},
	{"columns height/lg n", 0.625, 0.875, orderColumnsHeight},
	{"two-try work/m", 5.2303, 5.9606, orderTwoTryWork},
}

// TestOrderQuality judges the random order by what the paper's bounds
// need from it, over ten seeds: forests the operations cannot correlate
// with the order stay O(log n) high and two-try splitting's work stays in
// the stored order's band. The median of the ten runs must lie inside
// the stored order's range, and no run may reach twice its top: an order
// that correlates with the element indices builds chains hundreds of
// times higher, as the id-sorted chain below shows.
func TestOrderQuality(t *testing.T) {
	for _, b := range orderBands {
		runs := make([]float64, 10)
		for i := range runs {
			runs[i] = b.run(uint64(i) + 1)
		}
		sorted := append([]float64(nil), runs...)
		sort.Float64s(sorted)
		median := (sorted[4] + sorted[5]) / 2
		desc := fmt.Sprintf("%s: runs %.4f, median %.4f, stored order's band [%.4f, %.4f]", b.name, runs, median, b.lo, b.hi)
		if median < b.lo || median > b.hi || sorted[9] >= 2*b.hi {
			t.Error(desc)
		} else {
			t.Log(desc)
		}
	}
}

// TestOrderSortedChainIsLinear is E11's adversarial row: unites in
// increasing id order link each new element above the previous root, so
// the forest is one path of n nodes whatever the seed.
func TestOrderSortedChainIsLinear(t *testing.T) {
	const n = 1 << 12
	for _, seed := range []uint64{1, 2, 3} {
		d := New(n, Config{Find: FindNaive, Seed: seed})
		byID := make([]uint32, n)
		for x := uint32(0); x < n; x++ {
			byID[d.ID(x)] = x
		}
		for i := 0; i+1 < n; i++ {
			d.Unite(byID[i], byID[i+1])
		}
		if h := forest.Height(d.Snapshot()); h != n-1 {
			t.Fatalf("seed %d: id-sorted chain height %d, want %d", seed, h, n-1)
		}
	}
}

// orderChainHeight unites consecutive indices, E11's "independent" row at
// n = 2¹⁶, and returns the union forest's height over lg n.
func orderChainHeight(seed uint64) float64 {
	const n = 1 << 16
	d := New(n, Config{Find: FindNaive, Seed: seed})
	for x := uint32(0); x+1 < n; x++ {
		d.Unite(x, x+1)
	}
	return float64(forest.Height(d.Snapshot())) / 16
}

// orderGridHeight unites every cell of a 256×256 grid, row by row, with
// its right and lower neighbours, and returns the union forest's height
// over lg n.
func orderGridHeight(seed uint64) float64 {
	const side = 256
	d := New(side*side, Config{Find: FindNaive, Seed: seed})
	for x := uint32(0); x < side*side; x++ {
		if x%side+1 < side {
			d.Unite(x, x+1)
		}
		if x+side < side*side {
			d.Unite(x, x+side)
		}
	}
	return float64(forest.Height(d.Snapshot())) / 16
}

// orderColumnsHeight unites every cell of a 256×256 grid with its lower
// neighbour only, so each column is a chain of 256 elements, and returns
// the union forest's height over lg n. At n = 2¹⁶ the elements of a column
// share the low half of the order's Feistel word: a two-round network
// orders them by their high half XOR one constant, and its tallest column
// links into a path of 256 nodes, a run near 16.
func orderColumnsHeight(seed uint64) float64 {
	const side = 256
	d := New(side*side, Config{Find: FindNaive, Seed: seed})
	for x := uint32(0); x+side < side*side; x++ {
		d.Unite(x, x+side)
	}
	return float64(forest.Height(d.Snapshot())) / 16
}

// orderTwoTryWork runs m = 4n uniform operations, half unites, at n = 2¹⁶
// on one process under two-try splitting, and returns work per operation.
// The operations are fixed; only the order's seed varies.
func orderTwoTryWork(seed uint64) float64 {
	const n = 1 << 16
	ops := workload.Mixed(n, 4*n, 0.5, 2)
	d := New(n, Config{Find: FindTwoTry, Seed: seed})
	var st Stats
	for _, op := range ops {
		if op.Kind == workload.OpUnite {
			d.UniteCounted(op.X, op.Y, &st)
		} else {
			d.SameSetCounted(op.X, op.Y, &st)
		}
	}
	return float64(st.Work()) / float64(len(ops))
}
