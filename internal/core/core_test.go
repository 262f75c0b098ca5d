package core

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/randutil"
	"repro/internal/seqdsu"
)

// allConfigs enumerates every legal variant combination.
func allConfigs() []Config {
	finds := []Find{FindNaive, FindOneTry, FindTwoTry, FindHalving, FindCompress}
	var cfgs []Config
	for _, f := range finds {
		cfgs = append(cfgs, Config{Find: f, Seed: 12345})
	}
	for _, f := range []Find{FindNaive, FindOneTry, FindTwoTry} {
		cfgs = append(cfgs, Config{Find: f, EarlyTermination: true, Seed: 12345})
	}
	return cfgs
}

func configName(c Config) string {
	name := c.Find.String()
	if c.EarlyTermination {
		name += "+early"
	}
	return name
}

func forEachConfig(t *testing.T, f func(t *testing.T, cfg Config)) {
	t.Helper()
	for _, cfg := range allConfigs() {
		cfg := cfg
		t.Run(configName(cfg), func(t *testing.T) { f(t, cfg) })
	}
}

func TestSingletonsInitially(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		d := New(8, cfg)
		if d.Sets() != 8 {
			t.Fatalf("Sets = %d, want 8", d.Sets())
		}
		for i := uint32(0); i < 8; i++ {
			if d.Find(i) != i {
				t.Errorf("Find(%d) = %d before unions", i, d.Find(i))
			}
		}
		if d.SameSet(0, 7) {
			t.Error("SameSet(0,7) true before unions")
		}
		if !d.SameSet(3, 3) {
			t.Error("SameSet(3,3) false")
		}
	})
}

func TestSequentialSemanticsMatchSpec(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		const n, ops = 120, 400
		rng := randutil.NewXoshiro256(7)
		d := New(n, cfg)
		s := seqdsu.NewSpec(n)
		for i := 0; i < ops; i++ {
			x, y := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			if rng.Intn(2) == 0 {
				if got, want := d.Unite(x, y), s.Unite(x, y); got != want {
					t.Fatalf("op %d: Unite(%d,%d) = %v, spec %v", i, x, y, got, want)
				}
			} else if got, want := d.SameSet(x, y), s.SameSet(x, y); got != want {
				t.Fatalf("op %d: SameSet(%d,%d) = %v, spec %v", i, x, y, got, want)
			}
		}
		labels := d.CanonicalLabels()
		for i, want := range s.Labels() {
			if labels[i] != want {
				t.Fatalf("final partition differs at %d", i)
			}
		}
	})
}

// TestSequentialQuick drives every variant against the spec with
// quick-checked random seeds.
func TestSequentialQuick(t *testing.T) {
	for _, cfg := range allConfigs() {
		cfg := cfg
		t.Run(configName(cfg), func(t *testing.T) {
			check := func(seed uint64) bool {
				rng := randutil.NewXoshiro256(seed)
				const n = 24
				cfg := cfg
				cfg.Seed = seed
				d := New(n, cfg)
				s := seqdsu.NewSpec(n)
				for i := 0; i < 80; i++ {
					x, y := uint32(rng.Intn(n)), uint32(rng.Intn(n))
					if rng.Intn(3) == 0 {
						if d.Unite(x, y) != s.Unite(x, y) {
							return false
						}
					} else if d.SameSet(x, y) != s.SameSet(x, y) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentPartitionMatchesClosure: the final partition after a set of
// concurrent Unites must equal the connectivity closure of the union pairs,
// regardless of interleaving — final-state correctness at scale, under the
// race detector when enabled.
func TestConcurrentPartitionMatchesClosure(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		const n, pairs, workers = 2000, 3000, 8
		rng := randutil.NewXoshiro256(99)
		xs := make([]uint32, pairs)
		ys := make([]uint32, pairs)
		spec := seqdsu.New(n, seqdsu.LinkSize, seqdsu.CompactCompression, 0)
		for i := range xs {
			xs[i], ys[i] = uint32(rng.Intn(n)), uint32(rng.Intn(n))
			spec.Unite(xs[i], ys[i])
		}
		d := New(n, cfg)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < pairs; i += workers {
					d.Unite(xs[i], ys[i])
				}
			}(w)
		}
		wg.Wait()
		want := spec.CanonicalLabels()
		got := d.CanonicalLabels()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("partition differs at element %d: got %d want %d", i, got[i], want[i])
			}
		}
		if d.Sets() != spec.Sets() {
			t.Fatalf("Sets = %d, want %d", d.Sets(), spec.Sets())
		}
	})
}

// TestConcurrentMixedOps checks SameSet answers stay consistent under
// concurrency: a false SameSet(x,y) must never be observed after any worker
// has seen it true (set membership only grows).
func TestConcurrentMixedOps(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		const n, workers, perWorker = 512, 8, 4000
		d := New(n, cfg)
		// Workers repeatedly unite within blocks and verify that pairs they
		// personally united stay united.
		var wg sync.WaitGroup
		errCh := make(chan string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := randutil.NewXoshiro256(uint64(w) + 1)
				var united [][2]uint32
				for i := 0; i < perWorker; i++ {
					x, y := uint32(rng.Intn(n)), uint32(rng.Intn(n))
					switch rng.Intn(3) {
					case 0:
						d.Unite(x, y)
						united = append(united, [2]uint32{x, y})
					case 1:
						d.SameSet(x, y)
					default:
						if len(united) > 0 {
							p := united[rng.Intn(len(united))]
							if !d.SameSet(p[0], p[1]) {
								errCh <- "united pair observed separated"
								return
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errCh)
		for msg := range errCh {
			t.Fatal(msg)
		}
	})
}

// TestIDOrderInvariant verifies Lemma 3.1's order condition at quiescence:
// every non-root has id strictly below its parent's id.
func TestIDOrderInvariant(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		const n, workers = 1000, 8
		d := New(n, cfg)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := randutil.NewXoshiro256(uint64(w) * 31)
				for i := 0; i < 3000; i++ {
					d.Unite(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
				}
			}(w)
		}
		wg.Wait()
		for x := uint32(0); x < n; x++ {
			p := d.Parent(x)
			if p != x && d.ID(x) >= d.ID(p) {
				t.Fatalf("node %d (id %d) has parent %d (id %d)", x, d.ID(x), p, d.ID(p))
			}
		}
	})
}

func TestCountedMatchesUncounted(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		const n = 64
		rng := randutil.NewXoshiro256(3)
		a := New(n, cfg)
		b := New(n, cfg)
		var st Stats
		for i := 0; i < 200; i++ {
			x, y := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			if i%2 == 0 {
				if a.Unite(x, y) != b.UniteCounted(x, y, &st) {
					t.Fatalf("Unite diverged at op %d", i)
				}
			} else if a.SameSet(x, y) != b.SameSetCounted(x, y, &st) {
				t.Fatalf("SameSet diverged at op %d", i)
			}
		}
		if st.Ops != 200 {
			t.Errorf("Ops = %d, want 200", st.Ops)
		}
		if st.Reads == 0 || st.Finds == 0 && !cfg.EarlyTermination {
			t.Errorf("implausible stats: %+v", st)
		}
		if st.CASFailures > st.CASAttempts {
			t.Errorf("more CAS failures than attempts: %+v", st)
		}
	})
}

func TestLinksCountExact(t *testing.T) {
	// Spanning n elements requires exactly n−1 links no matter the variant
	// or schedule; sequentially the counted links must equal n−1.
	forEachConfig(t, func(t *testing.T, cfg Config) {
		const n = 256
		d := New(n, cfg)
		var st Stats
		for i := uint32(0); i+1 < n; i++ {
			d.UniteCounted(i, i+1, &st)
		}
		if st.Links != n-1 {
			t.Fatalf("Links = %d, want %d", st.Links, n-1)
		}
		if d.Sets() != 1 {
			t.Fatalf("Sets = %d, want 1", d.Sets())
		}
	})
}

func TestConcurrentLinksSumToExactCount(t *testing.T) {
	// Concurrent workers united a spanning workload: total successful links
	// across workers must be exactly n − #components, because each link
	// reduces the set count by one and CAS ensures no double-counting.
	forEachConfig(t, func(t *testing.T, cfg Config) {
		const n, workers = 1024, 8
		d := New(n, cfg)
		stats := make([]Stats, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := randutil.NewXoshiro256(uint64(w) + 77)
				for i := 0; i < 2000; i++ {
					d.UniteCounted(uint32(rng.Intn(n)), uint32(rng.Intn(n)), &stats[w])
				}
			}(w)
		}
		wg.Wait()
		var total Stats
		for i := range stats {
			total.Add(stats[i])
		}
		wantLinks := int64(n - d.Sets())
		if total.Links != wantLinks {
			t.Fatalf("links = %d, want %d", total.Links, wantLinks)
		}
	})
}

func TestStatsAddAndWork(t *testing.T) {
	a := Stats{Reads: 1, CASAttempts: 2, CASFailures: 1, FindSteps: 3, Rounds: 1, Finds: 2, Links: 1, Ops: 1}
	b := a
	a.Add(b)
	if a.Reads != 2 || a.CASAttempts != 4 || a.Ops != 2 {
		t.Errorf("Add wrong: %+v", a)
	}
	if a.Work() != 6 {
		t.Errorf("Work = %d, want 6", a.Work())
	}
}

func TestNewPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"negative", func() { New(-1, Config{}) }},
		{"over 2^31-1", func() { New(1<<31, Config{}) }},
		{"dynamic negative", func() { NewDynamic(-1, Config{}) }},
		{"dynamic over 2^31-1", func() { NewDynamic(1<<31, Config{}) }},
		{"bad find", func() { New(1, Config{Find: Find(42)}) }},
		{"early+halving", func() { New(1, Config{Find: FindHalving, EarlyTermination: true}) }},
		{"early+compress", func() { New(1, Config{Find: FindCompress, EarlyTermination: true}) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func TestDefaultConfigIsTwoTry(t *testing.T) {
	d := New(4, Config{})
	if d.Config().Find != FindTwoTry {
		t.Fatalf("default find = %v, want twotry", d.Config().Find)
	}
}

func TestFindStringNames(t *testing.T) {
	want := map[Find]string{
		FindNaive: "naive", FindOneTry: "onetry", FindTwoTry: "twotry",
		FindHalving: "halving", FindCompress: "compress", Find(9): "Find(9)",
	}
	for f, name := range want {
		if f.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(f), f.String(), name)
		}
	}
}

func TestSnapshotQuiescent(t *testing.T) {
	d := New(10, Config{Seed: 4})
	d.Unite(1, 2)
	d.Unite(3, 4)
	snap := d.Snapshot()
	if len(snap) != 10 {
		t.Fatalf("snapshot length %d", len(snap))
	}
	for x, p := range snap {
		if p != d.Parent(uint32(x)) {
			t.Fatalf("snapshot[%d] = %d, Parent = %d", x, p, d.Parent(uint32(x)))
		}
	}
}

// TestPutParentsMatchesSnapshot: the bulk read is Snapshot's words,
// big-endian, from any starting element.
func TestPutParentsMatchesSnapshot(t *testing.T) {
	d := New(10, Config{Seed: 4})
	d.Unite(1, 2)
	d.Unite(3, 4)
	d.Unite(2, 9)
	snap := d.Snapshot()
	for from := 0; from <= len(snap); from++ {
		dst := make([]byte, 4*(len(snap)-from))
		d.PutParents(dst, from)
		for i := range dst[:len(dst)/4] {
			if got := binary.BigEndian.Uint32(dst[4*i:]); got != snap[from+i] {
				t.Fatalf("PutParents(_, %d) word %d = %d, Snapshot has %d", from, i, got, snap[from+i])
			}
		}
	}
}

// TestAtomicWordLayout pins what build's view of a []uint32 as a
// []atomic.Uint32 relies on: the two element types share size and
// alignment.
func TestAtomicWordLayout(t *testing.T) {
	var a atomic.Uint32
	var w uint32
	if unsafe.Sizeof(a) != unsafe.Sizeof(w) || unsafe.Alignof(a) != unsafe.Alignof(w) {
		t.Fatalf("atomic.Uint32 has size %d and alignment %d, uint32 %d and %d",
			unsafe.Sizeof(a), unsafe.Alignof(a), unsafe.Sizeof(w), unsafe.Alignof(w))
	}
}

// TestEdgeLayout pins the Edge layout the amd64 prefetch reads
// (prefetch_amd64.s): eight bytes, X at offset 0 and Y at offset 4.
func TestEdgeLayout(t *testing.T) {
	var e Edge
	if unsafe.Sizeof(e) != 8 || unsafe.Offsetof(e.X) != 0 || unsafe.Offsetof(e.Y) != 4 {
		t.Fatalf("Edge has size %d, X at offset %d and Y at %d; the prefetch reads 8, 0 and 4",
			unsafe.Sizeof(e), unsafe.Offsetof(e.X), unsafe.Offsetof(e.Y))
	}
}

func TestCompactionActuallyShortensPaths(t *testing.T) {
	// After many sequential operations through a splitting find, re-finding
	// the same deep element must cost fewer steps than the first time.
	for _, f := range []Find{FindOneTry, FindTwoTry, FindHalving, FindCompress} {
		t.Run(f.String(), func(t *testing.T) {
			const n = 1 << 12
			d := New(n, Config{Find: FindNaive, Seed: 8})
			// Build structure with naive finds so no compaction happens yet.
			rng := randutil.NewXoshiro256(5)
			for i := 0; i < 4*n; i++ {
				d.Unite(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
			}
			// Deepest node under the naive forest.
			parent := d.Snapshot()
			deep, bestDepth := uint32(0), -1
			for x := range parent {
				depth, u := 0, uint32(x)
				for parent[u] != u {
					u = parent[u]
					depth++
				}
				if depth > bestDepth {
					deep, bestDepth = uint32(x), depth
				}
			}
			if bestDepth < 3 {
				t.Skipf("forest too shallow (depth %d) to observe compaction", bestDepth)
			}
			// Re-run finds through a compacting view sharing the same array:
			// construct by copying state.
			c := New(n, Config{Find: f, Seed: 8})
			for x := uint32(0); x < n; x++ {
				c.parent[x].Store(parent[x])
			}
			var first, second Stats
			c.FindCounted(deep, &first)
			c.FindCounted(deep, &second)
			if second.FindSteps >= first.FindSteps {
				t.Errorf("find steps did not shrink: first %d, second %d", first.FindSteps, second.FindSteps)
			}
		})
	}
}
