package simdsu

import (
	"testing"

	"repro/internal/apram"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/seqdsu"
	"repro/internal/workload"
)

func allConfigs() []core.Config {
	finds := []core.Find{core.FindNaive, core.FindOneTry, core.FindTwoTry, core.FindHalving, core.FindCompress}
	var cfgs []core.Config
	for _, f := range finds {
		cfgs = append(cfgs, core.Config{Find: f, Seed: 5})
	}
	for _, f := range []core.Find{core.FindNaive, core.FindOneTry, core.FindTwoTry} {
		cfgs = append(cfgs, core.Config{Find: f, EarlyTermination: true, Seed: 5})
	}
	return cfgs
}

func cfgName(c core.Config) string {
	name := c.Find.String()
	if c.EarlyTermination {
		name += "+early"
	}
	return name
}

func TestSingleProcessMatchesSpec(t *testing.T) {
	for _, cfg := range allConfigs() {
		cfg := cfg
		t.Run(cfgName(cfg), func(t *testing.T) {
			const n = 40
			s := New(n, cfg)
			ops := workload.Mixed(n, 150, 0.5, 3)
			res, err := Run(s, [][]workload.Op{ops}, Options{CheckInvariants: true})
			if err != nil {
				t.Fatal(err)
			}
			spec := seqdsu.NewSpec(n)
			for k, op := range ops {
				var want bool
				switch op.Kind {
				case workload.OpUnite:
					want = spec.Unite(op.X, op.Y)
				case workload.OpSameSet:
					want = spec.SameSet(op.X, op.Y)
				}
				if res.Answers[0][k] != want {
					t.Fatalf("op %d (%v): got %v, want %v", k, op, res.Answers[0][k], want)
				}
			}
			got := seqdsu.CanonicalizeParents(res.Parents)
			for i, want := range spec.Labels() {
				if got[i] != want {
					t.Fatalf("final partition differs at %d", i)
				}
			}
		})
	}
}

func TestConcurrentClosureAndInvariants(t *testing.T) {
	for _, cfg := range allConfigs() {
		cfg := cfg
		t.Run(cfgName(cfg), func(t *testing.T) {
			const n, p = 64, 4
			unions := workload.RandomUnions(n, 160, 7)
			perProc := workload.SplitRoundRobin(unions, p)
			res, err := Run(New(n, cfg), perProc, Options{
				Scheduler:       sched.NewRandom(11),
				CheckInvariants: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			spec := seqdsu.NewSpec(n)
			for _, op := range unions {
				spec.Unite(op.X, op.Y)
			}
			got := seqdsu.CanonicalizeParents(res.Parents)
			for i, want := range spec.Labels() {
				if got[i] != want {
					t.Fatalf("partition differs at %d", i)
				}
			}
			if res.Total <= 0 || len(res.Steps) != p {
				t.Fatalf("bad step accounting: total=%d steps=%v", res.Total, res.Steps)
			}
		})
	}
}

func TestDeterministicReplay(t *testing.T) {
	const n, p = 32, 3
	cfg := core.Config{Find: core.FindTwoTry, Seed: 9}
	ops := workload.Mixed(n, 60, 0.6, 2)
	perProc := workload.SplitRoundRobin(ops, p)
	run := func() Result {
		res, err := Run(New(n, cfg), perProc, Options{Scheduler: sched.NewRandom(42)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Total != b.Total {
		t.Fatalf("totals differ: %d vs %d", a.Total, b.Total)
	}
	for i := range a.Parents {
		if a.Parents[i] != b.Parents[i] {
			t.Fatalf("parents differ at %d", i)
		}
	}
	for i := range a.Answers {
		for k := range a.Answers[i] {
			if a.Answers[i][k] != b.Answers[i][k] {
				t.Fatalf("answers differ at proc %d op %d", i, k)
			}
		}
	}
}

func TestSetupPhase(t *testing.T) {
	const n = 32
	s := New(n, core.Config{Seed: 1})
	// Setup unites everything; measured phase only queries.
	queries := []workload.Op{{Kind: workload.OpSameSet, X: 0, Y: n - 1}}
	res, err := Run(s, [][]workload.Op{queries}, Options{Setup: workload.Chain(n)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answers[0][0] {
		t.Fatal("setup unions not visible in measured phase")
	}
	if res.SetupSteps <= 0 {
		t.Fatal("setup steps not counted")
	}
	if res.Total >= res.SetupSteps {
		t.Fatalf("measured phase (%d steps) should be far cheaper than setup (%d)", res.Total, res.SetupSteps)
	}
}

// TestHalvingSimulatesSplitting reproduces the Section 3 construction (E8):
// on a path with ids increasing along it, two processes doing halving from
// consecutive path nodes in lockstep leave exactly the forest one process
// doing splitting leaves — pointer update for pointer update.
func TestHalvingSimulatesSplitting(t *testing.T) {
	for _, k := range []int{8, 16, 64, 256, 1024} {
		// Identity order: ids increase along the path 0→1→…→k−1.
		order := make([]uint32, k)
		for i := range order {
			order[i] = uint32(i)
		}
		path := func(mem []uint64) {
			for i := 0; i < k-1; i++ {
				mem[i] = uint64(i + 1)
			}
			mem[k-1] = uint64(k - 1)
		}

		// One process, splitting (one-try ≡ sequential splitting alone).
		split := NewWithOrder(core.Config{Find: core.FindOneTry}, order)
		m1 := apram.NewMachine(k, sched.NewRoundRobin(), int64(100*k))
		path(m1.Mem())
		m1.AddProgram(func(p *apram.P) { split.Find(p, 0) })
		m1.Run()

		// Two processes, halving, lockstep, starting at nodes 0 and 1.
		halve := NewWithOrder(core.Config{Find: core.FindHalving}, order)
		m2 := apram.NewMachine(k, sched.NewLockstep(), int64(100*k))
		path(m2.Mem())
		m2.AddProgram(func(p *apram.P) { halve.Find(p, 0) })
		m2.AddProgram(func(p *apram.P) { halve.Find(p, 1) })
		m2.Run()

		for i := 0; i < k; i++ {
			if m1.Mem()[i] != m2.Mem()[i] {
				t.Fatalf("k=%d: node %d parent differs: splitting %d, lockstep halving %d",
					k, i, m1.Mem()[i], m2.Mem()[i])
			}
		}
	}
}

// TestAbandonedOperationHarmless injects a crash-stop failure: a process
// abandons a Unite halfway (after its finds, before its CAS could ever be
// retried). The survivors must still produce the correct partition and all
// invariants must hold — the guts of wait-freedom (T2/E14).
func TestAbandonedOperationHarmless(t *testing.T) {
	const n = 48
	cfg := core.Config{Find: core.FindTwoTry, Seed: 13}
	s := New(n, cfg)
	m := apram.NewMachine(s.Words(), sched.NewRandom(3), 1_000_000)
	s.Init(m.Mem())
	checker := NewChecker(s)
	m.SetObserver(checker.Observe)

	// Process 0 "crashes": it walks to the two roots and stops, holding no
	// state anyone could wait on.
	m.AddProgram(func(p *apram.P) {
		s.Find(p, 0)
		s.Find(p, n-1)
		// abandoned here
	})
	unions := workload.RandomUnions(n, 100, 17)
	for w, ops := range workload.SplitRoundRobin(unions, 3) {
		_ = w
		ops := ops
		m.AddProgram(func(p *apram.P) {
			for _, op := range ops {
				s.apply(p, op)
			}
		})
	}
	m.Run()
	if err := checker.Err(); err != nil {
		t.Fatal(err)
	}
	spec := seqdsu.NewSpec(n)
	for _, op := range unions {
		spec.Unite(op.X, op.Y)
	}
	got := seqdsu.CanonicalizeParents(s.ParentsFromMem(m.Mem()))
	for i, want := range spec.Labels() {
		if got[i] != want {
			t.Fatalf("partition differs at %d after abandoned op", i)
		}
	}
}

// TestStalledProcessDoesNotBlockOthers runs with an adversarial scheduler
// that starves one process while others have work: all operations still
// complete within the step bound (wait-freedom under adversarial timing).
func TestStalledProcessDoesNotBlockOthers(t *testing.T) {
	const n, p = 64, 4
	ops := workload.RandomUnions(n, 120, 23)
	perProc := workload.SplitRoundRobin(ops, p)
	res, err := Run(New(n, core.Config{Seed: 3}), perProc, Options{
		Scheduler:       sched.NewStall(sched.NewRandom(7), 0),
		MaxSteps:        2_000_000,
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The starved process ran last but still finished all its ops.
	if got, want := len(res.Answers[0]), len(perProc[0]); got != want {
		t.Fatalf("stalled process completed %d/%d ops", got, want)
	}
}

func TestCheckerCatchesViolations(t *testing.T) {
	s := New(4, core.Config{Seed: 1})
	t.Run("plain write", func(t *testing.T) {
		c := NewChecker(s)
		c.Observe(apram.Step{Kind: apram.OpWrite, Addr: 1, After: 2})
		if c.Err() == nil {
			t.Fatal("write not flagged")
		}
	})
	t.Run("id order violation", func(t *testing.T) {
		c := NewChecker(s)
		// Find the element with the largest id and "link" it to another.
		var big, small uint32
		for x := uint32(0); x < 4; x++ {
			if s.ID(x) > s.ID(big) {
				big = x
			}
			if s.ID(x) < s.ID(small) {
				small = x
			}
		}
		c.Observe(apram.Step{Kind: apram.OpCAS, OK: true, Addr: int(big), Before: uint64(big), After: uint64(small)})
		if c.Err() == nil {
			t.Fatal("id-order violation not flagged")
		}
	})
	t.Run("bogus compaction", func(t *testing.T) {
		c := NewChecker(s)
		// No links yet, so no node has any proper ancestor: any compaction
		// CAS is illegal.
		c.Observe(apram.Step{Kind: apram.OpCAS, OK: true, Addr: 0, Before: 1, After: 2})
		if c.Err() == nil {
			t.Fatal("bogus compaction not flagged")
		}
	})
	t.Run("double link", func(t *testing.T) {
		c := NewChecker(s)
		var lo, mid, hi uint32
		type pair struct {
			x  uint32
			id uint32
		}
		var ps []pair
		for x := uint32(0); x < 4; x++ {
			ps = append(ps, pair{x, s.ID(x)})
		}
		for _, a := range ps {
			if a.id == 0 {
				lo = a.x
			}
			if a.id == 1 {
				mid = a.x
			}
			if a.id == 2 {
				hi = a.x
			}
		}
		c.Observe(apram.Step{Kind: apram.OpCAS, OK: true, Addr: int(lo), Before: uint64(lo), After: uint64(mid)})
		if c.Err() != nil {
			t.Fatalf("legal link flagged: %v", c.Err())
		}
		// lo is no longer a root in the union forest; linking it again is
		// the "linked twice" violation.
		c.Observe(apram.Step{Kind: apram.OpCAS, OK: true, Addr: int(lo), Before: uint64(lo), After: uint64(hi)})
		if c.Err() == nil {
			t.Fatal("double link not flagged")
		}
	})
}

// TestOrderMatchesCore: a Sim links by the order a core.DSU of the same
// size and seed computes, so a simulated run and a native one of the same
// operations build the same union forest.
func TestOrderMatchesCore(t *testing.T) {
	for _, n := range []int{0, 1, 1000, 1 << 10} {
		for _, seed := range []uint64{1, 5} {
			s, d := New(n, core.Config{Seed: seed}), core.New(n, core.Config{Seed: seed})
			for x := uint32(0); int(x) < n; x++ {
				if s.ID(x) != d.ID(x) {
					t.Fatalf("n=%d seed=%d: Sim ID(%d) = %d, core ID = %d", n, seed, x, s.ID(x), d.ID(x))
				}
			}
		}
	}
}

func TestNewWithOrderValidates(t *testing.T) {
	for _, bad := range [][]uint32{{0, 0}, {1, 2}, {2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("order %v accepted", bad)
				}
			}()
			NewWithOrder(core.Config{}, bad)
		}()
	}
	s := NewWithOrder(core.Config{}, []uint32{2, 0, 1})
	if s.ID(0) != 2 || s.ID(1) != 0 || s.ID(2) != 1 {
		t.Fatal("explicit order not installed")
	}
}

func TestNewPanics(t *testing.T) {
	cases := []func(){
		func() { New(-1, core.Config{}) },
		func() { New(1, core.Config{Find: core.Find(77)}) },
		func() { New(1, core.Config{Find: core.FindHalving, EarlyTermination: true}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestRandomOrderIsSeedDeterministic(t *testing.T) {
	a := New(16, core.Config{Seed: 4})
	b := New(16, core.Config{Seed: 4})
	for x := uint32(0); x < 16; x++ {
		if a.ID(x) != b.ID(x) {
			t.Fatal("same seed, different order")
		}
	}
}
