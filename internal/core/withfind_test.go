package core

import (
	"testing"

	"repro/internal/randutil"
)

// TestWithFindSharesForest pins the variant-view contract: a view runs a
// different find strategy over the same parent array, so mutations through
// any view are visible through every other, and the views agree on
// membership at all times.
func TestWithFindSharesForest(t *testing.T) {
	const n = 256
	d := New(n, Config{Find: FindTwoTry, Seed: 21})
	v := d.WithFind(FindNaive)
	if v == d {
		t.Fatal("WithFind(other variant) returned the receiver")
	}
	if d.WithFind(FindTwoTry) != d {
		t.Error("WithFind(same variant) should return the receiver unchanged")
	}
	if v.Config().Find != FindNaive || d.Config().Find != FindTwoTry {
		t.Fatalf("view config %v / base config %v", v.Config().Find, d.Config().Find)
	}
	for i := uint32(0); i < n-1; i++ {
		// Alternate which side performs the union; both must observe all.
		if i%2 == 0 {
			d.Unite(i, i+1)
		} else {
			v.Unite(i, i+1)
		}
		if !d.SameSet(0, i+1) || !v.SameSet(0, i+1) {
			t.Fatalf("union of %d..%d not visible through both views", 0, i+1)
		}
		if d.Find(i+1) != v.Find(i+1) {
			t.Fatalf("views disagree on the root of %d", i+1)
		}
	}
	if d.Sets() != 1 {
		t.Fatalf("Sets() = %d after chaining everything, want 1", d.Sets())
	}
}

// TestWithFindPanics pins the validation: unknown variants and
// combinations early termination does not support fail exactly as New
// would.
func TestWithFindPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	d := New(8, Config{Find: FindTwoTry})
	expectPanic("unknown variant", func() { d.WithFind(Find(99)) })
	e := New(8, Config{Find: FindTwoTry, EarlyTermination: true})
	expectPanic("early termination + halving view", func() { e.WithFind(FindHalving) })
	if v := e.WithFind(FindNaive); v.Config().Find != FindNaive || !v.Config().EarlyTermination {
		t.Error("early-termination structure must allow naive/splitting views")
	}
}

// TestRewritesCounter pins the new Stats field against its defining
// invariant: every successful CAS is either a link (a root gaining a
// parent) or a find-path rewrite, so over any single-threaded run
// Rewrites == (CASAttempts − CASFailures) − Links, and compacting finds on
// a deep forest must land at least one rewrite. core.Dynamic (two-try
// splitting over its own order) is held to the same invariant.
func TestRewritesCounter(t *testing.T) {
	const n = 512
	type countedOps interface {
		SameSetCounted(x, y uint32, st *Stats) bool
		UniteCounted(x, y uint32, st *Stats) bool
	}
	check := func(t *testing.T, d countedOps, compacts bool) {
		var st Stats
		rng := randutil.NewXoshiro256(7)
		for i := 0; i < 4*n; i++ {
			x, y := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			if i%3 == 0 {
				d.SameSetCounted(x, y, &st)
			} else {
				d.UniteCounted(x, y, &st)
			}
		}
		succeeded := st.CASAttempts - st.CASFailures
		if st.Rewrites != succeeded-st.Links {
			t.Errorf("Rewrites = %d, want CAS successes − links = %d", st.Rewrites, succeeded-st.Links)
		}
		if !compacts && st.Rewrites != 0 {
			t.Errorf("naive finds rewrote %d pointers, want 0", st.Rewrites)
		} else if compacts && st.Rewrites == 0 {
			t.Error("compacting finds performed no rewrites across a 4n-op workload")
		}
	}
	for _, f := range []Find{FindNaive, FindOneTry, FindTwoTry, FindHalving, FindCompress} {
		t.Run(f.String(), func(t *testing.T) {
			check(t, New(n, Config{Find: f, Seed: 33}), f != FindNaive)
		})
	}
	t.Run("dynamic", func(t *testing.T) {
		d := NewDynamic(n, Config{Seed: 33})
		for i := 0; i < n; i++ {
			if _, err := d.MakeSet(); err != nil {
				t.Fatal(err)
			}
		}
		check(t, d, true)
	})
}

// TestRewritesAdd pins Stats.Add over the new field.
func TestRewritesAdd(t *testing.T) {
	a := Stats{Rewrites: 3}
	a.Add(Stats{Rewrites: 4})
	if a.Rewrites != 7 {
		t.Errorf("Add: Rewrites = %d, want 7", a.Rewrites)
	}
}
