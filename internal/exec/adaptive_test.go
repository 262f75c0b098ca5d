package exec_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/workload"
)

// qstats builds a query batch's summed counters with the given find signal.
func qstats(finds, steps, rewrites int64) core.Stats {
	return core.Stats{Finds: finds, FindSteps: steps, Rewrites: rewrites}
}

// TestEstimatorPickThresholds pins the switch points of the flatness
// estimator: depth at/below NaiveMaxDepth selects naive, between the
// bounds one-try, above OneTryMaxDepth the configured base — and an
// estimator that has observed nothing always returns the base.
func TestEstimatorPickThresholds(t *testing.T) {
	var fresh exec.Estimator
	if got := fresh.Pick(core.FindTwoTry); got != core.FindTwoTry {
		t.Errorf("Pick before any observation = %v, want the base variant", got)
	}

	cases := []struct {
		name  string
		steps int64 // FindSteps per 100 finds, two-try observed
		want  core.Find
	}{
		{"flat", 100, core.FindNaive},             // depth 1.0 ≤ NaiveMaxDepth
		{"shallow", 200, core.FindOneTry},         // depth 2.0 ≤ OneTryMaxDepth
		{"deep", 300, core.FindTwoTry},            // depth 3.0 > OneTryMaxDepth
		{"boundary-naive", 130, core.FindNaive},   // exactly NaiveMaxDepth
		{"boundary-onetry", 220, core.FindOneTry}, // exactly OneTryMaxDepth
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e exec.Estimator
			e.ObserveQuery(core.FindTwoTry, qstats(100, tc.steps, 0))
			if got := e.Pick(core.FindTwoTry); got != tc.want {
				d, _ := e.Depth()
				t.Errorf("Pick after depth %.2f = %v, want %v", d, got, tc.want)
			}
		})
	}
}

// TestEstimatorVariantNormalization pins the per-variant depth
// normalization: naive counts the root visit as a find step, so the same
// forest reads one step higher under naive than under splitting — without
// the correction the policy would oscillate out of naive the moment it
// picked it.
func TestEstimatorVariantNormalization(t *testing.T) {
	var split, naive exec.Estimator
	split.ObserveQuery(core.FindTwoTry, qstats(100, 100, 0)) // flat under two-try
	naive.ObserveQuery(core.FindNaive, qstats(100, 200, 0))  // the same flat forest under naive
	ds, _ := split.Depth()
	dn, _ := naive.Depth()
	if ds != dn {
		t.Errorf("normalized depths differ: two-try %.2f vs naive %.2f", ds, dn)
	}
	if got := naive.Pick(core.FindTwoTry); got != core.FindNaive {
		t.Errorf("naive observation of a flat forest picks %v, want naive (stable choice)", got)
	}
}

// TestEstimatorRewritesPenalty pins the rewrite signal: a batch whose step
// counts look flat but that still lands many compaction CASes is walking
// real paths, and must not downgrade all the way.
func TestEstimatorRewritesPenalty(t *testing.T) {
	var e exec.Estimator
	e.ObserveQuery(core.FindTwoTry, qstats(100, 100, 150)) // depth 1.0 + 1.5 rewrites/find
	if got := e.Pick(core.FindTwoTry); got != core.FindTwoTry {
		t.Errorf("rewrite-heavy batch picks %v, want the base variant", got)
	}
}

// TestEstimatorNeverUpgrades pins that Pick only ever downgrades: a
// structure configured with a cheap variant keeps it at every depth.
func TestEstimatorNeverUpgrades(t *testing.T) {
	var e exec.Estimator
	e.ObserveQuery(core.FindTwoTry, qstats(100, 200, 0)) // suggests one-try
	if got := e.Pick(core.FindNaive); got != core.FindNaive {
		t.Errorf("Pick(naive base) = %v, want naive (no upgrades)", got)
	}
	var deep exec.Estimator
	deep.ObserveQuery(core.FindTwoTry, qstats(100, 500, 0))
	if got := deep.Pick(core.FindNaive); got != core.FindNaive {
		t.Errorf("Pick(naive base) on a deep forest = %v, want naive", got)
	}
}

// TestEstimatorChurnRestoresCompaction pins the mutate-side signal: a
// merge-heavy mutation batch bumps the depth estimate even when its own
// finds ran over short paths, restoring compacting variants for the
// queries that follow.
func TestEstimatorChurnRestoresCompaction(t *testing.T) {
	var e exec.Estimator
	e.ObserveQuery(core.FindTwoTry, qstats(100, 100, 0)) // flat: picks naive
	if got := e.Pick(core.FindTwoTry); got != core.FindNaive {
		t.Fatalf("flat estimate picks %v, want naive", got)
	}
	// Two merge-heavy batches: sample = flat depth + ChurnWeight·0.9 ≈ 2.8
	// each, pulling the EWMA past the naive bound and then past one-try's.
	e.ObserveMutate(core.FindTwoTry, qstats(100, 100, 0), 100, 90)
	e.ObserveMutate(core.FindTwoTry, qstats(100, 100, 0), 100, 90)
	if got := e.Pick(core.FindTwoTry); got == core.FindNaive {
		t.Errorf("after two merge-heavy mutation batches Pick still returns naive (depth %v)",
			firstOf(e.Depth()))
	}
	// Merge-free mutation batches over a flat forest relax it again (three
	// EWMA steps at weight 0.5 bring ≈2.35 back under the naive bound).
	for i := 0; i < 3; i++ {
		e.ObserveMutate(core.FindTwoTry, qstats(100, 100, 0), 100, 0)
	}
	if got := e.Pick(core.FindTwoTry); got != core.FindNaive {
		t.Errorf("after merge-free batches on a flat forest Pick = %v, want naive", got)
	}
}

// TestEstimatorEarlyTerminationFallback pins the fallback signal for the
// Section 6 early-termination operations, which never run find(): retry
// rounds per operation stand in for find steps.
func TestEstimatorEarlyTerminationFallback(t *testing.T) {
	var e exec.Estimator
	e.ObserveQuery(core.FindTwoTry, core.Stats{Ops: 100, Rounds: 150})
	if _, ok := e.Depth(); !ok {
		t.Fatal("rounds-per-op fallback produced no depth estimate")
	}
	if got := e.Pick(core.FindTwoTry); got != core.FindNaive {
		t.Errorf("flat early-termination batch picks %v, want naive", got)
	}
	var silent exec.Estimator
	silent.ObserveQuery(core.FindTwoTry, core.Stats{})
	if _, ok := silent.Depth(); ok {
		t.Error("an empty batch must not produce a depth estimate")
	}
}

func firstOf(d float64, _ bool) float64 { return d }

// TestExecutorAdaptiveDowngrade drives the real thing end to end on the
// core forest: a large UniteAll flattens the forest, and within a few
// query batches the executor must select a downgraded variant — the E21
// acceptance behavior, pinned as a unit test.
func TestExecutorAdaptiveDowngrade(t *testing.T) {
	const n = 1 << 12
	d := core.New(n, core.Config{Seed: 7})
	x := exec.NewExecutor(d, true)
	if !x.Adaptive() || x.Estimator() == nil {
		t.Fatal("executor built without the adaptive estimator")
	}

	edges := engine.FromOps(workload.RandomUnions(n, 4*n, 3))
	res := x.UniteAll(edges, exec.Config{Workers: 2, Seed: 1})
	if res.Find != core.FindTwoTry {
		t.Fatalf("mutation batch ran %v, want the configured two-try", res.Find)
	}

	// Fixed reference over an identically seeded structure: answers must
	// match whatever variant the adaptive side picks.
	ref := core.New(n, core.Config{Seed: 7})
	engine.UniteAll(ref, edges, exec.Config{Workers: 2, Seed: 1})

	pairs := engine.FromOps(workload.RandomUnions(n, n, 5))
	want, _ := engine.SameSetAll(ref, pairs, exec.Config{Workers: 2, Seed: 1})

	downgraded := false
	var picked []core.Find
	for i := 0; i < 8; i++ {
		out, qres := x.SameSetAll(pairs, exec.Config{Workers: 2, Seed: 1})
		picked = append(picked, qres.Find)
		if qres.Find == core.FindNaive || qres.Find == core.FindOneTry {
			downgraded = true
		}
		for k := range out {
			if out[k] != want[k] {
				t.Fatalf("batch %d (variant %v): answer[%d] = %v, fixed reference %v",
					i, qres.Find, k, out[k], want[k])
			}
		}
	}
	if !downgraded {
		t.Errorf("no query batch downgraded after a flattening UniteAll; picks: %v", picked)
	}
}
