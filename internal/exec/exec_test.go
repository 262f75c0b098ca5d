package exec_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/pipeline"
	"repro/internal/tracespan"
	"repro/internal/workload"
)

// TestUnifiedResultType is the field-parity guard the unified layer makes
// structural: the engine's and the pipeline's batch records are the one
// exec.Result type, so stream callbacks and blocking calls cannot drift
// apart without a compile error or this test failing.
func TestUnifiedResultType(t *testing.T) {
	// exec.Result is an alias of engine.Result (compile-time assignment).
	var r exec.Result
	var _ engine.Result = r

	// The pipeline's per-batch record embeds exec.Result, so stream
	// callbacks see exactly the blocking paths' accounting.
	f, ok := reflect.TypeOf(pipeline.Result{}).FieldByName("Result")
	if !ok || !f.Anonymous || f.Type != reflect.TypeOf(r) {
		t.Fatal("pipeline.Result does not embed exec.Result")
	}
}

// TestResultStatsAggregation pins exec.Result.Stats as the pool's sum:
// every pair of the batch counts as one operation, and on a traced batch,
// whose per-worker breakdown the engine keeps, the workers' counters sum
// to it exactly.
func TestResultStatsAggregation(t *testing.T) {
	const n = 1024
	x := exec.NewExecutor(core.New(n, core.Config{Seed: 13}))
	edges := engine.FromOps(workload.RandomUnions(n, 4*n, 17))
	tr := tracespan.New(tracespan.Config{}).Start("unite", tracespan.SourceBlocking)
	res := x.UniteAll(edges, exec.Config{Workers: 2, Grain: 64, Seed: 3, Trace: tr})

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
