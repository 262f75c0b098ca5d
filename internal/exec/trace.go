package exec

import (
	"repro/internal/tracespan"
)

// traceExecute records the execute stage of one batch into its trace:
// the execute span itself (wrapping the backend call — the caller passes
// the claimed ref), plus sub-spans synthesized from the Result's
// accounting. The backends stay uninstrumented — this one seam covers
// all three because they already report per-phase work in Result:
//
//   - a filter span for the prefilter/connected-screen portion
//     (FilterElapsed leads the run, so it anchors at the execute start);
//   - one worker span per pool worker (flat runs, and sharded query
//     runs, which drive a single pool), spanning the post-filter
//     portion with that worker's operation counters as attributes.
//
// Synthesis is bounded: per-shard sub-runs are summarized on the execute
// span's attributes rather than expanded (a 64-shard batch would blow
// the span budget for no diagnostic gain — the per-shard detail remains
// available in the Result itself).
func traceExecute(t *tracespan.Trace, ex tracespan.SpanRef, n int, res *Result) {
	if t == nil || ex == 0 {
		return
	}
	start := t.StartOffset(ex)
	if a := t.Attrs(ex); a != nil {
		a.Edges = int64(n)
		a.Merged = res.Merged
		a.Filtered = int64(res.Filtered)
		a.CASRetries = res.CASRetries
		a.FindSteps = res.Stats().FindSteps
		a.Find = res.Find.String()
	}
	if res.FilterElapsed > 0 {
		f := t.StartAt(tracespan.StageFilter, ex, start)
		t.EndAt(f, start+res.FilterElapsed)
		if a := t.Attrs(f); a != nil {
			a.Filtered = int64(res.Filtered)
			a.FindSteps = res.FilterStats.FindSteps
		}
	}
	if len(res.PerWorker) == 0 {
		return
	}
	wstart := start + res.FilterElapsed
	wend := start + res.Elapsed
	if wend < wstart {
		wend = wstart
	}
	for i := range res.PerWorker {
		w := t.StartAt(tracespan.StageWorker, ex, wstart)
		t.EndAt(w, wend)
		if a := t.Attrs(w); a != nil {
			s := &res.PerWorker[i]
			a.Worker = int64(i + 1)
			a.Ops = s.Ops
			a.FindSteps = s.FindSteps
			a.CASRetries = s.CASFailures
		}
	}
}
