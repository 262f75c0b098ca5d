package exec

import (
	"repro/internal/tracespan"
)

// traceExecute records the execute stage of one batch into its trace:
// the execute span itself (wrapping the engine run — the caller passes
// the claimed ref), plus one worker span per pool worker synthesized from
// the Result's accounting, spanning the run with that worker's operation
// counters as attributes. The core stays uninstrumented.
func traceExecute(t *tracespan.Trace, ex tracespan.SpanRef, n int, res *Result) {
	if t == nil || ex == 0 {
		return
	}
	start := t.StartOffset(ex)
	if a := t.Attrs(ex); a != nil {
		a.Edges = int64(n)
		a.Merged = res.Merged
		a.CASRetries = res.CASRetries
		a.FindSteps = res.Stats().FindSteps
		a.Find = res.Find.String()
	}
	end := start + res.Elapsed
	for i := range res.PerWorker {
		w := t.StartAt(tracespan.StageWorker, ex, start)
		t.EndAt(w, end)
		if a := t.Attrs(w); a != nil {
			s := &res.PerWorker[i]
			a.Worker = int64(i + 1)
			a.Ops = s.Ops
			a.FindSteps = s.FindSteps
			a.CASRetries = s.CASFailures
		}
	}
}
