package dsu

import (
	"math/rand"
	"strings"
	"testing"
)

func metricsEdges(n, m int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{X: uint32(rng.Intn(n)), Y: uint32(rng.Intn(n))}
	}
	return edges
}

// TestMetricsMatchReplies is the acceptance criterion for the
// instrumentation seam: for every structure kind, the per-tenant totals a
// scraper reads from Universe.Metrics must equal the sums of the
// BatchReply values handed back to the tenant's callers — the metrics
// layer observes the same exec.Result record the DTO layer returns, so
// the two views cannot disagree.
func TestMetricsMatchReplies(t *testing.T) {
	const n = 2000
	kinds := []struct {
		name string
		opts []Option
	}{
		{"flat", nil},
		{"lockfree", []Option{WithKind(KindLockFree)}},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			m := NewMetrics()
			reg := NewRegistry(WithMetrics(m))
			u, err := reg.Create("tenant-"+k.name, n, k.opts...)
			if err != nil {
				t.Fatal(err)
			}

			var want TenantMetrics
			for batch := 0; batch < 5; batch++ {
				req := UniteRequest{Edges: metricsEdges(n, 700, int64(batch))}
				rep, err := u.UniteAll(req)
				if err != nil {
					t.Fatal(err)
				}
				want.UniteBatches++
				want.UniteEdges += int64(len(req.Edges))
				want.Merged += rep.Merged
				want.FindSteps += rep.Stats.FindSteps
				want.CASRetries += rep.CASRetries
			}
			for batch := 0; batch < 3; batch++ {
				req := QueryRequest{Pairs: metricsEdges(n, 400, int64(100+batch))}
				rep, err := u.SameSetAll(req)
				if err != nil {
					t.Fatal(err)
				}
				want.QueryBatches++
				want.QueryPairs += int64(len(req.Pairs))
				want.FindSteps += rep.Stats.FindSteps
			}

			got := u.Metrics()
			if !got.Instrumented {
				t.Fatal("universe not instrumented")
			}
			if got.UniteBatches != want.UniteBatches || got.QueryBatches != want.QueryBatches {
				t.Errorf("batches = %d/%d, want %d/%d", got.UniteBatches, got.QueryBatches, want.UniteBatches, want.QueryBatches)
			}
			if got.UniteEdges != want.UniteEdges || got.QueryPairs != want.QueryPairs {
				t.Errorf("elements = %d/%d, want %d/%d", got.UniteEdges, got.QueryPairs, want.UniteEdges, want.QueryPairs)
			}
			if got.Merged != want.Merged {
				t.Errorf("Merged = %d, want %d", got.Merged, want.Merged)
			}
			if got.FindSteps != want.FindSteps {
				t.Errorf("FindSteps = %d, want %d", got.FindSteps, want.FindSteps)
			}
			if got.CASRetries != want.CASRetries {
				t.Errorf("CASRetries = %d, want %d", got.CASRetries, want.CASRetries)
			}
			// The exposition carries the same numbers under the tenant label.
			var sb strings.Builder
			if err := m.WriteText(&sb); err != nil {
				t.Fatal(err)
			}
			text := sb.String()
			for _, series := range []string{
				`dsu_batches_total{tenant="tenant-` + k.name + `",op="unite"} 5`,
				`dsu_batches_total{tenant="tenant-` + k.name + `",op="query"} 3`,
				`dsu_batch_edges_total{tenant="tenant-` + k.name + `",op="unite"} 3500`,
			} {
				if !strings.Contains(text, series) {
					t.Errorf("exposition missing %q", series)
				}
			}
		})
	}
}

// TestMetricsUninstrumented pins the disabled mode: without a Metrics
// attached, batches run normally and the snapshot is the zero value.
func TestMetricsUninstrumented(t *testing.T) {
	reg := NewRegistry()
	u, err := reg.Create("plain", 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.UniteAll(UniteRequest{Edges: metricsEdges(100, 50, 1)}); err != nil {
		t.Fatal(err)
	}
	if got := u.Metrics(); got.Instrumented || got.UniteBatches != 0 {
		t.Errorf("uninstrumented snapshot = %+v, want zero", got)
	}
}

// TestMetricsStreamGauges checks the pipeline gauges: active while a
// stream is open, back to zero after Close, with the stream's batches
// and edges landing in the same per-tenant counters blocking calls feed.
func TestMetricsStreamGauges(t *testing.T) {
	const n = 1000
	m := NewMetrics()
	reg := NewRegistry(WithMetrics(m))
	u, err := reg.Create("streamer", n)
	if err != nil {
		t.Fatal(err)
	}

	s := u.NewStream(WithBufferSize(128))
	if got := u.Metrics().StreamsActive; got != 1 {
		t.Errorf("StreamsActive while open = %d, want 1", got)
	}
	edges := metricsEdges(n, 1000, 7)
	if err := s.Push(edges...); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	got := u.Metrics()
	if got.StreamsActive != 0 || got.StreamBatchesInFlight != 0 {
		t.Errorf("gauges after close = %d active, %d in flight, want 0/0", got.StreamsActive, got.StreamBatchesInFlight)
	}
	if got.UniteBatches != int64(s.Batches()) {
		t.Errorf("UniteBatches = %d, want the stream's %d", got.UniteBatches, s.Batches())
	}
	if got.UniteEdges != s.Edges() {
		t.Errorf("UniteEdges = %d, want the stream's %d", got.UniteEdges, s.Edges())
	}
	if got.Merged != s.Merged() {
		t.Errorf("Merged = %d, want the stream's %d", got.Merged, s.Merged())
	}

	// The recycled-buffer counter saw the free list at work: with more
	// sealed batches than buffers, at least one buffer came back around.
	var sb strings.Builder
	if err := m.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `dsu_stream_recycled_buffers_total{tenant="streamer"}`) {
		t.Error("exposition missing the recycled-buffer series")
	}
}
