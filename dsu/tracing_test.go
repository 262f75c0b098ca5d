package dsu

import (
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// spanNames collects the stage names of one exported trace.
func spanNames(tr BatchTrace) map[string]int {
	names := make(map[string]int)
	for _, s := range tr.Spans {
		names[s.Name]++
	}
	return names
}

// TestBlockingTraceTree pins the blocking veneer's span taxonomy: a
// traced universe records one trace per batch call with a root span
// named after the op, an execute span under the root, and per-worker
// spans under execute.
func TestBlockingTraceTree(t *testing.T) {
	r := NewRegistry(WithTracing(NewTracing()))
	u, err := r.Create("t", 1000)
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]Edge, 100)
	for i := range edges {
		edges[i] = Edge{X: uint32(i), Y: uint32(i + 1)}
	}
	if _, err := u.UniteAll(UniteRequest{Edges: edges, Options: BatchOptions{Workers: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := u.SameSetAll(QueryRequest{Pairs: edges[:10]}); err != nil {
		t.Fatal(err)
	}
	traces := u.Traces()
	if len(traces) != 2 {
		t.Fatalf("Traces() = %d entries, want 2", len(traces))
	}
	// Newest first: query then unite.
	q, un := traces[0], traces[1]
	if q.Op != "query" || un.Op != "unite" {
		t.Fatalf("ops = %q, %q; want query, unite", q.Op, un.Op)
	}
	for _, tr := range traces {
		if tr.Source != "blocking" {
			t.Errorf("trace %s source = %q, want blocking", tr.TraceID, tr.Source)
		}
		if len(tr.Spans) == 0 || tr.Spans[0].Name != tr.Op {
			t.Fatalf("trace %s root span missing or misnamed", tr.TraceID)
		}
		names := spanNames(tr)
		if names["execute"] != 1 {
			t.Errorf("trace %s execute spans = %d, want 1", tr.TraceID, names["execute"])
		}
		// Connectivity: every span's parent must be 0 (root) or a valid
		// earlier span — one connected tree.
		for i, s := range tr.Spans {
			if i == 0 {
				if s.Parent != 0 {
					t.Errorf("root span has parent %d", s.Parent)
				}
				continue
			}
			if s.Parent == 0 || int(s.Parent) > len(tr.Spans) {
				t.Errorf("span %d (%s) parent %d out of tree", s.ID, s.Name, s.Parent)
			}
		}
	}
	// The 100-edge batch fits in one grain, so it runs on the caller as
	// one worker whatever pool size it asked for: one worker span.
	if names := spanNames(un); names["worker"] != 1 {
		t.Errorf("unite trace has %d worker spans, want 1: %v", names["worker"], names)
	}
	if un.Spans[0].Attrs.Edges != 100 {
		t.Errorf("unite root Edges attr = %d, want 100", un.Spans[0].Attrs.Edges)
	}
}

// TestStreamTrace pins the stream path: batches dispatched by a traced
// universe's stream record seal, queue-wait, dispatch, and execute
// spans, and PushLinked's context is adopted (first link wins).
func TestStreamTrace(t *testing.T) {
	r := NewRegistry(WithTracing(NewTracing()))
	u, err := r.Create("s", 1000)
	if err != nil {
		t.Fatal(err)
	}
	s := u.NewStream(WithBufferSize(4))
	link := TraceContext{Trace: 0xfeedface, Span: 7}
	if err := s.PushLinked(link, Edge{X: 0, Y: 1}, Edge{X: 1, Y: 2}); err != nil {
		t.Fatal(err)
	}
	// A later link into the same batch loses.
	if err := s.PushLinked(TraceContext{Trace: 0xdead, Span: 9}, Edge{X: 2, Y: 3}, Edge{X: 3, Y: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	traces := u.Traces()
	if len(traces) != 1 {
		t.Fatalf("Traces() = %d entries, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Source != "stream" || tr.Op != "unite" {
		t.Fatalf("trace op/source = %q/%q, want unite/stream", tr.Op, tr.Source)
	}
	if tr.TraceID != "00000000feedface" || !tr.Remote || tr.ParentSpan != 7 {
		t.Fatalf("adoption: id=%s remote=%v parent=%d, want 00000000feedface/true/7",
			tr.TraceID, tr.Remote, tr.ParentSpan)
	}
	names := spanNames(tr)
	for _, want := range []string{"seal", "queue-wait", "dispatch", "execute"} {
		if names[want] != 1 {
			t.Errorf("span %q count = %d, want 1 (have %v)", want, names[want], names)
		}
	}
	// Nesting: dispatch must contain execute's interval.
	var dispatch, execute SpanTrace
	for _, s := range tr.Spans {
		switch s.Name {
		case "dispatch":
			dispatch = s
		case "execute":
			execute = s
		}
	}
	if execute.Start < dispatch.Start || execute.Start+execute.Duration > dispatch.Start+dispatch.Duration {
		t.Errorf("execute [%d,+%d] not nested in dispatch [%d,+%d]",
			execute.Start, execute.Duration, dispatch.Start, dispatch.Duration)
	}
	if tr.Spans[0].Attrs.Edges != 4 {
		t.Errorf("root Edges attr = %d, want 4", tr.Spans[0].Attrs.Edges)
	}
}

// TestFlightRecorderPromotion pins the slow-trace path: with a 1ns
// threshold every batch is promoted; SlowTraces retains them.
func TestFlightRecorderPromotion(t *testing.T) {
	r := NewRegistry(WithTracing(NewTracing(WithSlowThreshold(1), WithTraceRing(4), WithRetainedSlow(8))))
	u, err := r.Create("slow", 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := u.UniteAll(UniteRequest{Edges: []Edge{{X: 0, Y: 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(u.Traces()); got != 4 {
		t.Errorf("recent ring = %d traces, want 4 (ring capacity)", got)
	}
	slow := u.SlowTraces()
	if len(slow) != 6 {
		t.Fatalf("flight recorder = %d traces, want all 6", len(slow))
	}
	for _, tr := range slow {
		if !tr.Slow {
			t.Errorf("retained trace %s not marked slow", tr.TraceID)
		}
	}
}

// TestUntracedUniverse pins the disabled mode: no Tracing attached means
// nil snapshots and no recording anywhere.
func TestUntracedUniverse(t *testing.T) {
	d := New(100)
	u := NewUniverse("", d)
	if _, err := u.UniteAll(UniteRequest{Edges: []Edge{{X: 0, Y: 1}}}); err != nil {
		t.Fatal(err)
	}
	if u.Traces() != nil || u.SlowTraces() != nil || u.TraceRecorder() != nil {
		t.Error("untraced universe leaked trace state")
	}
	s := u.NewStream(WithBufferSize(2))
	if err := s.PushLinked(TraceContext{Trace: 1}, Edge{X: 0, Y: 1}, Edge{X: 1, Y: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if u.Traces() != nil {
		t.Error("untraced stream recorded a trace")
	}
}

// TestTracingHandler pins the /debug/traces exposition: valid JSON, one
// entry per tenant sorted by name, tenant and slow filters honored.
func TestTracingHandler(t *testing.T) {
	tr := NewTracing(WithSlowThreshold(time.Hour))
	r := NewRegistry(WithTracing(tr))
	for _, name := range []string{"b-tenant", "a-tenant"} {
		u, err := r.Create(name, 100)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := u.UniteAll(UniteRequest{Edges: []Edge{{X: 0, Y: 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	tr.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var got []TenantTraces
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(got) != 2 || got[0].Tenant != "a-tenant" || got[1].Tenant != "b-tenant" {
		t.Fatalf("tenants = %+v, want a-tenant then b-tenant", got)
	}
	for _, tt := range got {
		if tt.Started != 1 || len(tt.Recent) != 1 {
			t.Errorf("tenant %s: started=%d recent=%d, want 1/1", tt.Tenant, tt.Started, len(tt.Recent))
		}
		if len(tt.Slowest) != 0 {
			t.Errorf("tenant %s: %d slow traces under 1h threshold", tt.Tenant, len(tt.Slowest))
		}
	}
	rec = httptest.NewRecorder()
	tr.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?tenant=a-tenant", nil))
	got = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Tenant != "a-tenant" {
		t.Fatalf("tenant filter: %+v", got)
	}
	rec = httptest.NewRecorder()
	tr.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?slow=1", nil))
	got = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	for _, tt := range got {
		if tt.Recent != nil {
			t.Errorf("slow filter left recent ring on %s", tt.Tenant)
		}
	}
	// Drop removes the tenant's recorder from the exposition.
	r.Drop("a-tenant")
	if snap := tr.Snapshot(); len(snap) != 1 || snap[0].Tenant != "b-tenant" {
		t.Errorf("after Drop: %+v", snap)
	}
}

// TestTracedDTOMethods pins UniteAllTraced/SameSetAllTraced: execution
// records into the caller's trace, and validation errors record nothing.
func TestTracedDTOMethods(t *testing.T) {
	tracing := NewTracing()
	d := New(100)
	u := NewUniverse("", d)
	u.EnableTracing(tracing)
	rec := u.TraceRecorder()
	tr := rec.Start("unite", "rpc")
	if _, err := u.UniteAllTraced(UniteRequest{Edges: []Edge{{X: 0, Y: 1}}}, tr); err != nil {
		t.Fatal(err)
	}
	rec.Finish(tr)
	traces := u.Traces()
	if len(traces) != 1 {
		t.Fatalf("Traces() = %d, want 1", len(traces))
	}
	if names := spanNames(traces[0]); names["execute"] != 1 {
		t.Errorf("traced DTO call recorded no execute span: %v", names)
	}
	// Validation failure: the error reports before execution.
	tr2 := rec.Start("unite", "rpc")
	if _, err := u.UniteAllTraced(UniteRequest{Edges: []Edge{{X: 999, Y: 1000}}}, tr2); err == nil {
		t.Fatal("out-of-range edge not rejected")
	}
	if len(u.Traces()) != 1 {
		t.Error("failed validation leaked a recorded trace")
	}
}

// TestUniverseViewEnableTracing pins the recorder's ownership: it belongs
// to the structure, so attaching or detaching it through a second view
// re-attaches the whole tenant, and doing so while another view runs
// batches is safe (this test runs in CI's race step). A stream opened
// before the attach stays untraced.
func TestUniverseViewEnableTracing(t *testing.T) {
	const n = 1000
	u := NewUniverse("t", New(n))
	s := u.NewStream(WithBufferSize(8))
	v := NewUniverse("t", u.Backend())
	tracing := NewTracing()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			e := Edge{X: uint32(i % n), Y: uint32((7*i + 1) % n)}
			if _, err := u.UniteAll(UniteRequest{Edges: []Edge{e}}); err != nil {
				t.Error(err)
				return
			}
			if _, err := u.SameSetAll(QueryRequest{Pairs: []Edge{e}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
toggle:
	for attached := false; ; attached = !attached {
		select {
		case <-done:
			break toggle
		default:
		}
		if attached {
			v.EnableTracing(nil)
		} else {
			v.EnableTracing(tracing)
		}
		runtime.Gosched()
	}

	v.EnableTracing(nil)
	if u.TraceRecorder() != nil {
		t.Fatal("detaching through a view left the tenant traced")
	}
	v.EnableTracing(tracing)
	rec := u.TraceRecorder()
	if rec == nil || rec != v.TraceRecorder() {
		t.Fatal("attaching through a view did not trace the tenant")
	}
	started := rec.Started()
	for i := 0; i < 32; i++ {
		if err := s.Push(Edge{X: uint32(i), Y: uint32(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Started(); got != started {
		t.Errorf("a stream opened untraced started %d traces after the attach, want 0", got-started)
	}
	if _, err := u.UniteAll(UniteRequest{Edges: []Edge{{X: 0, Y: 1}}}); err != nil {
		t.Fatal(err)
	}
	if traces := u.Traces(); rec.Started() != started+1 || len(traces) == 0 || traces[0].Source != "blocking" {
		t.Errorf("a blocking batch through the other view was not traced: started %d → %d", started, rec.Started())
	}
}
