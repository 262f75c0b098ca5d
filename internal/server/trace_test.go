package server

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"testing"
	"time"

	"repro/dsu"
	"repro/internal/tracespan"
	"repro/internal/wire"
)

// findTrace polls the universe's trace ring for a trace with the given
// ID. The server's recorder finishes an RPC trace after the reply is
// written, so the client can hold a reply the ring does not yet show —
// polling is the honest synchronization.
func findTrace(t *testing.T, u *dsu.Universe, id string) dsu.BatchTrace {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, tr := range u.Traces() {
			if tr.TraceID == id {
				return tr
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("trace %s never appeared in the ring", id)
	return dsu.BatchTrace{}
}

// assertSpanTree checks that a trace is one connected tree with monotone
// nested intervals: every non-root span names a recorded parent, starts
// no earlier than it, and ends no later.
func assertSpanTree(t *testing.T, tr dsu.BatchTrace) {
	t.Helper()
	if len(tr.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
	if tr.Spans[0].Parent != 0 {
		t.Errorf("root span has parent %d", tr.Spans[0].Parent)
	}
	for _, s := range tr.Spans[1:] {
		if s.Parent == 0 || int(s.Parent) > len(tr.Spans) {
			t.Errorf("span %d (%s): parent %d not in tree", s.ID, s.Name, s.Parent)
			continue
		}
		p := tr.Spans[s.Parent-1]
		if s.Start < p.Start {
			t.Errorf("span %d (%s) starts %v before parent %s at %v", s.ID, s.Name, s.Start, p.Name, p.Start)
		}
		if s.Start+s.Duration > p.Start+p.Duration {
			t.Errorf("span %d (%s) ends %v after parent %s at %v",
				s.ID, s.Name, s.Start+s.Duration, p.Name, p.Start+p.Duration)
		}
		if s.Duration < 0 {
			t.Errorf("span %d (%s) has negative duration %v", s.ID, s.Name, s.Duration)
		}
	}
}

func stageCounts(tr dsu.BatchTrace) map[string]int {
	names := make(map[string]int)
	for _, s := range tr.Spans {
		names[s.Name]++
	}
	return names
}

// pipeOnce sends one request over a fresh pipe to the tenant and returns
// its reply the way Client's linked RPCs do: copied out, with the trace
// context the reply envelope reported.
func pipeOnce(c *Client, tenant string, send func(*ClientPipe) (uint64, error)) (dsu.BatchReply, dsu.TraceContext, error) {
	var reply *wire.Envelope // set by the reader goroutine, read after Close
	cp, err := c.OpenPipe(context.Background(), tenant, PipeConfig{OnReply: func(env *wire.Envelope) {
		reply = copyEnvelope(env)
	}})
	if err != nil {
		return dsu.BatchReply{}, dsu.TraceContext{}, err
	}
	_, err = send(cp)
	if cerr := cp.Close(); err == nil {
		err = cerr
	}
	if err == nil && (reply == nil || reply.Kind != wire.KindReply) {
		err = fmt.Errorf("pipe answered %+v, want one reply", reply)
	}
	if err != nil {
		return dsu.BatchReply{}, dsu.TraceContext{}, err
	}
	return *reply.Reply, dsu.TraceContext{Trace: reply.Trace, Span: reply.Span}, nil
}

// TestRPCTraceTree drives a remote unite and query through both batch
// endpoints — single-shot RPC and the pipe — against a traced tenant and asserts each exchange produced one connected
// span tree covering wire-decode → queue-wait → execute → reply-encode,
// with the client's trace identity when one was supplied. A pipe decodes
// a request before the request's trace starts, so its trees have no
// wire-decode span.
func TestRPCTraceTree(t *testing.T) {
	tracing := dsu.NewTracing()
	reg := dsu.NewRegistry(dsu.WithTracing(tracing))
	_, c := newTestServer(t, Config{Registry: reg})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "traced", N: 1000}); err != nil {
		t.Fatal(err)
	}
	u, _ := reg.Get("traced")

	for _, ep := range []struct {
		name       string
		trace      uint64 // client-chosen trace IDs start here
		wireDecode int
		unite      func(*Client, dsu.UniteRequest, dsu.TraceContext) (dsu.BatchReply, dsu.TraceContext, error)
		query      func(*Client, dsu.QueryRequest, dsu.TraceContext) (dsu.BatchReply, dsu.TraceContext, error)
	}{
		{"rpc", 0xabcd0000, 1,
			func(c *Client, req dsu.UniteRequest, link dsu.TraceContext) (dsu.BatchReply, dsu.TraceContext, error) {
				return c.UniteAllLinked(ctx, "traced", req, link)
			},
			func(c *Client, req dsu.QueryRequest, link dsu.TraceContext) (dsu.BatchReply, dsu.TraceContext, error) {
				return c.SameSetAllLinked(ctx, "traced", req, link)
			}},
		{"pipe", 0xabce0000, 0,
			func(c *Client, req dsu.UniteRequest, link dsu.TraceContext) (dsu.BatchReply, dsu.TraceContext, error) {
				return pipeOnce(c, "traced", func(cp *ClientPipe) (uint64, error) { return cp.UniteAllLinked(req, link) })
			},
			func(c *Client, req dsu.QueryRequest, link dsu.TraceContext) (dsu.BatchReply, dsu.TraceContext, error) {
				return pipeOnce(c, "traced", func(cp *ClientPipe) (uint64, error) { return cp.SameSetAllLinked(req, link) })
			}},
	} {
		// Client-chosen identity: the server must adopt it.
		link := dsu.TraceContext{Trace: ep.trace, Span: 42}
		rep, got, err := ep.unite(c, dsu.UniteRequest{Edges: testEdges(1000, 500, 7)}, link)
		if err != nil {
			t.Fatalf("%s unite: %v", ep.name, err)
		}
		// The reply reports the adopted trace ID and the server's root span.
		if got.Trace != link.Trace || got.Span != uint64(tracespan.Root) {
			t.Errorf("%s: reply context = %+v, want trace %x span %d", ep.name, got, link.Trace, tracespan.Root)
		}
		tr := findTrace(t, u, tracespan.FormatTraceID(link.Trace))
		if !tr.Remote || tr.ParentSpan != 42 || tr.Op != "unite" || tr.Source != "rpc" {
			t.Errorf("%s: trace meta = remote=%v parent=%d op=%s source=%s", ep.name, tr.Remote, tr.ParentSpan, tr.Op, tr.Source)
		}
		assertSpanTree(t, tr)
		names := stageCounts(tr)
		for want, n := range map[string]int{"wire-decode": ep.wireDecode, "queue-wait": 1, "execute": 1, "reply-encode": 1} {
			if names[want] != n {
				t.Errorf("%s: stage %q count = %d, want %d (have %v)", ep.name, want, names[want], n, names)
			}
		}
		if tr.Spans[0].Attrs.Edges != 500 || tr.Spans[0].Attrs.Merged != rep.Merged {
			t.Errorf("%s: root attrs = %+v, want edges=500 merged=%d", ep.name, tr.Spans[0].Attrs, rep.Merged)
		}

		// Server-assigned identity: no link, the reply reports the server's.
		_, got, err = ep.query(c, dsu.QueryRequest{Pairs: testEdges(1000, 100, 8)}, dsu.TraceContext{})
		if err != nil {
			t.Fatalf("%s query: %v", ep.name, err)
		}
		if !got.Valid() {
			t.Fatalf("%s: reply carried no trace context from a traced tenant", ep.name)
		}
		qtr := findTrace(t, u, tracespan.FormatTraceID(got.Trace))
		if qtr.Remote || qtr.Op != "query" {
			t.Errorf("%s: query trace remote=%v op=%s, want local/query", ep.name, qtr.Remote, qtr.Op)
		}
		assertSpanTree(t, qtr)
	}
}

// TestStreamTracePropagation pins the stream path end to end: traced
// frames adopt the client's context, the batch's span tree covers seal →
// queue-wait → dispatch → execute → reply-encode, and the reply envelope
// reports the adopted identity.
func TestStreamTracePropagation(t *testing.T) {
	tracing := dsu.NewTracing()
	reg := dsu.NewRegistry(dsu.WithTracing(tracing))
	_, c := newTestServer(t, Config{Registry: reg})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "st", N: 1000}); err != nil {
		t.Fatal(err)
	}
	u, _ := reg.Get("st")

	var replies []*wire.Envelope
	var mu chan struct{} // buffered-1 as a mutex usable from the reader goroutine
	mu = make(chan struct{}, 1)
	st, err := c.OpenStream(ctx, "st", StreamConfig{Buffer: 64, OnReply: func(env *wire.Envelope) {
		// The envelope lives in the stream's pooled decoder and is only
		// valid during the callback — copy it out before retaining.
		cp := *env
		if env.Reply != nil {
			rep := *env.Reply
			cp.Reply = &rep
		}
		mu <- struct{}{}
		replies = append(replies, &cp)
		<-mu
	}})
	if err != nil {
		t.Fatal(err)
	}
	link := dsu.TraceContext{Trace: 0x5eed, Span: 3}
	edges := testEdges(1000, 64, 9)
	if err := st.PushLinked(link, edges...); err != nil {
		t.Fatal(err)
	}
	end, err := st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if end.Batches != 1 {
		t.Fatalf("end totals = %+v, want 1 batch", end)
	}
	tr := findTrace(t, u, tracespan.FormatTraceID(link.Trace))
	if !tr.Remote || tr.ParentSpan != 3 || tr.Source != "stream" {
		t.Errorf("trace meta = remote=%v parent=%d source=%s", tr.Remote, tr.ParentSpan, tr.Source)
	}
	assertSpanTree(t, tr)
	names := stageCounts(tr)
	for _, want := range []string{"seal", "queue-wait", "dispatch", "execute", "reply-encode"} {
		if names[want] != 1 {
			t.Errorf("stage %q count = %d, want 1 (have %v)", want, names[want], names)
		}
	}
	mu <- struct{}{}
	defer func() { <-mu }()
	if len(replies) != 1 {
		t.Fatalf("replies = %d, want 1", len(replies))
	}
	if replies[0].Trace != link.Trace || replies[0].Span != uint64(tracespan.Root) {
		t.Errorf("reply envelope context = %d/%d, want %d/root", replies[0].Trace, replies[0].Span, link.Trace)
	}
}

// TestUntracedTenantOverWire pins the disabled mode at the server: an
// untraced registry answers traced frames correctly, echoes no trace
// context, and records nothing.
func TestUntracedTenantOverWire(t *testing.T) {
	reg := dsu.NewRegistry()
	_, c := newTestServer(t, Config{Registry: reg})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "plain", N: 100}); err != nil {
		t.Fatal(err)
	}
	rep, got, err := c.UniteAllLinked(ctx, "plain",
		dsu.UniteRequest{Edges: []dsu.Edge{{X: 0, Y: 1}}}, dsu.TraceContext{Trace: 99, Span: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Merged != 1 {
		t.Errorf("merged = %d, want 1", rep.Merged)
	}
	if got.Valid() {
		t.Errorf("untraced tenant echoed trace context %+v", got)
	}
	u, _ := reg.Get("plain")
	if u.Traces() != nil {
		t.Error("untraced tenant recorded a trace")
	}
}

// TestServerLogging pins the slog surface: lifecycle events at Info
// carry tenant fields, RPC lines at Debug carry the trace ID.
func TestServerLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	tracing := dsu.NewTracing()
	reg := dsu.NewRegistry(dsu.WithTracing(tracing))
	_, c := newTestServer(t, Config{Registry: reg, Log: logger})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "logged", N: 100}); err != nil {
		t.Fatal(err)
	}
	link := dsu.TraceContext{Trace: 0xbeef, Span: 1}
	if _, _, err := c.UniteAllLinked(ctx, "logged",
		dsu.UniteRequest{Edges: []dsu.Edge{{X: 0, Y: 1}}}, link); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`msg="tenant created"`, `tenant=logged`,
		`msg=rpc`, `endpoint=unite`, `trace=` + tracespan.FormatTraceID(link.Trace),
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}
