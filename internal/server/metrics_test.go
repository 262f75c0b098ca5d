package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/dsu"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// scrape renders the exposition and returns it as text.
func scrape(t *testing.T, m *dsu.Metrics) string {
	t.Helper()
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != metrics.TextContentType {
		t.Errorf("scrape Content-Type = %q, want %q", ct, metrics.TextContentType)
	}
	return rec.Body.String()
}

// seriesValue extracts one sample's value from an exposition.
func seriesValue(t *testing.T, text, series string) int64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\d+)$`)
	match := re.FindStringSubmatch(text)
	if match == nil {
		t.Fatalf("exposition has no series %q", series)
	}
	v, err := strconv.ParseInt(match[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// The series a finished stream leaves on the server side: its request
// recorded, and the active-stream gauge back to zero.
const (
	streamDone  = `dsu_server_request_seconds_count{endpoint="stream",status="200"} 1`
	streamsIdle = `dsu_server_streams_active 0`
)

// TestMetricsScrape drives RPC and stream traffic through an
// instrumented server and checks that one scrape carries both halves of
// the story — the dsu per-tenant series agreeing with the replies the
// client got, and the server's own request/frame/byte accounting.
func TestMetricsScrape(t *testing.T) {
	m := dsu.NewMetrics()
	_, c := newTestServer(t, Config{
		Registry: dsu.NewRegistry(dsu.WithMetrics(m)),
		Metrics:  m,
	})
	ctx := context.Background()

	const n = 500
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "alpha", N: n}); err != nil {
		t.Fatal(err)
	}

	// RPC traffic: three unite batches and one query, keeping the reply
	// totals the scrape must agree with.
	var merged, edges int64
	for i := 0; i < 3; i++ {
		rep, err := c.UniteAll(ctx, "alpha", dsu.UniteRequest{Edges: testEdges(n, 200, int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		merged += rep.Merged
		edges += 200
	}
	if _, err := c.SameSetAll(ctx, "alpha", dsu.QueryRequest{Pairs: testEdges(n, 100, 9)}); err != nil {
		t.Fatal(err)
	}

	// Stream traffic: one connection, two sealed batches.
	st, err := c.OpenStream(ctx, "alpha", StreamConfig{Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	streamEdges := testEdges(n, 128, 11)
	if err := st.Push(streamEdges...); err != nil {
		t.Fatal(err)
	}
	end, err := st.Close()
	if err != nil {
		t.Fatal(err)
	}
	merged += end.Merged
	edges += end.Edges

	// Close returns once the end envelope arrives, which can be before
	// the server's handler wrapper has retired the stream gauge and
	// recorded the request: poll the scrape, bounded, until the stream's
	// server-side series have landed.
	text := scrape(t, m)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if strings.Contains(text, streamDone) && strings.Contains(text, streamsIdle) {
			break
		}
		time.Sleep(time.Millisecond)
		text = scrape(t, m)
	}

	// The dsu half: scrape totals equal the summed reply values.
	if got := seriesValue(t, text, `dsu_batches_total{tenant="alpha",op="unite"}`); got != 3+int64(end.Batches) {
		t.Errorf("unite batches = %d, want %d", got, 3+end.Batches)
	}
	if got := seriesValue(t, text, `dsu_batch_edges_total{tenant="alpha",op="unite"}`); got != edges {
		t.Errorf("unite edges = %d, want %d", got, edges)
	}
	if got := seriesValue(t, text, `dsu_merged_edges_total{tenant="alpha"}`); got != merged {
		t.Errorf("merged = %d, want %d", got, merged)
	}
	if got := seriesValue(t, text, `dsu_batches_total{tenant="alpha",op="query"}`); got != 1 {
		t.Errorf("query batches = %d, want 1", got)
	}

	// The server half: every endpoint that served traffic has latency
	// samples, the wire moved frames and bytes both ways, and the stream
	// gauge is back to zero now the connection is gone.
	for _, series := range []string{
		`dsu_server_request_seconds_count{endpoint="unite",status="200"} 3`,
		`dsu_server_request_seconds_count{endpoint="query",status="200"} 1`,
		streamDone,
		streamsIdle,
		`dsu_server_rpc_inflight{tenant="alpha"} 0`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition missing %q", series)
		}
	}
	// RPC + stream frames: 3 unite + 1 query + the stream's unite frames in;
	// 4 RPC replies + per-batch replies + the end envelope out.
	if in := seriesValue(t, text, `dsu_server_frames_total{dir="in"}`); in < 5 {
		t.Errorf("frames in = %d, want ≥ 5", in)
	}
	if out := seriesValue(t, text, `dsu_server_frames_total{dir="out"}`); out < 5 {
		t.Errorf("frames out = %d, want ≥ 5", out)
	}
	if b := seriesValue(t, text, `dsu_server_bytes_total{dir="in"}`); b == 0 {
		t.Error("no wire bytes counted in")
	}
	if b := seriesValue(t, text, `dsu_server_bytes_total{dir="out"}`); b == 0 {
		t.Error("no wire bytes counted out")
	}
}

// TestMetricsDecodeErrors checks the rejected-frame counter: garbage on
// the RPC endpoint is a decode error, and the request still gets its
// latency sample under the 4xx status.
func TestMetricsDecodeErrors(t *testing.T) {
	m := dsu.NewMetrics()
	s, c := newTestServer(t, Config{
		Registry: dsu.NewRegistry(dsu.WithMetrics(m)),
		Metrics:  m,
	})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "alpha", N: 100}); err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest("POST", "/v1/tenants/alpha/unite", strings.NewReader("not a frame"))
	req.Header.Set("Content-Type", "application/x-dsu-batch")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 400 {
		t.Fatalf("garbage frame status = %d, want 400", rec.Code)
	}

	text := scrape(t, m)
	if got := seriesValue(t, text, `dsu_server_decode_errors_total`); got != 1 {
		t.Errorf("decode errors = %d, want 1", got)
	}
	if !strings.Contains(text, `dsu_server_request_seconds_count{endpoint="unite",status="400"} 1`) {
		t.Error("exposition missing the 400 latency sample")
	}
}

// TestEndpointClassification pins the bounded label set — tenant names
// must never leak into the endpoint label.
func TestEndpointClassification(t *testing.T) {
	cases := map[string]string{
		"/healthz":                      "healthz",
		"/v1/tenants":                   "tenants",
		"/v1/tenants/":                  "tenants",
		"/v1/tenants/alpha":             "tenant",
		"/v1/tenants/alpha/labels":      "labels",
		"/v1/tenants/alpha/unite":       "unite",
		"/v1/tenants/alpha/query":       "query",
		"/v1/tenants/alpha/stream":      "stream",
		"/v1/tenants/alpha/pipe":        "pipe",
		"/v1/tenants/alpha/checkpoint":  "checkpoint",
		"/v1/tenants/alpha/whatever":    "other",
		"/completely/unrelated":         "other",
		"/v1/tenants/weird.name/query":  "query",
		"/v1/tenants/alpha/unite/extra": "other",
	}
	for path, want := range cases {
		if got := endpointOf(path); got != want {
			t.Errorf("endpointOf(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestMetricsRPCWaits saturates one tenant's in-flight budget and checks
// the saturation counter moved.
func TestMetricsRPCWaits(t *testing.T) {
	m := dsu.NewMetrics()
	_, c := newTestServer(t, Config{
		Registry:    dsu.NewRegistry(dsu.WithMetrics(m)),
		Metrics:     m,
		MaxInFlight: 1,
	})
	ctx := context.Background()
	const n = 20000
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "alpha", N: n}); err != nil {
		t.Fatal(err)
	}

	// Enough concurrent RPCs against a budget of one that some must wait.
	const clients = 8
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			_, err := c.UniteAll(ctx, "alpha", dsu.UniteRequest{Edges: testEdges(n, 5000, int64(i))})
			errs <- err
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	text := scrape(t, m)
	// The counter (and its child series) appears only once a wait actually
	// happened; with a budget of one and eight overlapping RPCs that is
	// near-certain, but scheduling may serialize them, so absence is a
	// tolerated outcome, not a failure.
	re := regexp.MustCompile(`(?m)^dsu_server_rpc_waits_total\{tenant="alpha"\} (\d+)$`)
	if match := re.FindStringSubmatch(text); match == nil {
		t.Log("budget never saturated (scheduling); series absent")
	} else if got, _ := strconv.ParseInt(match[1], 10, 64); got < 1 || got > clients {
		t.Errorf("rpc waits = %d, want 1..%d", got, clients)
	}
	if fmt.Sprint(seriesValue(t, text, `dsu_batches_total{tenant="alpha",op="unite"}`)) != fmt.Sprint(clients) {
		t.Errorf("unite batches lost under contention")
	}
}

// TestMetricsBudgetWaitsCounted pins the wait counter deterministically on
// both batch paths: with its tenant's budget held, a single-shot unite and
// a piped unite are each counted as a wait while they queue, and each
// completes once the budget is released.
func TestMetricsBudgetWaitsCounted(t *testing.T) {
	m := dsu.NewMetrics()
	s, c := newTestServer(t, Config{
		Registry:    dsu.NewRegistry(dsu.WithMetrics(m)),
		Metrics:     m,
		MaxInFlight: 1,
	})
	ctx := context.Background()
	req := dsu.UniteRequest{Edges: []dsu.Edge{{X: 0, Y: 1}}}
	for _, tc := range []struct {
		tenant string
		kind   string
		send   func() error
	}{
		{"rpc", "", func() error {
			_, err := c.UniteAll(ctx, "rpc", req)
			return err
		}},
		// A tenant created under the older lock-free kind name takes the
		// same budget: the server has one admission policy.
		{"lockfree", "lockfree", func() error {
			_, err := c.UniteAll(ctx, "lockfree", req)
			return err
		}},
		{"pipe", "", func() error {
			var replyErr error // set by the reader goroutine, read after Close
			cp, err := c.OpenPipe(ctx, "pipe", PipeConfig{OnReply: func(env *wire.Envelope) {
				if env.Kind != wire.KindReply {
					replyErr = fmt.Errorf("piped unite answered %v: %s", env.Kind, env.Error)
				}
			}})
			if err != nil {
				return err
			}
			if _, err := cp.UniteAll(req); err != nil {
				return err
			}
			if err := cp.Close(); err != nil {
				return err
			}
			return replyErr
		}},
	} {
		t.Run(tc.tenant, func(t *testing.T) {
			if _, err := c.CreateTenant(ctx, TenantSpec{Name: tc.tenant, N: 10, Kind: tc.kind}); err != nil {
				t.Fatal(err)
			}
			sem := s.sem(tc.tenant)
			sem <- struct{}{} // hold the whole budget
			done := make(chan error, 1)
			go func() { done <- tc.send() }()

			waited := `dsu_server_rpc_waits_total{tenant="` + tc.tenant + `"} 1`
			counted := false
			for deadline := time.Now().Add(5 * time.Second); !counted && time.Now().Before(deadline); {
				counted = strings.Contains(scrape(t, m), waited)
				time.Sleep(time.Millisecond)
			}
			<-sem // release, so the queued request finishes either way
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if !counted {
				t.Errorf("a %s request queued on a full budget was never counted: exposition lacks %q", tc.tenant, waited)
			}
		})
	}
}
