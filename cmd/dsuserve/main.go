// Command dsuserve runs the network front end: an HTTP server exposing
// tenant-scoped disjoint-set universes — batched UniteAll/SameSetAll and
// streaming ingestion over the wire protocol's binary framing — to
// remote clients. Tenant administration and the observability endpoints
// speak JSON.
//
// Tenants are created remotely (POST /v1/tenants) or preloaded with
// repeatable -tenant flags:
//
//	dsuserve -addr :8080 \
//	    -tenant alpha:1000000 \
//	    -tenant beta:4000000:flat:auto \
//	    -tenant gamma:1000000:lockfree
//
// The spec is name:n[:kind[:find]] — kind is a structure-kind name per
// dsu.ParseKind ("flat" or "lockfree"; both build the same structure, and
// the names stay so that older specs parse); find names a strategy per
// dsu.ParseFindStrategy ("auto" is a compatibility name of "twotry", kept
// so that older specs parse).
// A spec the server cannot honour stops it at startup. A -tenant flag, like
// a remote create that names no seed, gets its random linking order from a
// seed drawn from crypto/rand. Every tenant is
// served under one policy: its RPCs take the per-tenant -inflight budget,
// and its stream batches run in seal order.
//
// With -data the server is durable: every tenant keeps a chunked,
// CRC-verified write-ahead log in the directory (<tenant>.dsulog), every
// mutation batch is logged before it is acknowledged (-fsync selects
// group commit, per-batch fsync, or OS-buffered), tenants snapshot
// automatically every -checkpoint-every logged edges (or on demand via
// POST .../checkpoint), and a restart — graceful or kill -9 — recovers
// every tenant before the listener opens. Inspect the logs with the
// dsulog command.
//
// With -metrics the process instruments every tenant and the front end
// itself and serves a Prometheus text exposition on /metrics — the dsu
// per-tenant series (batches, edges, merges, find steps, CAS retries,
// batch-latency histograms, stream gauges) and the server series
// (request latency, active streams, wire frames/bytes, budget pressure)
// on one page — plus a per-tenant totals line in the shutdown log. With
// -trace every batch records a span tree (queue-wait, seal, dispatch,
// execute with per-worker attribution, reply-encode) into a per-tenant
// ring served as JSON on /debug/traces; batches slower than -trace-slow
// are retained in a flight recorder beyond the ring's churn. With -pprof
// it additionally mounts net/http/pprof under /debug/pprof/ and expvar
// under /debug/vars. All are off by default: observability is opt-in,
// and the uninstrumented hot path pays nothing.
//
// Logs are structured (log/slog): lifecycle events at Info, per-RPC
// lines carrying tenant, endpoint, and trace ID at Debug (suppressed by
// -quiet). -log-format selects the text or JSON handler.
//
// A client gets 10 s to send its request headers, and an idle keep-alive
// connection is closed after 2 minutes, so a client that never finishes
// its headers cannot hold a connection and its goroutine indefinitely.
// There is no whole-request read or write deadline: stream and pipe
// requests are long-lived.
//
// On SIGINT/SIGTERM the server shuts down cleanly: open stream
// connections have their contexts cancelled (clients receive
// loss-reporting end envelopes — the dsu layer's Flush/Close cancellation
// errors, surfaced over the wire), then the listener drains.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/dsu"
	"repro/internal/server"
)

// Connection timeouts, fixed rather than flags (see the package docs).
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// tenantFlags collects repeatable -tenant specs.
type tenantFlags []string

func (t *tenantFlags) String() string     { return strings.Join(*t, ",") }
func (t *tenantFlags) Set(v string) error { *t = append(*t, v); return nil }

// parseTenant parses name:n[:kind[:find]], where kind is a structure-kind
// name (validated by the spec's Options translation).
func parseTenant(spec string) (server.TenantSpec, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 4 {
		return server.TenantSpec{}, fmt.Errorf("tenant spec %q: want name:n[:kind[:find]]", spec)
	}
	out := server.TenantSpec{Name: parts[0]}
	n, err := strconv.Atoi(parts[1])
	if err != nil {
		return server.TenantSpec{}, fmt.Errorf("tenant spec %q: bad n: %v", spec, err)
	}
	out.N = n
	if len(parts) >= 3 {
		out.Kind = parts[2]
	}
	if len(parts) == 4 {
		out.Find = parts[3]
	}
	return out, nil
}

// newLogger builds the process logger: text or JSON handler on stderr,
// Debug level unless quiet (per-RPC lines ride at Debug).
func newLogger(format string, quiet bool) (*slog.Logger, error) {
	lvl := slog.LevelDebug
	if quiet {
		lvl = slog.LevelInfo
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q: want text or json", format)
	}
}

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		tenants   tenantFlags
		maxFrame  = flag.Int("maxframe", 0, "wire frame size limit in bytes (0 = 16 MiB)")
		inflight  = flag.Int("inflight", 4, "per-tenant in-flight batch bound")
		buffer    = flag.Int("buffer", 0, "default stream seal threshold in edges (0 = 65536)")
		maxN      = flag.Int("maxn", 0, "largest universe a remote create may request (0 = 2²⁶)")
		drain     = flag.Duration("drain", 10*time.Second, "shutdown drain timeout")
		quiet     = flag.Bool("quiet", false, "suppress per-request (Debug) logging")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		withMet   = flag.Bool("metrics", false, "instrument tenants and the server; serve Prometheus text on /metrics")
		withTrace = flag.Bool("trace", false, "trace every batch into per-tenant rings; serve JSON on /debug/traces")
		traceSlow = flag.Duration("trace-slow", 0, "flight-recorder latency threshold with -trace (0 = 100ms)")
		withProf  = flag.Bool("pprof", false, "mount net/http/pprof on /debug/pprof/ and expvar on /debug/vars")
		dataDir   = flag.String("data", "", "durability directory: per-tenant write-ahead logs, recovery on start ('' = no persistence)")
		fsyncMode = flag.String("fsync", "group", "WAL durability policy with -data: group, none, or always")
		ckptEvery = flag.Int64("checkpoint-every", 1<<22, "snapshot a tenant after this many logged edges with -data (0 = on demand only)")
	)
	flag.Var(&tenants, "tenant", "preload a tenant, name:n[:kind[:find]] (repeatable)")
	flag.Parse()

	logger, err := newLogger(*logFormat, *quiet)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsuserve: %v\n", err)
		os.Exit(1)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	var met *dsu.Metrics
	var tracing *dsu.Tracing
	var regOpts []dsu.RegistryOption
	if *withMet {
		met = dsu.NewMetrics()
		regOpts = append(regOpts, dsu.WithMetrics(met))
	}
	if *withTrace {
		tracing = dsu.NewTracing(dsu.WithSlowThreshold(*traceSlow))
		regOpts = append(regOpts, dsu.WithTracing(tracing))
	}
	if *dataDir != "" {
		policy, err := dsu.ParseSyncPolicy(*fsyncMode)
		if err != nil {
			fatal("bad -fsync", "err", err)
		}
		regOpts = append(regOpts, dsu.WithDurability(*dataDir,
			dsu.WithSyncPolicy(policy), dsu.WithCheckpointEvery(*ckptEvery)))
	}
	reg := dsu.NewRegistry(regOpts...)
	if *dataDir != "" {
		// Recovery runs before the listener opens and before -tenant
		// preloads: every persisted tenant is back — latest snapshot plus
		// replayed tail — before the first request or flag can observe it.
		restored, err := reg.RestoreTenants()
		if err != nil {
			fatal("recovery failed", "err", err)
		}
		for _, name := range restored {
			u, _ := reg.Get(name)
			logger.Info("tenant recovered", "tenant", name, "n", u.N(), "seq", u.Seq())
		}
	}
	for _, spec := range tenants {
		ts, err := parseTenant(spec)
		if err != nil {
			fatal("bad tenant flag", "err", err)
		}
		// The same spec→option translation remote creates use, so
		// preloaded and remotely created tenants cannot drift.
		opts, err := ts.Options()
		if err != nil {
			fatal("bad tenant spec", "tenant", ts.Name, "err", err)
		}
		if u, ok := reg.Get(ts.Name); ok {
			// Recovery already brought this tenant back under its log's
			// recorded configuration; the flag is satisfied if the sizes
			// agree (a mismatch means the operator changed the spec under a
			// tenant whose history says otherwise — refuse to guess).
			if u.N() != ts.N {
				fatal("preload conflicts with recovered tenant", "tenant", ts.Name,
					"flag_n", ts.N, "recovered_n", u.N())
			}
			continue
		}
		u, err := reg.Create(ts.Name, ts.N, opts...)
		if err != nil {
			fatal("tenant create failed", "tenant", ts.Name, "err", err)
		}
		logger.Info("tenant ready", "tenant", u.Name(), "n", u.N())
	}

	srv := server.New(server.Config{
		Registry:     reg,
		MaxFrame:     *maxFrame,
		MaxInFlight:  *inflight,
		StreamBuffer: *buffer,
		MaxN:         *maxN,
		Metrics:      met,
		Log:          logger,
	})

	// The API stays at /; the observability endpoints mount beside it only
	// when asked for, and never on http.DefaultServeMux — what this process
	// serves is exactly what its flags say.
	var handler http.Handler = srv
	if *withMet || *withTrace || *withProf {
		mux := http.NewServeMux()
		mux.Handle("/", srv)
		if *withMet {
			mux.Handle("/metrics", met)
			logger.Info("metrics enabled", "endpoint", "/metrics")
		}
		if *withTrace {
			mux.Handle("/debug/traces", tracing)
			logger.Info("tracing enabled", "endpoint", "/debug/traces",
				"slow_threshold", tracing.SlowThreshold())
		}
		if *withProf {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			mux.Handle("/debug/vars", expvar.Handler())
			logger.Info("profiling enabled", "endpoints", "/debug/pprof/ /debug/vars")
		}
		handler = mux
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "tenants", reg.Len())
		errCh <- hs.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fatal("serve failed", "err", err)
	case s := <-sig:
		logger.Info("draining", "signal", s.String(), "budget", *drain)
	}

	// Stop cancels stream contexts so open connections end ingestion
	// promptly and answer loss-reporting end envelopes; Shutdown then
	// drains the listener and in-flight handlers.
	srv.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fatal("shutdown failed", "err", err)
	}
	// Seal every tenant's log (summary, footer, fsync): a sealed log
	// reopens through its index with no scan. A kill skips this — the next
	// start recovers by scanning the longest valid prefix instead.
	if *dataDir != "" {
		if err := reg.Close(); err != nil {
			fatal("sealing logs failed", "err", err)
		}
		logger.Info("logs sealed", "dir", *dataDir)
	}
	// One totals line per tenant — the lifetime accounting a scraper would
	// have read from /metrics, preserved in the shutdown log.
	if met != nil {
		for _, name := range reg.Names() {
			u, ok := reg.Get(name)
			if !ok {
				continue
			}
			tm := u.Metrics()
			logger.Info("tenant totals", "tenant", name,
				"unite_batches", tm.UniteBatches, "unite_edges", tm.UniteEdges,
				"merged", tm.Merged,
				"query_batches", tm.QueryBatches, "query_pairs", tm.QueryPairs,
				"find_steps", tm.FindSteps, "cas_retries", tm.CASRetries, "sets", u.Sets())
		}
	}
	logger.Info("bye")
}
