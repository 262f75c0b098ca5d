// Package server is the network front end: a stdlib net/http service
// exposing the dsu package's tenant-scoped Universe API — named
// universes, batched UniteAll/SameSetAll, and streaming ingestion — to
// remote clients over the wire package's length-prefixed binary framing.
//
// # Surface
//
//	GET    /healthz                     liveness
//	GET    /v1/tenants                  list tenants
//	POST   /v1/tenants                  create a tenant (TenantSpec JSON)
//	GET    /v1/tenants/{name}           tenant info (TenantInfo JSON)
//	DELETE /v1/tenants/{name}           drop a tenant
//	GET    /v1/tenants/{name}/labels    canonical labels (JSON; quiescent)
//	POST   /v1/tenants/{name}/unite     one framed UniteRequest → framed reply
//	POST   /v1/tenants/{name}/query     one framed QueryRequest → framed reply
//	POST   /v1/tenants/{name}/stream    full-duplex edge stream (see below)
//	POST   /v1/tenants/{name}/pipe      pipelined batch RPC (see below)
//	POST   /v1/tenants/{name}/checkpoint  snapshot a durable tenant's log
//
// The unite/query endpoints are batch RPC: one request envelope in the
// body, one reply (or error) envelope back. The four data-plane URLs
// (unite, query, stream, pipe) take bodies of type
// application/x-dsu-batch (or no Content-Type at all) and refuse any other
// type with 415; once the server stops, they refuse with 503 before
// reading a frame. Tenant administration, labels, and the observability
// endpoints speak JSON. Any transport-level problem is a plain HTTP
// status; once a well-formed envelope arrives, outcomes travel as
// envelopes.
//
// # Pipelining
//
// The pipe endpoint is batch RPC without the per-exchange round trip:
// one full-duplex connection carries any number of unite/query
// envelopes, each answered in arrival order by a reply (or error)
// envelope echoing its Seq. The client needn't wait for a reply before
// sending the next request, so small-frame workloads amortize the HTTP
// exchange cost that dominates them (E22); reply frames are coalesced by
// a flush-on-idle writer, so bursts of small replies leave in one write.
// A request that fails validation answers an error envelope and the pipe
// carries on; a malformed frame or a non-unite/query kind answers an
// error envelope and ends the pipe. Closing the request body ends the
// pipe cleanly after the last reply. A piped request runs through the
// same batch function as single-shot RPC: budgets, metrics, traces alike.
//
// # Streaming and backpressure
//
// The stream endpoint runs one dsu.Stream per connection over the
// tenant's universe: unite frames push edges into the stream's
// double-buffered batches, flush frames seal early, and each executed
// batch answers with a reply envelope (Seq = batch id) written as it
// completes, in seal order. Backpressure is end to end — when the stream
// is MaxInFlight batches ahead, the handler blocks in Push, stops reading
// the request body, and TCP pushes back on the producer. Closing the
// request body drains the stream and answers a final end envelope
// carrying the ingestion totals; Stop (server shutdown) cancels the
// stream context, which ends ingestion promptly (the loop selects against
// the context, so even a push-only connection blocked in a body read
// observes it), surfaces the dsu layer's Flush/Close cancellation errors,
// and reports the abort and any lost batches in the end envelope — the
// clean-shutdown path those cancellation errors exist for.
//
// # Isolation
//
// Tenants are isolated structurally: each universe owns its structure,
// and nothing is shared across names (the dsu.Registry's contract). The
// server adds resource isolation: every tenant has its own bounded
// in-flight budget (MaxInFlight) for batch requests, single-shot or
// piped, so one tenant's burst queues against itself, not against other
// tenants; streams bound in-flight batches per connection by
// construction. Requests are validated against the tenant's universe
// before execution — a remote frame can never reach the wait-free core's
// unchecked indexing. Every tenant is served under this one policy,
// whatever kind name its spec gave: the structure takes overlapping
// batches safely, and the budget is what bounds how many of them — each
// with up to dsu.MaxBatchWorkers goroutines — one tenant runs at once.
package server

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/dsu"
	"repro/internal/metrics"
	"repro/internal/tracespan"
	"repro/internal/wire"
)

// Config tunes one Server. The zero value of every field selects a
// sensible default; Registry is required.
type Config struct {
	// Registry holds the tenants. Preload it (cmd/dsuserve's -tenant
	// flags) or let clients create tenants remotely.
	Registry *dsu.Registry
	// MaxFrame bounds one wire message; ≤ 0 selects wire.DefaultMaxFrame.
	MaxFrame int
	// MaxInFlight bounds, per tenant, the batch requests (single-shot or
	// piped) executing concurrently, and caps the per-connection in-flight
	// bound a stream may request; ≤ 0 selects 4.
	MaxInFlight int
	// StreamBuffer is the default stream seal threshold in edges; ≤ 0
	// selects the dsu default (65536). Connections may override with the
	// ?buffer= query parameter, clamped to MaxFrame's edge capacity.
	StreamBuffer int
	// MaxN caps the universe size a remote tenant create may request —
	// structure allocation is synchronous and proportional to n, so an
	// unauthenticated create must not be able to reserve arbitrary
	// memory. ≤ 0 selects 1<<26 (~67M elements, ~0.25 GiB per
	// structure). Preloaded tenants (the operator's own flags) are not
	// subject to it.
	MaxN int
	// Log, when non-nil, receives structured log records: tenant
	// lifecycle and stream open/close at Info, per-RPC lines (tenant,
	// endpoint, trace ID, outcome) at Debug. Nil disables logging at
	// zero cost.
	Log *slog.Logger
	// Metrics, when non-nil, instruments the front end onto the same
	// registry that carries the dsu per-tenant series (pass the same
	// *dsu.Metrics given to dsu.WithMetrics), so one /metrics scrape
	// covers the whole stack: request latency by endpoint and status,
	// active streams, wire frames and bytes in/out, decode errors, and
	// per-tenant batch budget pressure. Nil leaves the server
	// uninstrumented at zero cost.
	Metrics *dsu.Metrics
}

// Server is the HTTP front end. Create with New; it is an http.Handler.
type Server struct {
	cfg  Config
	reg  *dsu.Registry
	log  *slog.Logger    // never nil (no-op handler when Config.Log is nil)
	m    *serverMetrics  // nil when uninstrumented
	ctx  context.Context // ends at Stop
	stop context.CancelFunc
	sems sync.Map // tenant name → chan struct{} (batch in-flight budget)
}

// noopHandler is the disabled logging mode: a handler that reports every
// level disabled, so call sites need no nil checks and pay no argument
// evaluation (slog checks Enabled before assembling the record).
type noopHandler struct{}

func (noopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (noopHandler) Handle(context.Context, slog.Record) error { return nil }
func (noopHandler) WithAttrs([]slog.Attr) slog.Handler        { return noopHandler{} }
func (noopHandler) WithGroup(string) slog.Handler             { return noopHandler{} }

// New returns a server over cfg.Registry. It panics on a nil registry —
// that is a programming error, not a runtime condition.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		panic("server: Config.Registry is required")
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = wire.DefaultMaxFrame
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4
	}
	if cfg.MaxN <= 0 {
		cfg.MaxN = 1 << 26
	}
	s := &Server{cfg: cfg, reg: cfg.Registry, log: cfg.Log}
	s.ctx, s.stop = context.WithCancel(context.Background())
	if s.log == nil {
		s.log = slog.New(noopHandler{})
	}
	if cfg.Metrics != nil {
		s.m = newServerMetrics(cfg.Metrics.Registry())
	}
	return s
}

// Stop begins shutdown: stream and pipe connections have their contexts
// cancelled (stream clients get loss-reporting end envelopes, pipe
// clients an abort envelope), batch requests waiting on in-flight budgets
// abort, and new data-plane requests are refused with 503. Pair with
// http.Server.Shutdown, which handles the listener and in-flight
// handlers. Idempotent.
func (s *Server) Stop() { s.stop() }

// TenantSpec is the JSON body of POST /v1/tenants: the tenant name plus
// the structure configuration, phrased in the dsu option vocabulary's
// wire-friendly form. Kind names the structure kind per dsu.ParseKind
// ("flat" or "lockfree"; both build the same structure, and the field
// stays so that older specs are accepted). Find names a strategy per
// dsu.ParseFindStrategy ("auto" is a compatibility name of "twotry"); Seed fixes
// the random linking order for reproducible tenants, and a spec without
// one gets a seed no client can know (see Options) — or, when it
// re-creates a dropped durable tenant, the seed the tenant's log records,
// so the create recovers it. POST /v1/tenants refuses a body naming any
// other field.
type TenantSpec struct {
	Name             string `json:"name"`
	N                int    `json:"n"`
	Kind             string `json:"kind,omitempty"`
	Find             string `json:"find,omitempty"`
	EarlyTermination bool   `json:"early_termination,omitempty"`
	Seed             uint64 `json:"seed,omitempty"`
}

// errSeed marks a failed draw of a tenant seed: the server's fault, not
// the spec's.
var errSeed = errors.New("drawing a tenant seed")

// Options translates the spec into the dsu option vocabulary — the one
// translation both remote creates and cmd/dsuserve's preload flags use,
// so the two paths cannot drift. A spec without a seed gets one drawn
// from crypto/rand. The paper's bounds assume a linking order independent
// of the operations; under the fixed default seed in the source, anyone
// could compute a tenant's order and send unites that build a chain of n
// nodes. A durable tenant's log header records the seed, so recovery
// rebuilds the same order, and TenantInfo does not expose it. A failed
// draw is an error, never a fall-back to the default.
func (sp TenantSpec) Options() ([]dsu.Option, error) { return sp.options(rand.Reader) }

// options is Options drawing a missing seed from entropy.
func (sp TenantSpec) options(entropy io.Reader) ([]dsu.Option, error) {
	find, err := dsu.ParseFindStrategy(sp.Find)
	if err != nil {
		return nil, err
	}
	kind, err := dsu.ParseKind(sp.Kind)
	if err != nil {
		return nil, err
	}
	var opts []dsu.Option
	if kind != 0 {
		opts = append(opts, dsu.WithKind(kind))
	}
	if find != 0 {
		opts = append(opts, dsu.WithFind(find))
	}
	if sp.EarlyTermination {
		opts = append(opts, dsu.WithEarlyTermination())
	}
	seed := sp.Seed
	if seed == 0 {
		var b [8]byte
		if _, err := io.ReadFull(entropy, b[:]); err != nil {
			return nil, fmt.Errorf("%w: %v", errSeed, err)
		}
		seed = binary.LittleEndian.Uint64(b[:])
	}
	return append(opts, dsu.WithSeed(seed)), nil
}

// TenantInfo describes one tenant in list/info responses.
type TenantInfo struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	Sets int    `json:"sets"`
	// Seq is the tenant's applied-batch sequence number — on a durable
	// tenant, the durable log position. Operators compare it across
	// replicas or against a log's dsulog info output.
	Seq uint64 `json:"seq"`
	// Durable reports whether the tenant persists its mutations to a
	// write-ahead log (the server was started with -data).
	Durable bool `json:"durable,omitempty"`
}

func infoOf(u *dsu.Universe) TenantInfo {
	return TenantInfo{
		Name:    u.Name(),
		N:       u.N(),
		Sets:    u.Sets(),
		Seq:     u.Seq(),
		Durable: u.Durable(),
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// ServeHTTP routes the request; when the server is instrumented it also
// times the whole exchange into the latency histogram, labeled by
// endpoint class and final HTTP status.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.m == nil {
		s.route(w, r)
		return
	}
	start := time.Now()
	sr := &statusRecorder{ResponseWriter: w}
	s.route(sr, r)
	s.m.latency.With(endpointOf(r.URL.Path), strconv.Itoa(sr.status())).
		Observe(time.Since(start).Seconds())
}

func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/healthz":
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	case path == "/v1/tenants" || path == "/v1/tenants/":
		s.handleTenants(w, r)
	case strings.HasPrefix(path, "/v1/tenants/"):
		rest := strings.TrimPrefix(path, "/v1/tenants/")
		name, action, _ := strings.Cut(rest, "/")
		if !dsu.ValidTenantName(name) {
			refuse(w, "invalid tenant name", http.StatusBadRequest)
			return
		}
		u, ok := s.reg.Get(name)
		if !ok {
			refuse(w, fmt.Sprintf("tenant %q not found", name), http.StatusNotFound)
			return
		}
		switch action {
		case "":
			s.handleTenant(w, r, u)
		case "labels":
			if r.Method != http.MethodGet {
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			writeJSON(w, http.StatusOK, u.CanonicalLabels())
		case "unite", "query", "stream", "pipe":
			// The data plane: binary-framed requests. After Stop every URL
			// refuses here, before a frame is read or a connection opens;
			// batch repeats the check for requests already inside a pipe.
			if r.Method != http.MethodPost {
				refuse(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			if !wire.FormatFor(r.Header.Get("Content-Type")) {
				refuse(w, "unsupported content type (want "+wire.ContentTypeBinary+")", http.StatusUnsupportedMediaType)
				return
			}
			if s.ctx.Err() != nil {
				refuse(w, "server shutting down", http.StatusServiceUnavailable)
				return
			}
			switch action {
			case "unite":
				s.handleRPC(w, r, u, wire.KindUnite)
			case "query":
				s.handleRPC(w, r, u, wire.KindQuery)
			case "stream":
				s.handleStream(w, r, u)
			default:
				s.handlePipe(w, r, u)
			}
		case "checkpoint":
			s.handleCheckpoint(w, r, u)
		default:
			http.Error(w, "unknown action", http.StatusNotFound)
		}
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

// refuse answers a request whose body the server will not read, on a
// connection that closes with the answer. The body may still be
// streaming: a stream or pipe client writes it while it waits for the
// status. Left open, the connection would have net/http drain that body
// before the status goes out, and the client ends its body only after it
// sees the status.
func refuse(w http.ResponseWriter, msg string, code int) {
	w.Header().Set("Connection", "close")
	http.Error(w, msg, code)
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		infos := make([]TenantInfo, 0)
		for _, name := range s.reg.Names() {
			if u, ok := s.reg.Get(name); ok {
				infos = append(infos, infoOf(u))
			}
		}
		writeJSON(w, http.StatusOK, infos)
	case http.MethodPost:
		var spec TenantSpec
		dec := json.NewDecoder(io.LimitReader(r.Body, 1<<16))
		dec.DisallowUnknownFields() // a knob the server lacks must not be dropped silently
		if err := dec.Decode(&spec); err != nil {
			http.Error(w, "bad tenant spec: "+err.Error(), http.StatusBadRequest)
			return
		}
		if !dsu.ValidTenantName(spec.Name) {
			http.Error(w, "invalid tenant name", http.StatusBadRequest)
			return
		}
		if spec.N > s.cfg.MaxN {
			http.Error(w, fmt.Sprintf("universe size %d exceeds this server's limit of %d", spec.N, s.cfg.MaxN), http.StatusBadRequest)
			return
		}
		if spec.Seed == 0 {
			// A dropped durable tenant's log stays on disk, and this
			// create recovers it: under the seed the log records, since
			// a drawn one would not match it.
			spec.Seed, _ = s.reg.LoggedSeed(spec.Name)
		}
		opts, err := spec.Options()
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, errSeed) {
				status = http.StatusInternalServerError
			}
			http.Error(w, err.Error(), status)
			return
		}
		u, err := s.reg.Create(spec.Name, spec.N, opts...)
		if err != nil {
			switch {
			case errors.Is(err, dsu.ErrExists):
				http.Error(w, err.Error(), http.StatusConflict)
			case !s.storageFailure(w, "tenant create", spec.Name, err):
				http.Error(w, err.Error(), http.StatusBadRequest)
			}
			return
		}
		s.log.Info("tenant created", "tenant", u.Name(), "n", u.N())
		writeJSON(w, http.StatusCreated, infoOf(u))
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleTenant(w http.ResponseWriter, r *http.Request, u *dsu.Universe) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, infoOf(u))
	case http.MethodDelete:
		s.reg.Drop(u.Name())
		s.sems.Delete(u.Name())
		s.log.Info("tenant dropped", "tenant", u.Name())
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// storageError reports whether err carries a file-system error, whose
// text names a path on the server. If it does, the detail goes to the
// log, and the returned text, which names what failed and no path, is
// what the client reads instead.
func (s *Server) storageError(what, tenant string, err error) (string, bool) {
	var pe *fs.PathError
	if !errors.As(err, &pe) {
		return "", false
	}
	s.log.Error(what+" failed", "tenant", tenant, "err", err)
	return what + " failed: storage error (detail in the server log)", true
}

// storageFailure answers err with a 500 and reports true when err
// carries a file-system error (storageError).
func (s *Server) storageFailure(w http.ResponseWriter, what, tenant string, err error) bool {
	msg, ok := s.storageError(what, tenant, err)
	if ok {
		http.Error(w, msg, http.StatusInternalServerError)
	}
	return ok
}

// errorText is the text a data-plane error envelope carries for a
// refused batch: err's own, unless err carries a file-system error
// (storageError). Once a write failure poisons a durable tenant's log,
// every later mutation is refused with an error naming the log's path.
func (s *Server) errorText(what, tenant string, err error) string {
	if msg, ok := s.storageError(what, tenant, err); ok {
		return msg
	}
	return err.Error()
}

// handleCheckpoint snapshots a durable tenant's log on demand: the dsu
// layer quiesces the structure (in-flight mutation batches drain, new
// ones hold briefly) and writes a durable snapshot, bounding recovery
// time for everything logged so far. 204 on success, 409 on a
// non-durable tenant, 500 when the snapshot write fails (the log is
// poisoned; subsequent mutations will fail too).
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request, u *dsu.Universe) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	switch err := u.Checkpoint(); {
	case err == nil:
		s.log.Info("checkpoint", "tenant", u.Name(), "seq", u.Seq())
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, dsu.ErrNotDurable):
		http.Error(w, err.Error(), http.StatusConflict)
	case !s.storageFailure(w, "checkpoint", u.Name(), err):
		s.log.Error("checkpoint failed", "tenant", u.Name(), "err", err)
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// traceOp names a batch envelope's trace.
func traceOp(k wire.Kind) string {
	if k == wire.KindUnite {
		return tracespan.OpUnite
	}
	return tracespan.OpQuery
}

// sem returns the tenant's in-flight budget, shared by its RPCs and pipes.
func (s *Server) sem(name string) chan struct{} {
	if v, ok := s.sems.Load(name); ok {
		return v.(chan struct{})
	}
	v, _ := s.sems.LoadOrStore(name, make(chan struct{}, s.cfg.MaxInFlight))
	return v.(chan struct{})
}

// tenant is what serving a batch request needs of its tenant, resolved
// once per /unite or /query request and once per pipe connection.
type tenant struct {
	u        *dsu.Universe
	sem      chan struct{}  // in-flight budget
	inflight *metrics.Gauge // nil when uninstrumented
}

func (s *Server) tenant(u *dsu.Universe) tenant {
	t := tenant{u: u, sem: s.sem(u.Name())}
	if s.m != nil {
		t.inflight = s.m.rpcInFlight.With(u.Name())
	}
	return t
}

// replier answers through one encoder, serialized by mu: a stream's
// dispatcher goroutine answers alongside its serve loop. Replies reuse env
// and rep (Encode does not retain them), so a pipe answers allocation-free.
type replier struct {
	s   *Server
	mu  sync.Mutex
	enc *wire.Encoder
	env wire.Envelope
	rep dsu.BatchReply
}

func (o *replier) write(env *wire.Envelope) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.enc.Encode(env) == nil {
		o.s.frameOut()
	}
}

// reply answers an executed batch under its trace's reply-encode span; the
// envelope reports the trace's identity back to the client.
func (o *replier) reply(seq uint64, rep *dsu.BatchReply, tr *tracespan.Trace) {
	re := tr.Start(tracespan.StageReplyEncode, tracespan.Root)
	c := tr.Context() // zero on an untraced batch
	o.mu.Lock()
	o.env = wire.Envelope{Kind: wire.KindReply, Seq: seq, Reply: rep, Trace: c.Trace, Span: c.Span}
	if o.enc.Encode(&o.env) == nil {
		o.s.frameOut()
	}
	o.mu.Unlock()
	tr.End(re)
}

// handleRPC answers one framed batch request. Envelope kind must match
// the endpoint — /unite carries unite envelopes, /query query envelopes —
// so a misrouted frame fails loudly instead of mutating the wrong way.
//
// On a traced tenant the exchange records one span tree: the trace opens
// before the frame is decoded (wire-decode span) and adopts the client's
// trace context if the envelope carried one; batch records the rest.
// Exchanges that fail before execution — bad frames, kind mismatches —
// drop their trace unrecorded: there is no batch to explain.
func (s *Server) handleRPC(w http.ResponseWriter, r *http.Request, u *dsu.Universe, want wire.Kind) {
	tr := u.TraceRecorder().Start(traceOp(want), tracespan.SourceRPC) // nil (all no-ops) on an untraced tenant
	wd := tr.Start(tracespan.StageWireDecode, tracespan.Root)
	// Pooled codec: the request envelope lives in decoder scratch, which
	// is safe here because execution is synchronous and the dsu layer
	// does not retain the edge slice past the call.
	dec := wire.AcquireDecoder(s.wireBody(r.Body), wire.Binary, s.cfg.MaxFrame)
	defer wire.ReleaseDecoder(dec)
	env, err := dec.Decode()
	tr.End(wd)
	if err != nil {
		s.decodeError()
		http.Error(w, "bad frame: "+err.Error(), http.StatusBadRequest)
		return
	}
	s.frameIn()
	if env.Kind != want {
		http.Error(w, fmt.Sprintf("endpoint wants %v envelopes, got %v", want, env.Kind), http.StatusBadRequest)
		return
	}
	tr.Adopt(tracespan.Context{Trace: env.Trace, Span: env.Span})
	w.Header().Set("Content-Type", wire.ContentTypeBinary)
	out := &replier{s: s, enc: wire.AcquireEncoder(s.wireWriter(w), wire.Binary)}
	defer wire.ReleaseEncoder(out.enc)
	switch s.batch(r.Context(), s.tenant(u), env, tr, out) {
	case http.StatusServiceUnavailable:
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
	case http.StatusRequestTimeout:
		http.Error(w, "client went away", http.StatusRequestTimeout)
	}
}

// batch serves one unite or query envelope — a /unite or /query request,
// or one request on a pipe: budget admission, execution, and the reply or
// error envelope echoing env.Seq, sent through out. tr is the request's
// trace, started and adopted by the caller; batch records its queue-wait,
// execute and reply-encode spans and finishes it. The budget slot is
// released after execution, before the reply encodes, so a client slow to
// read its reply holds no other request of its tenant back.
//
// A nonzero result is the HTTP status of a request that never ran: 503
// once the server stops, 408 when ctx ends first (the client left). Its
// trace, like a rejected batch's, is dropped unrecorded.
func (s *Server) batch(ctx context.Context, t tenant, env *wire.Envelope, tr *tracespan.Trace, out *replier) int {
	qw := tr.Start(tracespan.StageQueueWait, tracespan.Root)
	if s.ctx.Err() != nil {
		return http.StatusServiceUnavailable
	}
	// Per-tenant bounded in-flight: a burst queues against its own tenant's
	// budget (or gives up with the client), never against other tenants.
	select {
	case t.sem <- struct{}{}:
	default:
		// Budget full: the saturation counter records the event —
		// dsu_server_rpc_waits_total climbing is the signal to raise
		// MaxInFlight or split the tenant — then wait like before.
		if s.m != nil {
			s.m.rpcWaits.With(t.u.Name()).Inc()
		}
		select {
		case t.sem <- struct{}{}:
		case <-ctx.Done():
			return http.StatusRequestTimeout
		case <-s.ctx.Done():
			return http.StatusServiceUnavailable
		}
	}
	tr.End(qw)

	t.inflight.Inc()
	var err error
	var edges int
	if env.Kind == wire.KindUnite {
		edges = len(env.Unite.Edges)
		out.rep, err = t.u.UniteAllTraced(*env.Unite, tr)
	} else {
		edges = len(env.Query.Pairs)
		out.rep, err = t.u.SameSetAllTraced(*env.Query, tr)
	}
	t.inflight.Dec()
	<-t.sem
	if err != nil {
		// Rejected before it applied (validation, or a durability failure):
		// nothing is poisoned, the error envelope is the whole story, and a
		// pipe keeps serving.
		out.write(&wire.Envelope{Kind: wire.KindError, Seq: env.Seq, Error: s.errorText(env.Kind.String(), t.u.Name(), err)})
		s.log.Debug("rpc rejected", "tenant", t.u.Name(), "endpoint", env.Kind.String(),
			"trace", tracespan.FormatTraceID(tr.ID()), "err", err.Error())
		return 0
	}
	out.reply(env.Seq, &out.rep, tr)
	t.u.TraceRecorder().Finish(tr)
	// Its arguments allocate, which a pipe would pay on every frame.
	if s.log.Enabled(ctx, slog.LevelDebug) {
		s.log.Debug("rpc", "tenant", t.u.Name(), "endpoint", env.Kind.String(),
			"trace", tracespan.FormatTraceID(tr.ID()), "edges", edges, "merged", out.rep.Merged)
	}
	return 0
}

// decoded is one frame, or the error that ended the request body.
type decoded struct {
	env *wire.Envelope
	err error
}

// conn is one full-duplex framed connection: a /stream or /pipe request.
// Its context ends with the client or with Stop.
type conn struct {
	replier
	ctx      context.Context
	what     string // "stream" or "pipe", naming the connection in its abort envelope
	frames   chan decoded
	ack      chan struct{}
	decoding chan struct{} // closed once decode has stopped reading the body
}

// openConn answers 200, switches the exchange to full duplex (HTTP/1.1:
// read the body while answering), and starts the decode goroutine.
// Replies leave through a coalescing writer: a burst of small reply frames
// (pipelined requests, tiny batches) lands in one
// underlying write and one HTTP flush instead of one of each per frame.
// The returned func closes that writer, forcing the final flush, so it
// must run once the handler is done writing. It then waits until the
// decode goroutine has stopped reading the request body, which net/http
// forbids once the handler returns; after Stop that is when the client,
// having read the abort, sends its next frame or ends its body.
//
// The response closes its TCP connection. A duplex handler can stop
// before the request body ends (a misrouted or corrupt frame). net/http
// then drains the rest after the handler returns, and on a kept-alive
// connection the background read that drain starts collides with the read
// of the next request ("invalid concurrent Body.Read call"). A connection
// that ends with its exchange has no next request.
func (s *Server) openConn(w http.ResponseWriter, r *http.Request, what string) (*conn, func()) {
	ctx, cancel := context.WithCancel(r.Context())
	unwatch := context.AfterFunc(s.ctx, cancel)
	w.Header().Set("Content-Type", wire.ContentTypeBinary)
	w.Header().Set("Connection", "close")
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()
	fw := wire.NewFlushWriter(s.wireWriter(w), 0, func() { _ = rc.Flush() })
	c := &conn{
		replier:  replier{s: s, enc: wire.AcquireEncoder(fw, wire.Binary)},
		ctx:      ctx,
		what:     what,
		frames:   make(chan decoded),
		ack:      make(chan struct{}, 1),
		decoding: make(chan struct{}),
	}
	go c.decode(wire.AcquireDecoder(s.wireBody(r.Body), wire.Binary, s.cfg.MaxFrame))
	return c, func() {
		wire.ReleaseEncoder(c.enc)
		_ = fw.Close()
		unwatch()
		cancel()
		<-c.decoding
	}
}

// decode runs on its own goroutine so the serve loop can select against
// the connection's context: a push-only connection otherwise blocks in a
// body read and would never observe Stop — the handler must end promptly
// to deliver the loss-reporting end envelope inside the drain budget. The
// pooled decoder's envelopes live in its scratch, so decode must not read
// the next frame while the serve loop still uses the previous one: the
// ack channel hands the scratch back after each frame is fully processed.
// Once ctx ends the goroutine exits as soon as it is not inside a read.
func (c *conn) decode(dec *wire.Decoder) {
	defer close(c.decoding)
	defer wire.ReleaseDecoder(dec)
	for {
		env, err := dec.Decode()
		if err == nil {
			c.s.frameIn()
		} else if err != io.EOF {
			c.s.decodeError()
		}
		select {
		case c.frames <- decoded{env, err}:
			if err != nil {
				return
			}
		case <-c.ctx.Done():
			return
		}
		select {
		case <-c.ack:
		case <-c.ctx.Done():
			return
		}
	}
}

// serve hands each decoded envelope to handle, in arrival order, until
// the body ends, a frame fails to decode, or handle returns false; handle
// must be done with the envelope when it returns. When the connection's
// context ends first, serve answers the abort envelope and returns the
// cause; a frame that raced the cancellation is dropped unprocessed.
func (c *conn) serve(handle func(*wire.Envelope) bool) error {
	for {
		var d decoded
		select {
		case <-c.ctx.Done():
		case d = <-c.frames:
		}
		if err := c.ctx.Err(); err != nil {
			c.write(&wire.Envelope{Kind: wire.KindError, Error: c.what + " aborted: " + err.Error()})
			return err
		}
		if d.err != nil {
			if d.err != io.EOF { // io.EOF: the request stream ended cleanly
				c.write(&wire.Envelope{Kind: wire.KindError, Error: "bad frame: " + d.err.Error()})
			}
			return nil
		}
		if !handle(d.env) {
			return nil
		}
		c.ack <- struct{}{} // done with env; the decoder may reuse its scratch
	}
}

// handleStream runs one dsu.Stream per connection (see the package docs
// for the protocol and backpressure story).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, u *dsu.Universe) {
	if s.m != nil {
		s.m.streams.Inc()
		defer s.m.streams.Dec()
	}

	// Connection-level stream tuning from query parameters, clamped to the
	// server's own bounds. A parameter outside the four is refused, so a
	// knob the server lacks is never dropped silently.
	q := r.URL.Query()
	for k := range q {
		switch k {
		case "buffer", "inflight", "workers", "grain":
		default:
			refuse(w, fmt.Sprintf("unknown stream parameter %q (want buffer, inflight, workers, grain)", k), http.StatusBadRequest)
			return
		}
	}
	buffer := s.cfg.StreamBuffer
	if v, err := strconv.Atoi(q.Get("buffer")); err == nil && v > 0 {
		buffer = v
	}
	if edgeCap := s.cfg.MaxFrame / 8; buffer > edgeCap {
		buffer = edgeCap // a frame's edge capacity
	}
	inflight := 0 // dsu default (1) unless requested
	if v, err := strconv.Atoi(q.Get("inflight")); err == nil && v > 0 {
		inflight = v
	}
	if inflight > s.cfg.MaxInFlight {
		inflight = s.cfg.MaxInFlight
	}
	// Stream batches resolve these as a request's options: the dsu
	// layer caps the worker pool.
	var batch dsu.BatchOptions
	if v, err := strconv.Atoi(q.Get("workers")); err == nil && v > 0 {
		batch.Workers = v
	}
	if v, err := strconv.Atoi(q.Get("grain")); err == nil && v > 0 {
		batch.Grain = v
	}

	// The stream runs under the connection's context; when it ends, the
	// dsu layer's cancellation errors surface at the Push/Flush call sites
	// below and in the final end envelope.
	c, done := s.openConn(w, r, "stream")
	defer done()
	st := u.NewStream(
		dsu.WithStreamContext(c.ctx),
		dsu.WithBufferSize(buffer),
		dsu.WithMaxInFlight(inflight),
		dsu.WithBatchOptions(batch),
		dsu.WithOnBatch(func(br dsu.BatchResult) {
			if br.Err != nil {
				c.write(&wire.Envelope{Kind: wire.KindError, Seq: br.ID, Error: s.errorText("stream batch", u.Name(), br.Err)})
				return
			}
			// The callback runs before the trace is finished, so the
			// reply-encode span lands inside the batch's recorded tree.
			rep := dsu.ReplyOf(br)
			c.reply(br.ID, &rep, br.Trace)
		}),
	)
	s.log.Info("stream open", "tenant", u.Name(), "buffer", st.BufferSize(), "inflight", inflight)

	abortErr := c.serve(func(env *wire.Envelope) bool {
		switch env.Kind {
		case wire.KindUnite:
			if err := u.Validate(env.Unite.Edges); err != nil {
				// A range violation poisons nothing: reject the frame,
				// keep the stream.
				c.write(&wire.Envelope{Kind: wire.KindError, Seq: env.Seq, Error: err.Error()})
				return true
			}
			// A traced frame's context rides into the batch its edges land
			// in (first link wins); a zero context makes this a plain Push.
			// PushLinked copies the edges before returning, so the frame is
			// processed when it returns.
			if err := st.PushLinked(dsu.TraceContext{Trace: env.Trace, Span: env.Span}, env.Unite.Edges...); err != nil {
				c.write(&wire.Envelope{Kind: wire.KindError, Seq: env.Seq, Error: s.errorText("stream push", u.Name(), err)})
				return false
			}
		case wire.KindFlush:
			if err := st.Flush(); err != nil {
				c.write(&wire.Envelope{Kind: wire.KindError, Seq: env.Seq, Error: err.Error()})
				return false
			}
		default:
			c.write(&wire.Envelope{Kind: wire.KindError, Seq: env.Seq, Error: fmt.Sprintf("stream connections take unite/flush envelopes, got %v", env.Kind)})
			return false
		}
		return true
	})

	closeErr := st.Close()
	if closeErr == nil {
		// Even when every sealed batch executed before the cancellation
		// (nothing lost), an aborted connection must not look like a clean
		// close: the client's edge stream was cut short.
		closeErr = abortErr
	}
	end := &wire.Envelope{Kind: wire.KindEnd, End: &wire.StreamEnd{
		Batches: st.Batches(),
		Edges:   st.Edges(),
		Merged:  st.Merged(),
		Failed:  st.Failed(),
	}}
	if closeErr != nil {
		end.Error = closeErr.Error()
	}
	c.write(end)
	s.log.Info("stream done", "tenant", u.Name(), "batches", st.Batches(),
		"edges", st.Edges(), "merged", st.Merged(), "failed", st.Failed(), "err", closeErr)
}

// handlePipe answers a pipelined sequence of batch requests on one
// full-duplex connection (see the package docs for the protocol). Every
// unite/query envelope runs through batch in arrival order, exactly as a
// single-shot /unite or /query request does, and answers with a reply or
// error envelope echoing its Seq; requests, replies, and the codecs
// between them all run on recycled wire buffers.
func (s *Server) handlePipe(w http.ResponseWriter, r *http.Request, u *dsu.Universe) {
	c, done := s.openConn(w, r, "pipe")
	defer done()
	t := s.tenant(u)
	s.log.Info("pipe open", "tenant", u.Name())

	var served uint64
	err := c.serve(func(env *wire.Envelope) bool {
		if env.Kind != wire.KindUnite && env.Kind != wire.KindQuery {
			c.write(&wire.Envelope{Kind: wire.KindError, Seq: env.Seq,
				Error: fmt.Sprintf("pipe connections take unite/query envelopes, got %v", env.Kind)})
			return false
		}
		tr := u.TraceRecorder().Start(traceOp(env.Kind), tracespan.SourceRPC) // nil on an untraced tenant
		tr.Adopt(tracespan.Context{Trace: env.Trace, Span: env.Span})
		if s.batch(c.ctx, t, env, tr, &c.replier) == 0 {
			served++
			return true
		}
		// Stop or the client's departure, either of which ends c.ctx; the
		// serve loop then answers the abort envelope.
		<-c.ctx.Done()
		return true
	})
	s.log.Info("pipe done", "tenant", u.Name(), "served", served, "err", err)
}
