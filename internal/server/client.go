package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"repro/dsu"
	"repro/internal/wire"
)

// Client speaks the front end's protocol: tenant administration over
// JSON, batch RPC and streaming ingestion over the binary framing. It is
// what examples/server and the integration tests drive; it lives next to
// the server so the two sides of the protocol evolve together.
//
// A Client is safe for concurrent use; each OpenStream call owns its own
// connection.
type Client struct {
	base     string
	hc       *http.Client
	maxFrame int
}

// ClientOption configures NewClient.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test plumbing). The client must not have a global Timeout
// if streams are to run long.
func WithHTTPClient(hc *http.Client) ClientOption { return func(c *Client) { c.hc = hc } }

// WithMaxFrame bounds reply frames (≤ 0 selects wire.DefaultMaxFrame).
func WithMaxFrame(n int) ClientOption { return func(c *Client) { c.maxFrame = n } }

// NewClient returns a client for the server at base (e.g.
// "http://127.0.0.1:8080").
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{base: base, hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// httpError turns a non-2xx response into an error carrying the body.
func httpError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return fmt.Errorf("server: %s: %s", resp.Status, bytes.TrimSpace(body))
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health reports whether the server answers its liveness probe.
func (c *Client) Health(ctx context.Context) error {
	var out map[string]bool
	return c.getJSON(ctx, "/healthz", &out)
}

// CreateTenant registers a new universe on the server.
func (c *Client) CreateTenant(ctx context.Context, spec TenantSpec) (TenantInfo, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return TenantInfo{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/tenants", bytes.NewReader(body))
	if err != nil {
		return TenantInfo{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return TenantInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return TenantInfo{}, httpError(resp)
	}
	var info TenantInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	return info, err
}

// Tenants lists the server's tenants.
func (c *Client) Tenants(ctx context.Context) ([]TenantInfo, error) {
	var out []TenantInfo
	err := c.getJSON(ctx, "/v1/tenants", &out)
	return out, err
}

// Tenant fetches one tenant's info.
func (c *Client) Tenant(ctx context.Context, name string) (TenantInfo, error) {
	var out TenantInfo
	err := c.getJSON(ctx, "/v1/tenants/"+url.PathEscape(name), &out)
	return out, err
}

// DropTenant unregisters a tenant.
func (c *Client) DropTenant(ctx context.Context, name string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/tenants/"+url.PathEscape(name), nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return httpError(resp)
	}
	return nil
}

// Checkpoint asks a durable tenant to snapshot its write-ahead log now,
// bounding recovery time for everything logged so far. The server
// answers 409 (reported here as an error) for a tenant without
// persistence.
func (c *Client) Checkpoint(ctx context.Context, name string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/tenants/"+url.PathEscape(name)+"/checkpoint", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return httpError(resp)
	}
	return nil
}

// Labels fetches a tenant's canonical labelling (quiescent-state read).
func (c *Client) Labels(ctx context.Context, name string) ([]uint32, error) {
	var out []uint32
	err := c.getJSON(ctx, "/v1/tenants/"+url.PathEscape(name)+"/labels", &out)
	return out, err
}

// rpc drives one framed request/reply exchange, returning the trace
// context the server's reply envelope reported (zero on untraced
// tenants and old servers).
func (c *Client) rpc(ctx context.Context, tenant, action string, env *wire.Envelope) (dsu.BatchReply, dsu.TraceContext, error) {
	var buf bytes.Buffer
	if err := wire.NewEncoder(&buf, wire.Binary).Encode(env); err != nil {
		return dsu.BatchReply{}, dsu.TraceContext{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v1/tenants/"+url.PathEscape(tenant)+"/"+action, &buf)
	if err != nil {
		return dsu.BatchReply{}, dsu.TraceContext{}, err
	}
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	resp, err := c.hc.Do(req)
	if err != nil {
		return dsu.BatchReply{}, dsu.TraceContext{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return dsu.BatchReply{}, dsu.TraceContext{}, httpError(resp)
	}
	dec := wire.AcquireDecoder(resp.Body, wire.Binary, c.maxFrame)
	defer wire.ReleaseDecoder(dec)
	out, err := dec.Decode()
	if err != nil {
		return dsu.BatchReply{}, dsu.TraceContext{}, fmt.Errorf("server reply: %w", err)
	}
	link := dsu.TraceContext{Trace: out.Trace, Span: out.Span}
	switch out.Kind {
	case wire.KindReply:
		// Copy out of the pooled decoder's scratch: the returned reply is
		// the caller's to keep, so it must not alias a recycled buffer
		// (nil-vs-empty answers is a wire distinction and is preserved).
		rep := *out.Reply
		if rep.Answers != nil {
			rep.Answers = append(make([]bool, 0, len(rep.Answers)), rep.Answers...)
		}
		return rep, link, nil
	case wire.KindError:
		return dsu.BatchReply{}, link, fmt.Errorf("server: %s", out.Error)
	default:
		return dsu.BatchReply{}, link, fmt.Errorf("server answered %v to a %v request", out.Kind, env.Kind)
	}
}

// UniteAll executes one remote mutation batch on the tenant.
func (c *Client) UniteAll(ctx context.Context, tenant string, req dsu.UniteRequest) (dsu.BatchReply, error) {
	rep, _, err := c.rpc(ctx, tenant, "unite", &wire.Envelope{Kind: wire.KindUnite, Unite: &req})
	return rep, err
}

// SameSetAll executes one remote query batch on the tenant.
func (c *Client) SameSetAll(ctx context.Context, tenant string, req dsu.QueryRequest) (dsu.BatchReply, error) {
	rep, _, err := c.rpc(ctx, tenant, "query", &wire.Envelope{Kind: wire.KindQuery, Query: &req})
	return rep, err
}

// UniteAllLinked is UniteAll carrying a caller-chosen trace context: on
// a traced tenant the server adopts link's trace ID for the batch's span
// tree, so the client and server halves of the exchange share one
// identity. It returns the trace context the server's reply reported —
// the server's own trace ID when link was zero, link itself when not,
// zero when the tenant is untraced (or the server predates tracing).
func (c *Client) UniteAllLinked(ctx context.Context, tenant string, req dsu.UniteRequest, link dsu.TraceContext) (dsu.BatchReply, dsu.TraceContext, error) {
	return c.rpc(ctx, tenant, "unite",
		&wire.Envelope{Kind: wire.KindUnite, Unite: &req, Trace: link.Trace, Span: link.Span})
}

// SameSetAllLinked is SameSetAll carrying a caller-chosen trace context
// (see UniteAllLinked).
func (c *Client) SameSetAllLinked(ctx context.Context, tenant string, req dsu.QueryRequest, link dsu.TraceContext) (dsu.BatchReply, dsu.TraceContext, error) {
	return c.rpc(ctx, tenant, "query",
		&wire.Envelope{Kind: wire.KindQuery, Query: &req, Trace: link.Trace, Span: link.Span})
}

// clientConn is the client half of one full-duplex framed connection, a
// stream's or a pipe's: requests leave through a pooled encoder over a
// coalescing writer on the request body, and a reader goroutine hands
// reply envelopes to onReply. Sends and close must be serialized by the
// caller.
type clientConn struct {
	pw     *io.PipeWriter
	fw     *wire.FlushWriter
	enc    *wire.Encoder
	seq    uint64
	resp   *http.Response
	closed bool

	done    chan struct{}
	onReply func(*wire.Envelope)

	// Set by the reader goroutine before it closes done: end (an end
	// envelope's totals) or readErr.
	end     *wire.StreamEnd
	endErr  string
	readErr error
}

// open starts a full-duplex connection to the server path (query
// included) and its reader goroutine.
func (c *Client) open(ctx context.Context, cc *clientConn, path string, onReply func(*wire.Envelope)) error {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, pr)
	if err != nil {
		pw.Close()
		return err
	}
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	// The body ends only when the connection closes, so a peer that reads
	// it before answering would hold Do past ctx's end: ending the body
	// with ctx frees it.
	stop := context.AfterFunc(ctx, func() { pw.CloseWithError(ctx.Err()) })
	resp, err := c.hc.Do(req)
	stop()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = httpError(resp)
		resp.Body.Close()
	}
	if err != nil {
		pw.Close()
		return err
	}
	cc.pw, cc.resp, cc.onReply = pw, resp, onReply
	cc.fw = wire.NewFlushWriter(pw, 0, nil)
	cc.enc = wire.AcquireEncoder(cc.fw, wire.Binary)
	cc.done = make(chan struct{})
	go cc.read(wire.AcquireDecoder(resp.Body, wire.Binary, c.maxFrame))
	return nil
}

// read drains reply envelopes until an end envelope or a transport error
// (io.EOF once the server closes the response). Consuming replies
// promptly is part of the backpressure loop: a client that never read
// them would eventually stall the server's reply writes, not its own
// requests.
func (cc *clientConn) read(dec *wire.Decoder) {
	defer close(cc.done)
	defer wire.ReleaseDecoder(dec)
	for {
		env, err := dec.Decode()
		if err != nil {
			cc.readErr = err
			return
		}
		if env.Kind == wire.KindEnd {
			end := *env.End // copy out of the pooled decoder's scratch
			cc.end, cc.endErr = &end, env.Error
			return
		}
		if cc.onReply != nil {
			cc.onReply(env)
		}
	}
}

// send stamps the next sequence number on env and encodes it.
func (cc *clientConn) send(env *wire.Envelope) (uint64, error) {
	if cc.closed {
		return 0, wire.ErrWriterClosed
	}
	cc.seq++
	env.Seq = cc.seq
	return cc.seq, cc.enc.Encode(env)
}

// Flush pushes any coalesced requests out now instead of on the next
// idle moment — useful before blocking on replies.
func (cc *clientConn) Flush() error {
	if cc.closed {
		return wire.ErrWriterClosed
	}
	return cc.fw.Flush()
}

// close ends the request body, waits for the reader to finish, and
// releases the connection. Idempotent.
func (cc *clientConn) close() {
	if cc.closed {
		return
	}
	cc.closed = true
	_ = cc.fw.Close()
	cc.pw.Close()
	<-cc.done
	wire.ReleaseEncoder(cc.enc)
	cc.enc = nil
	cc.resp.Body.Close()
}

// StreamConfig tunes one stream connection.
type StreamConfig struct {
	// Buffer requests a server-side seal threshold (0 keeps the server
	// default; the server clamps).
	Buffer int
	// InFlight requests a server-side in-flight bound (0 keeps the
	// default of 1; the server clamps to its own maximum).
	InFlight int
	// Batch configures every batch the connection's stream executes
	// (workers, grain; the Find override is RPC-only).
	Batch dsu.BatchOptions
	// OnReply, when non-nil, observes every per-batch envelope (reply or
	// error) as it arrives, from the stream's reader goroutine. The
	// envelope and everything it points to live in the connection's
	// pooled decoder and are valid only during the callback — copy
	// whatever outlives it.
	OnReply func(*wire.Envelope)
}

// ClientStream is one open streaming-ingest connection. Push and Flush
// frame edges to the server; Close ends the edge stream and returns the
// server's final totals. Push/Flush/Close must be serialized by the
// caller (one producer per connection — open more connections for more
// producers); OnReply runs on an internal goroutine concurrently with
// them.
//
// Pushed frames are coalesced: a burst of small Pushes leaves in one
// request-body write, flushed as soon as the producer goes idle (or
// explicitly by Flush, which also seals the server-side buffer). Push
// does not retain the caller's edge slice — it is free for reuse as
// soon as Push returns.
type ClientStream struct {
	clientConn
}

// OpenStream opens a streaming-ingest connection to the tenant. The
// returned stream must be Closed.
func (c *Client) OpenStream(ctx context.Context, tenant string, cfg StreamConfig) (*ClientStream, error) {
	q := url.Values{}
	if cfg.Buffer > 0 {
		q.Set("buffer", strconv.Itoa(cfg.Buffer))
	}
	if cfg.InFlight > 0 {
		q.Set("inflight", strconv.Itoa(cfg.InFlight))
	}
	if cfg.Batch.Workers > 0 {
		q.Set("workers", strconv.Itoa(cfg.Batch.Workers))
	}
	if cfg.Batch.Grain > 0 {
		q.Set("grain", strconv.Itoa(cfg.Batch.Grain))
	}
	path := "/v1/tenants/" + url.PathEscape(tenant) + "/stream"
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	cs := &ClientStream{}
	if err := c.open(ctx, &cs.clientConn, path, cfg.OnReply); err != nil {
		return nil, err
	}
	return cs, nil
}

// Push frames one batch of edges to the server's stream. The server
// accumulates them by its buffer size; Push blocking here is the
// end-to-end backpressure (the server has stopped reading).
func (cs *ClientStream) Push(edges ...dsu.Edge) error {
	return cs.PushLinked(dsu.TraceContext{}, edges...)
}

// PushLinked is Push carrying a caller-chosen trace context: on a traced
// tenant, the server-side batch these edges land in adopts link's trace
// ID (first link per batch wins), and the batch's reply envelope reports
// it back. A zero link is exactly Push.
func (cs *ClientStream) PushLinked(link dsu.TraceContext, edges ...dsu.Edge) error {
	_, err := cs.send(&wire.Envelope{Kind: wire.KindUnite,
		Unite: &dsu.UniteRequest{Edges: edges}, Trace: link.Trace, Span: link.Span})
	return err
}

// Flush asks the server to seal its current buffer early, forcing the
// coalescing writer out with it so the request leaves now.
func (cs *ClientStream) Flush() error {
	if _, err := cs.send(&wire.Envelope{Kind: wire.KindFlush}); err != nil {
		return err
	}
	return cs.clientConn.Flush()
}

// Close ends the edge stream, waits for the server to drain, and returns
// the final totals. A non-nil StreamEnd with a non-nil error means the
// server lost batches (shutdown or cancellation mid-stream); Failed says
// how many.
func (cs *ClientStream) Close() (*wire.StreamEnd, error) {
	cs.close()
	if cs.readErr != nil {
		return cs.end, fmt.Errorf("stream reply channel: %w", cs.readErr)
	}
	// The reader stopped at the end envelope.
	if cs.endErr != "" {
		return cs.end, fmt.Errorf("server stream: %s", cs.endErr)
	}
	return cs.end, nil
}

// PipeConfig tunes one pipelined-RPC connection.
type PipeConfig struct {
	// OnReply, when non-nil, observes every reply/error envelope — one
	// per request, in request order, Seq echoing the request's — from the
	// connection's reader goroutine. The envelope and everything it
	// points to (the reply struct, its answer slice) live in the
	// connection's pooled decoder and are valid only during the callback;
	// copy whatever outlives it. Nil discards replies (fire-and-forget
	// mutation pipelines still see errors in Close).
	OnReply func(*wire.Envelope)
}

// ClientPipe is one open pipelined batch-RPC connection: UniteAll and
// SameSetAll enqueue requests without waiting for replies, so many small
// batches share one HTTP exchange and the round trip amortizes away —
// the client-side half of the wire fast path. Requests coalesce in a
// flush-on-idle writer exactly like stream pushes; replies arrive
// through PipeConfig.OnReply in request order.
//
// UniteAll/SameSetAll/Flush/Close must be serialized by the caller (one
// producer per pipe; open more pipes for more producers); OnReply runs
// on an internal goroutine concurrently with them. Requests do not
// retain the caller's edge slices — they are free for reuse on return.
// Backpressure is end to end: a stalled server fills the coalescing
// buffer and blocks the senders.
type ClientPipe struct {
	clientConn

	// Scratch for the request envelope — the encoder serializes before
	// returning, so one reusable envelope per pipe keeps the send path
	// allocation-free.
	env   wire.Envelope
	unite dsu.UniteRequest
	query dsu.QueryRequest
}

// OpenPipe opens a pipelined batch-RPC connection to the tenant. The
// returned pipe must be Closed.
func (c *Client) OpenPipe(ctx context.Context, tenant string, cfg PipeConfig) (*ClientPipe, error) {
	cp := &ClientPipe{}
	if err := c.open(ctx, &cp.clientConn, "/v1/tenants/"+url.PathEscape(tenant)+"/pipe", cfg.OnReply); err != nil {
		return nil, err
	}
	return cp, nil
}

// UniteAll enqueues one mutation batch and returns its sequence number
// without waiting for the reply (which arrives via OnReply with the
// same Seq).
func (cp *ClientPipe) UniteAll(req dsu.UniteRequest) (uint64, error) {
	return cp.UniteAllLinked(req, dsu.TraceContext{})
}

// UniteAllLinked is UniteAll carrying a caller-chosen trace context
// (see Client.UniteAllLinked for the adoption semantics).
func (cp *ClientPipe) UniteAllLinked(req dsu.UniteRequest, link dsu.TraceContext) (uint64, error) {
	cp.unite = req
	cp.env = wire.Envelope{Kind: wire.KindUnite, Unite: &cp.unite, Trace: link.Trace, Span: link.Span}
	return cp.send(&cp.env)
}

// SameSetAll enqueues one query batch and returns its sequence number
// without waiting for the reply.
func (cp *ClientPipe) SameSetAll(req dsu.QueryRequest) (uint64, error) {
	return cp.SameSetAllLinked(req, dsu.TraceContext{})
}

// SameSetAllLinked is SameSetAll carrying a caller-chosen trace context.
func (cp *ClientPipe) SameSetAllLinked(req dsu.QueryRequest, link dsu.TraceContext) (uint64, error) {
	cp.query = req
	cp.env = wire.Envelope{Kind: wire.KindQuery, Query: &cp.query, Trace: link.Trace, Span: link.Span}
	return cp.send(&cp.env)
}

// Close ends the request stream, waits for the last reply to be
// delivered, and returns the first transport error (nil after a clean
// drain). Idempotent.
func (cp *ClientPipe) Close() error {
	cp.close()
	if cp.readErr != nil && cp.readErr != io.EOF {
		return fmt.Errorf("pipe reply channel: %w", cp.readErr)
	}
	return nil
}
