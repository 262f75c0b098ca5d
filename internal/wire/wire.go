// Package wire is the batch framing protocol of the network front end: it
// moves the dsu package's tenant-API DTOs (UniteRequest, QueryRequest,
// BatchReply) over a byte stream in one encoding, a length-prefixed binary
// framing (ContentTypeBinary). Tenant administration, labels, metrics and
// traces are plain JSON over HTTP and never pass through this package.
//
// The decoder treats the peer as untrusted: every frame is bounded by a
// configured maximum before any allocation happens, truncated frames
// surface io.ErrUnexpectedEOF, and structurally inconsistent payloads
// (lengths that don't match declared counts, unknown message kinds)
// surface ErrCorruptFrame — never a panic and never an unbounded
// allocation. Element-range and option validation is deliberately NOT
// here: that is the dsu.Universe layer's job, so the checks exist exactly
// once for local and remote callers alike.
//
// Two ways to build a codec differ in ownership. The NewEncoder/NewDecoder
// constructors hand every decoded envelope to the caller outright —
// simple, safe, one set of allocations per frame. The
// AcquireEncoder/AcquireDecoder pool recycles codecs and their scratch
// across connections: steady-state encode and decode of the batch-path
// envelopes allocate nothing, and in exchange an envelope from an
// acquired decoder is valid only until the next Decode (or
// ReleaseDecoder) — copy out whatever outlives that window. FlushWriter
// completes the fast path on the write side: it coalesces back-to-back
// small frames into single downstream writes with no timers, while its
// pending-byte limit keeps backpressure end to end.
package wire

import (
	"errors"
	"fmt"
	"mime"

	"repro/dsu"
)

// Kind discriminates the message types of the protocol.
type Kind uint8

const (
	// KindUnite carries a dsu.UniteRequest: merge across the batch.
	KindUnite Kind = iota + 1
	// KindQuery carries a dsu.QueryRequest: answer the batch.
	KindQuery
	// KindFlush, on a stream connection, seals the server-side buffer
	// early (dsu.Stream.Flush). It carries no payload beyond the sequence
	// number.
	KindFlush
	// KindReply carries a dsu.BatchReply, answering the request (RPC) or
	// reporting one executed stream batch (Seq is the batch id).
	KindReply
	// KindError reports a failed request or an abandoned stream batch;
	// Error holds the message, Seq echoes the request or batch id.
	KindError
	// KindEnd closes a stream response with the final ingestion totals.
	KindEnd
)

// String names the kind for logs and error messages.
func (k Kind) String() string {
	switch k {
	case KindUnite:
		return "unite"
	case KindQuery:
		return "query"
	case KindFlush:
		return "flush"
	case KindReply:
		return "reply"
	case KindError:
		return "error"
	case KindEnd:
		return "end"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// StreamEnd is the final message of a stream connection: the server-side
// dsu.Stream's totals at Close, plus the close error (context
// cancellation, say) in the enclosing envelope's Error field when the
// shutdown lost batches.
type StreamEnd struct {
	Batches uint64
	Edges   int64
	Merged  int64
	Failed  uint64
}

// Envelope is one protocol message: a kind, a sequence number (request
// correlation on RPC, batch id on streams), and exactly one body field
// populated according to the kind (none for KindFlush).
//
// Trace and Span are the optional distributed-tracing context. A nonzero
// Trace on a unite/query envelope asks the server to adopt that identity
// for the batch's span tree; on a reply it reports the trace the server
// recorded (Span being the server's root span). Zero means untraced —
// the fields add no bytes to a frame, so peers that predate them
// interoperate unchanged. A Span without a Trace is not a context; the
// encoder drops it and the decoder rejects frames that declare one.
type Envelope struct {
	Kind  Kind
	Seq   uint64
	Trace uint64
	Span  uint64
	Unite *dsu.UniteRequest
	Query *dsu.QueryRequest
	Reply *dsu.BatchReply
	End   *StreamEnd
	Error string
}

// DefaultMaxFrame bounds one message's encoded size unless the caller
// picks otherwise: 16 MiB ≈ two million binary-framed edges per batch,
// comfortably past the engine's default buffer while keeping a hostile
// length prefix from reserving real memory.
const DefaultMaxFrame = 16 << 20

var (
	// ErrFrameTooLarge reports a frame whose declared or actual size
	// exceeds the decoder's limit. The connection state is unrecoverable
	// (the oversized payload was not consumed); close it.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrCorruptFrame reports a structurally inconsistent payload: unknown
	// kind, a length that contradicts a declared count, or trailing bytes.
	ErrCorruptFrame = errors.New("wire: corrupt frame")
)

// Format names a connection's encoding. Binary is its one value; the
// codec constructors keep their Format parameter so callers that name the
// encoding compile unchanged.
type Format int

// Binary is the length-prefixed binary framing (ContentTypeBinary).
const Binary Format = 0

// ContentTypeBinary is the media type of the data-plane endpoints'
// request and response bodies.
const ContentTypeBinary = "application/x-dsu-batch"

// FormatFor reports whether a Content-Type header value names the binary
// framing. Media-type parameters and case are ignored
// ("application/x-dsu-batch; version=1" is accepted), and an empty
// content type is accepted as the default.
func FormatFor(contentType string) bool {
	if contentType == "" {
		return true
	}
	mt, _, err := mime.ParseMediaType(contentType)
	return err == nil && mt == ContentTypeBinary
}
