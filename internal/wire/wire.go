// Package wire is the batch framing protocol of the network front end: it
// moves the dsu package's tenant-API DTOs (UniteRequest, QueryRequest,
// BatchReply) over a byte stream, in two interchangeable encodings — a
// length-prefixed binary framing for production traffic and a
// newline-delimited JSON mode for debugging with a text tool. Both
// encodings carry the same Envelope model, so the server and client pick
// per connection (by Content-Type) without touching any other layer.
//
// The decoders treat the peer as untrusted: every frame is bounded by a
// configured maximum before any allocation happens, truncated frames
// surface io.ErrUnexpectedEOF, and structurally inconsistent payloads
// (lengths that don't match declared counts, unknown message kinds)
// surface ErrCorruptFrame — never a panic and never an unbounded
// allocation. Element-range and option validation is deliberately NOT
// here: that is the dsu.Universe layer's job, so the checks exist exactly
// once for local and remote callers alike.
//
// Two codec families share the formats but differ in ownership. The
// NewEncoder/NewDecoder constructors hand every decoded envelope to the
// caller outright — simple, safe, one set of allocations per frame. The
// AcquireEncoder/AcquireDecoder pool recycles codecs and their scratch
// across connections: steady-state binary encode and decode of the
// batch-path envelopes allocate nothing, and in exchange an envelope
// from an acquired decoder is valid only until the next Decode (or
// ReleaseDecoder) — copy out whatever outlives that window. FlushWriter
// completes the fast path on the write side: it coalesces back-to-back
// small frames into single downstream writes with no timers, while its
// pending-byte limit keeps backpressure end to end.
package wire

import (
	"errors"
	"fmt"
	"io"
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

// String names the kind as the JSON encoding spells it.
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

// kindFromString is String's inverse; 0 means unknown.
func kindFromString(s string) Kind {
	switch s {
	case "unite":
		return KindUnite
	case "query":
		return KindQuery
	case "flush":
		return KindFlush
	case "reply":
		return KindReply
	case "error":
		return KindError
	case "end":
		return KindEnd
	default:
		return 0
	}
}

// StreamEnd is the final message of a stream connection: the server-side
// dsu.Stream's totals at Close, plus the close error (context
// cancellation, say) in the enclosing envelope's Error field when the
// shutdown lost batches.
type StreamEnd struct {
	Batches uint64 `json:"batches"`
	Edges   int64  `json:"edges"`
	Merged  int64  `json:"merged"`
	Failed  uint64 `json:"failed"`
}

// Envelope is one protocol message: a kind, a sequence number (request
// correlation on RPC, batch id on streams), and exactly one body field
// populated according to the kind (none for KindFlush).
//
// Trace and Span are the optional distributed-tracing context. A nonzero
// Trace on a unite/query envelope asks the server to adopt that identity
// for the batch's span tree; on a reply it reports the trace the server
// recorded (Span being the server's root span). Zero means untraced —
// the fields add no bytes to binary frames and no keys to JSON lines, so
// peers that predate them interoperate unchanged. A Span without a Trace
// is not a context; encoders drop it and decoders reject frames that
// declare one.
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

// Format selects the encoding of a connection.
type Format int

const (
	// Binary is the length-prefixed binary framing (ContentTypeBinary).
	Binary Format = iota
	// JSON is the newline-delimited JSON debug mode (ContentTypeJSON).
	JSON
)

// Content types the HTTP front end maps to formats.
const (
	ContentTypeBinary = "application/x-dsu-batch"
	ContentTypeJSON   = "application/json"
)

// ContentType returns the HTTP content type naming the format.
func (f Format) ContentType() string {
	if f == JSON {
		return ContentTypeJSON
	}
	return ContentTypeBinary
}

// String names the format for logs and flags.
func (f Format) String() string {
	if f == JSON {
		return "json"
	}
	return "binary"
}

// FormatFor maps a Content-Type header value to its format, ignoring
// media-type parameters ("application/json; charset=utf-8" is JSON); ok
// is false for types the protocol does not speak. An empty content type
// selects binary, the production default.
func FormatFor(contentType string) (Format, bool) {
	if contentType != "" {
		if mt, _, err := mime.ParseMediaType(contentType); err == nil {
			contentType = mt
		}
	}
	switch contentType {
	case "", ContentTypeBinary:
		return Binary, true
	case ContentTypeJSON:
		return JSON, true
	default:
		return 0, false
	}
}

// Encoder writes envelopes to a stream. Encoders are not safe for
// concurrent use; serialize externally (the server writes from one
// goroutine per connection).
type Encoder interface {
	Encode(*Envelope) error
}

// Decoder reads envelopes from a stream. A clean end-of-stream is io.EOF
// from Decode; a stream that ends inside a message is io.ErrUnexpectedEOF.
type Decoder interface {
	Decode() (*Envelope, error)
}

// NewEncoder returns an encoder writing f-formatted envelopes to w.
func NewEncoder(w io.Writer, f Format) Encoder {
	if f == JSON {
		return newJSONEncoder(w)
	}
	return newBinaryEncoder(w)
}

// NewDecoder returns a decoder reading f-formatted envelopes from r,
// rejecting any message larger than maxFrame bytes (values ≤ 0 select
// DefaultMaxFrame).
func NewDecoder(r io.Reader, f Format, maxFrame int) Decoder {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if f == JSON {
		return newJSONDecoder(r, maxFrame)
	}
	return newBinaryDecoder(r, maxFrame)
}
