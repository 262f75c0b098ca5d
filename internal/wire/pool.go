package wire

import (
	"io"
	"sync"

	"repro/dsu"
	"repro/internal/bufpool"
)

// Frame-buffer pooling: encode and decode share the size-classed pools
// of internal/bufpool (1 KiB … 16 MiB in powers of two, the same pools
// the WAL's record writer draws on) — a frame buffer is taken from the
// smallest class that fits, used for exactly one codec's lifetime, and
// returned on release. Buffers larger than the top class (a
// caller-raised maxFrame) are not pooled; they were exceptional to
// begin with.
const bufMinBits = bufpool.MinBits // 1 KiB: smallest pooled class

// getBuf returns a zero-length buffer with capacity ≥ n, pooled when n
// fits a size class.
func getBuf(n int) []byte { return bufpool.Get(n) }

// putBuf recycles a buffer into the largest class its capacity fully
// covers, so a later getBuf from that class always honors its size.
func putBuf(b []byte) { bufpool.Put(b) }

// Codec pooling: the encoder and decoder structs are recycled whole,
// carrying their DTO scratch with them; their frame buffers circulate
// through the shared size-class pools above.
var (
	encPool = sync.Pool{New: func() any { return new(Encoder) }}
	decPool = sync.Pool{New: func() any { return new(Decoder) }}
)

// Scratch slices past these bounds are dropped at release so one huge
// frame cannot pin megabytes inside the codec pools.
const (
	maxScratchEdges   = 1 << 18 // 2 MiB of []dsu.Edge
	maxScratchAnswers = 1 << 20 // 1 MiB of []bool
)

// AcquireEncoder returns a pooled encoder writing envelopes to w. It is
// NewEncoder with recycled buffers: pair it with ReleaseEncoder when the
// connection ends. Steady-state encoding through an acquired encoder
// performs zero allocations.
func AcquireEncoder(w io.Writer, _ Format) *Encoder {
	e := encPool.Get().(*Encoder)
	e.w, e.pooled = w, true
	if e.buf == nil {
		e.buf = getBuf(1 << bufMinBits)
	}
	return e
}

// ReleaseEncoder recycles an encoder obtained from AcquireEncoder. The
// encoder must not be used afterwards. Encoders from NewEncoder (or a
// second release) are ignored safely.
func ReleaseEncoder(e *Encoder) {
	if e == nil || !e.pooled {
		return
	}
	putBuf(e.buf)
	e.buf = nil
	e.w, e.pooled = nil, false
	encPool.Put(e)
}

// AcquireDecoder returns a pooled scratch-reuse decoder reading
// envelopes from r (maxFrame as in NewDecoder). Ownership
// differs from NewDecoder: every envelope it returns — the Envelope,
// its request/reply bodies, edge and answer slices — lives in the
// decoder's scratch and is valid only until the next Decode or
// ReleaseDecoder. Copy out whatever outlives that window. In exchange,
// steady-state unite/query/reply decoding performs zero allocations. Pair
// with ReleaseDecoder when the connection ends.
func AcquireDecoder(r io.Reader, _ Format, maxFrame int) *Decoder {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	d := decPool.Get().(*Decoder)
	d.r, d.maxFrame, d.reuse = r, maxFrame, true
	if d.buf == nil {
		d.buf = getBuf(1 << bufMinBits)
	}
	return d
}

// ReleaseDecoder recycles a decoder obtained from AcquireDecoder and
// invalidates every envelope it ever returned. Decoders from NewDecoder
// (or a second release) are ignored safely.
func ReleaseDecoder(d *Decoder) {
	if d == nil || !d.reuse || d.r == nil {
		return
	}
	putBuf(d.buf)
	d.buf = nil
	d.r = nil
	if cap(d.edges) > maxScratchEdges {
		d.edges = nil
	}
	if cap(d.answers) > maxScratchAnswers {
		d.answers = nil
	}
	// Drop references held by the scratch DTOs (the slices above are kept
	// via their own fields, not through these).
	d.env = Envelope{}
	d.unite = dsu.UniteRequest{}
	d.query = dsu.QueryRequest{}
	d.reply = dsu.BatchReply{}
	decPool.Put(d)
}
