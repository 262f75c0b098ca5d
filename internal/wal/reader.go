package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
)

// Reader is the decode side of one tenant's log, backed by the file's
// bytes in memory. Opening never trusts more than it verifies: the fast
// path accepts only a log whose footer, summary, and header all
// CRC-check and whose indexes are in bounds, and anything else falls
// back to a full forward scan that keeps the longest valid record
// prefix. Reads of chunk and snapshot bodies re-verify their record CRC
// at access time, so even a lying index cannot smuggle corrupt bytes
// into a replay.
type Reader struct {
	data      []byte
	meta      Meta
	chunks    []ChunkInfo
	snaps     []SnapshotInfo
	lastSeq   uint64
	dataEnd   int64
	discarded int64
	clean     bool
}

// OpenReader reads the log at path: footer fast path when the file is
// cleanly sealed, full scan otherwise.
func OpenReader(path string) (*Reader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return NewReader(data)
}

// NewReader opens a log held in memory: the footer fast path when data
// is cleanly sealed and every index checks out, a full scan otherwise.
func NewReader(data []byte) (*Reader, error) {
	if r, ok := readerViaFooter(data); ok {
		return r, nil
	}
	return ScanReader(data)
}

// ScanReader opens a log by unconditional forward scan, ignoring any
// footer: every record is CRC-verified and structurally validated in
// order, scanning stops at the first invalid byte, and the remainder is
// reported as the discarded tail. This is the recovery path after a
// crash and the ground truth `dsulog verify` compares the footer's
// indexes against.
func ScanReader(data []byte) (*Reader, error) {
	if len(data) < 8 || !bytes.Equal(data[:8], magic[:]) {
		return nil, ErrNotALog
	}
	op, body, next, ok := readRecord(data, 8)
	if !ok || op != opHeader {
		return nil, errors.New("wal: missing or corrupt header record")
	}
	meta, err := parseHeader(body)
	if err != nil {
		return nil, err
	}
	r := &Reader{data: data, meta: meta, dataEnd: int64(next)}
	pos := next
	var scratch []core.Edge
	footerEnd := -1
scan:
	for pos < len(data) {
		if len(data)-pos == 8 && footerEnd == pos && bytes.Equal(data[pos:], tailMagic[:]) {
			// A cleanly sealed log: the remainder is exactly the tail
			// magic right after a footer record. Not a record — consume it.
			r.clean = true
			pos = len(data)
			break
		}
		op, body, next, ok := readRecord(data, pos)
		if !ok {
			break
		}
		switch op {
		case opChunk:
			first, last, edges, serr := validateChunkBody(body, meta.N, r.lastSeq, &scratch)
			if serr != nil {
				break scan
			}
			r.chunks = append(r.chunks, ChunkInfo{Offset: int64(pos), FirstSeq: first, LastSeq: last, Edges: edges})
			r.lastSeq = last
			r.dataEnd = int64(next)
		case opSnapshot:
			sr, serr := parseSnapshot(body, meta.N)
			if serr != nil || sr.Seq != r.lastSeq || sr.Fingerprint != meta.Fingerprint() {
				// A snapshot that does not cover exactly the sequences
				// before it would re-order history on replay.
				break scan
			}
			r.snaps = append(r.snaps, SnapshotInfo{Offset: int64(pos), Seq: sr.Seq})
			r.dataEnd = int64(next)
		case opSummary:
			// A stale index (writer died between sealing attempts): skip
			// it without extending the data prefix; the scan's own indexes
			// are authoritative.
		case opFooter:
			if len(body) != 16 {
				break scan
			}
			footerEnd = next
		default:
			break scan
		}
		pos = next
	}
	if !r.clean {
		// Everything past the valid data prefix is dropped on resume —
		// torn records and any stale seal alike.
		r.discarded = int64(len(data)) - r.dataEnd
	}
	return r, nil
}

// readerViaFooter attempts the seek-only open of a cleanly sealed log.
// ok is false whenever anything fails to verify; the caller falls back
// to the scan.
func readerViaFooter(data []byte) (*Reader, bool) {
	const tailLen = recordOverhead + 16 + 8 // footer record + tail magic
	if len(data) < 8+tailLen || !bytes.Equal(data[:8], magic[:]) {
		return nil, false
	}
	if !bytes.Equal(data[len(data)-8:], tailMagic[:]) {
		return nil, false
	}
	op, body, next, ok := readRecord(data, len(data)-tailLen)
	if !ok || op != opFooter || next != len(data)-8 || len(body) != 16 {
		return nil, false
	}
	summaryOff := int64(binary.BigEndian.Uint64(body[0:8]))
	dataEnd := int64(binary.BigEndian.Uint64(body[8:16]))
	if dataEnd < 8 || summaryOff < dataEnd || summaryOff >= int64(len(data)-tailLen) {
		return nil, false
	}
	op, sbody, snext, ok := readRecord(data, int(summaryOff))
	if !ok || op != opSummary || snext != len(data)-tailLen {
		return nil, false
	}
	chunks, snaps, err := parseSummary(sbody)
	if err != nil {
		return nil, false
	}
	op, hbody, _, ok := readRecord(data, 8)
	if !ok || op != opHeader {
		return nil, false
	}
	meta, err := parseHeader(hbody)
	if err != nil {
		return nil, false
	}
	var last uint64
	for _, c := range chunks {
		if c.Offset < 8 || c.Offset >= dataEnd || c.FirstSeq != last+1 || c.LastSeq < c.FirstSeq || c.Edges < 1 {
			return nil, false
		}
		last = c.LastSeq
	}
	for _, s := range snaps {
		if s.Offset < 8 || s.Offset >= dataEnd || s.Seq > last {
			return nil, false
		}
	}
	return &Reader{
		data:    data,
		meta:    meta,
		chunks:  chunks,
		snaps:   snaps,
		lastSeq: last,
		dataEnd: dataEnd,
		clean:   true,
	}, true
}

// Meta returns the configuration recorded in the log's header.
func (r *Reader) Meta() Meta { return r.meta }

// Chunks returns the chunk index in file order (which is sequence
// order). The slice is the reader's own; don't mutate it.
func (r *Reader) Chunks() []ChunkInfo { return r.chunks }

// Snapshots returns the snapshot index in file order (ascending Seq).
func (r *Reader) Snapshots() []SnapshotInfo { return r.snaps }

// LastSeq returns the highest batch sequence in the valid prefix; 0
// when the log holds no batches.
func (r *Reader) LastSeq() uint64 { return r.lastSeq }

// DataEnd returns the byte length of the valid data prefix — where a
// resuming writer truncates to and appends from. Summary and footer
// records are not data: a sealed log's DataEnd points at its summary.
func (r *Reader) DataEnd() int64 { return r.dataEnd }

// Discarded returns how many bytes past the valid data prefix recovery
// drops — torn or corrupt tail records and any stale seal; 0 for a
// cleanly sealed log or one that ends exactly on a record boundary.
func (r *Reader) Discarded() int64 { return r.discarded }

// Clean reports whether the log was cleanly sealed (summary + footer +
// tail magic all verified).
func (r *Reader) Clean() bool { return r.clean }

// ReadChunk re-verifies the chunk record at c and streams its member
// batches to fn in sequence order. The edge slice passed to fn is
// scratch, valid only during the call.
func (r *Reader) ReadChunk(c ChunkInfo, fn func(seq uint64, edges []core.Edge) error) error {
	op, body, _, ok := readRecord(r.data, int(c.Offset))
	if !ok || op != opChunk {
		return fmt.Errorf("wal: no valid chunk record at offset %d", c.Offset)
	}
	var scratch []core.Edge
	return iterChunkBody(body, r.meta.N, &scratch, fn)
}

// ReadSnapshot re-verifies and decodes the snapshot record at s.
func (r *Reader) ReadSnapshot(s SnapshotInfo) (SnapshotRecord, error) {
	op, body, _, ok := readRecord(r.data, int(s.Offset))
	if !ok || op != opSnapshot {
		return SnapshotRecord{}, fmt.Errorf("wal: no valid snapshot record at offset %d", s.Offset)
	}
	return parseSnapshot(body, r.meta.N)
}

// LatestSnapshotAt returns the most recent snapshot covering no batch
// past seq, and whether one exists. This is the recovery starting
// point: restore it, then replay (snapshot.Seq, seq].
func (r *Reader) LatestSnapshotAt(seq uint64) (SnapshotInfo, bool) {
	for i := len(r.snaps) - 1; i >= 0; i-- {
		if r.snaps[i].Seq <= seq {
			return r.snaps[i], true
		}
	}
	return SnapshotInfo{}, false
}

// Replay streams every batch with sequence in (after, upTo] to fn in
// sequence order — the tail replay of recovery (after = snapshot
// sequence, upTo = LastSeq) and the bounded replay of rewind. The edge
// slice passed to fn is scratch, valid only during the call.
func (r *Reader) Replay(after, upTo uint64, fn func(seq uint64, edges []core.Edge) error) error {
	var scratch []core.Edge
	for _, c := range r.chunks {
		if c.LastSeq <= after {
			continue
		}
		if c.FirstSeq > upTo {
			break
		}
		op, body, _, ok := readRecord(r.data, int(c.Offset))
		if !ok || op != opChunk {
			return fmt.Errorf("wal: no valid chunk record at offset %d", c.Offset)
		}
		err := iterChunkBody(body, r.meta.N, &scratch, func(seq uint64, edges []core.Edge) error {
			if seq <= after || seq > upTo {
				return nil
			}
			return fn(seq, edges)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// validateChunkBody structurally validates one chunk body during the
// scan: header consistent, frames contiguous from the previous chunk's
// last sequence, every endpoint in range, edge total exact.
func validateChunkBody(body []byte, n int, prevLast uint64, scratch *[]core.Edge) (first, last uint64, edges int, err error) {
	if err := iterChunkBody(body, n, scratch, nil); err != nil {
		return 0, 0, 0, err
	}
	first = binary.BigEndian.Uint64(body[0:8])
	last = binary.BigEndian.Uint64(body[8:16])
	if first != prevLast+1 {
		return 0, 0, 0, fmt.Errorf("wal: chunk starts at sequence %d, expected %d", first, prevLast+1)
	}
	return first, last, int(binary.BigEndian.Uint32(body[16:20])), nil
}

// iterChunkBody walks a chunk body's frames, validating structure as it
// goes and (when fn is non-nil) delivering each batch. scratch is the
// caller's reusable edge buffer, grown in place.
func iterChunkBody(body []byte, n int, scratch *[]core.Edge, fn func(seq uint64, edges []core.Edge) error) error {
	if len(body) < chunkHeaderLen {
		return errors.New("wal: short chunk record")
	}
	first := binary.BigEndian.Uint64(body[0:8])
	last := binary.BigEndian.Uint64(body[8:16])
	total := int(binary.BigEndian.Uint32(body[16:20]))
	if first < 1 || last < first {
		return errors.New("wal: chunk sequence bounds inconsistent")
	}
	pos := chunkHeaderLen
	prev := first - 1
	seen := 0
	for pos < len(body) {
		if len(body)-pos < frameOverhead {
			return errors.New("wal: torn frame in chunk")
		}
		seq := binary.BigEndian.Uint64(body[pos:])
		count := int(binary.BigEndian.Uint32(body[pos+8:]))
		pos += frameOverhead
		if seq != prev+1 || seq > last {
			return errors.New("wal: chunk frames out of sequence")
		}
		prev = seq
		if count < 1 || count > (len(body)-pos)/8 {
			return errors.New("wal: chunk frame edge count inconsistent")
		}
		if cap(*scratch) < count {
			*scratch = make([]core.Edge, count)
		}
		edges := (*scratch)[:count]
		for i := 0; i < count; i++ {
			x := binary.BigEndian.Uint32(body[pos:])
			y := binary.BigEndian.Uint32(body[pos+4:])
			pos += 8
			// Bounds are re-checked here even though appended batches were
			// validated at the wire boundary: replay bypasses the DTO
			// layer, and a corrupt-but-CRC-colliding record must still not
			// index out of range.
			if int64(x) >= int64(n) || int64(y) >= int64(n) {
				return fmt.Errorf("wal: edge (%d,%d) outside universe of %d", x, y, n)
			}
			edges[i] = core.Edge{X: x, Y: y}
		}
		seen += count
		if fn != nil {
			if err := fn(seq, edges); err != nil {
				return err
			}
		}
	}
	if prev != last || seen != total {
		return errors.New("wal: chunk index disagrees with its frames")
	}
	return nil
}

// ReadMeta reads just the magic and header of the log at path — enough
// for tenant discovery without loading the chunks.
func ReadMeta(path string) (Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, err
	}
	defer f.Close()
	// Magic + framed header record; the header body is bounded by the
	// fixed fields plus maxNameLen.
	buf := make([]byte, 8+recordOverhead+64+maxNameLen)
	nr, err := io.ReadFull(f, buf)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
		return Meta{}, err
	}
	buf = buf[:nr]
	if len(buf) < 8 || !bytes.Equal(buf[:8], magic[:]) {
		return Meta{}, ErrNotALog
	}
	op, body, _, ok := readRecord(buf, 8)
	if !ok || op != opHeader {
		return Meta{}, errors.New("wal: missing or corrupt header record")
	}
	return parseHeader(body)
}
