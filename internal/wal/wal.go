// Package wal is the durable-tenant subsystem's per-tenant write-ahead
// log: an MCAP-style chunked, CRC-verified, seekable record container
// holding one tenant's whole mutation history — every unite batch that
// crossed the dsu layer's batch funnel, in applied order, plus periodic snapshot
// checkpoints of the structure's flattened forest.
//
// # File shape
//
// A log file is a magic preamble followed by a sequence of records, each
// individually framed and CRC-protected:
//
//	[op u8][len u32][body len bytes][crc32 u32]
//
// with crc32 (IEEE) computed over op, len, and body, and all integers
// big-endian (matching the wire protocol's framing). The record kinds:
//
//	header   0x01  format version, tenant name, structure configuration
//	               (n, kind, find, early-termination, shards, seed) and
//	               its fingerprint — always the first record
//	chunk    0x02  one group-commit flush: [firstSeq u64][lastSeq u64]
//	               [edges u32] then the member batches as frames of
//	               [seq u64][count u32][count × (X u32, Y u32)] — the
//	               wire protocol's 8-byte edge layout
//	snapshot 0x03  a checkpoint: [seq u64][kind u8][fingerprint u64]
//	               [n u32][n × parent u32] — the structure's parent
//	               words after batch seq, read with mutations held back
//	summary  0x04  index of every chunk {offset, firstSeq, lastSeq,
//	               edges} and snapshot {offset, seq} — written at clean
//	               Close, ahead of the footer
//	footer   0x05  [summaryOffset u64][dataEnd u64], followed by the
//	               8-byte tail magic
//
// A cleanly closed log ends footer-then-tail-magic, so a reader seeks
// straight to the summary and never scans — the MCAP discipline. A log
// cut short by a crash simply stops mid-record: recovery scans forward,
// keeps the longest valid prefix, reports the discarded tail bytes, and
// a writer resuming over it truncates the tail (and any stale summary)
// before appending. Torn tails are the ONLY thing recovery discards —
// every record whose CRC verifies is preserved in order.
//
// # Ordering contract
//
// Append assigns sequence numbers under the writer's lock, so append
// order, sequence order, and file order are one order; Append does not
// return until the batch is durable per the writer's sync policy. The
// dsu layer's batch funnel calls Append before applying a batch and
// replies only after both, which is what makes acked-means-logged hold
// end to end.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"

	"repro/internal/core"
)

// Record opcodes.
const (
	opHeader   byte = 0x01
	opChunk    byte = 0x02
	opSnapshot byte = 0x03
	opSummary  byte = 0x04
	opFooter   byte = 0x05
)

// formatVersion is the header's format version; readers reject logs from
// a future format rather than misparse them.
const formatVersion = 1

var (
	// magic opens every log file.
	magic = [8]byte{'D', 'S', 'U', 'L', 'O', 'G', 0x00, formatVersion}
	// tailMagic closes a cleanly shut log, immediately after the footer
	// record — its presence at EOF is what licenses the summary fast path.
	tailMagic = [8]byte{'D', 'S', 'U', 'L', 'O', 'G', 0xff, formatVersion}
)

// recordOverhead is the framing cost around a record body: op, length,
// and CRC.
const recordOverhead = 1 + 4 + 4

// maxNameLen bounds the tenant name a header may carry (matches the
// network front end's tenant-name limit).
const maxNameLen = 128

var (
	// ErrNotALog reports a file without the log magic — not a truncation,
	// a different format altogether.
	ErrNotALog = errors.New("wal: not a dsu log (bad magic)")
	// ErrClosed reports an operation on a closed writer.
	ErrClosed = errors.New("wal: writer is closed")
)

// Meta is the structure configuration a log records in its header: a
// universe recovered from the log must be built with exactly this
// configuration, or replay would walk a different random linking order.
// Fingerprint folds the load-bearing fields into one comparable word.
type Meta struct {
	// Tenant is the tenant name the log belongs to.
	Tenant string
	// N is the universe size.
	N int
	// Kind is the structure kind, as the dsu layer's Kind numbering. New
	// logs carry 1; 2 and 3 were the retired sharded and lock-free kinds,
	// whose logs the dsu layer recovers into the one structure.
	Kind uint8
	// Find is the configured find strategy, as the dsu layer's
	// FindStrategy numbering.
	Find uint8
	// Early records WithEarlyTermination.
	Early bool
	// Shards is the shard count the retired sharded kind recorded; logs
	// of every other kind carry 0. It stays in the header and the
	// fingerprint, so logs of either age keep their bytes.
	Shards uint32
	// Seed is the structure seed of the random linking order.
	Seed uint64
}

// Fingerprint folds the configuration into one word (FNV-1a over the
// packed fields). Two metas with equal fingerprints build
// replay-equivalent structures; the header stores it so mismatched
// recovery fails loudly before any replay.
func (m Meta) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(m.N))
	put(uint64(m.Kind))
	put(uint64(m.Find))
	early := uint64(0)
	if m.Early {
		early = 1
	}
	put(early)
	put(uint64(m.Shards))
	put(m.Seed)
	return h.Sum64()
}

// headerBody encodes the header record body: version, fingerprint, and
// the configuration fields, then the tenant name.
func headerBody(m Meta) []byte {
	b := make([]byte, 0, 2+8+4+1+1+1+4+8+2+len(m.Tenant))
	b = binary.BigEndian.AppendUint16(b, formatVersion)
	b = binary.BigEndian.AppendUint64(b, m.Fingerprint())
	b = binary.BigEndian.AppendUint32(b, uint32(m.N))
	b = append(b, m.Kind, m.Find, boolByte(m.Early))
	b = binary.BigEndian.AppendUint32(b, m.Shards)
	b = binary.BigEndian.AppendUint64(b, m.Seed)
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Tenant)))
	b = append(b, m.Tenant...)
	return b
}

// parseHeader decodes a header record body, verifying the stored
// fingerprint against the recomputed one (a header whose own fields
// disagree with its fingerprint is corrupt).
func parseHeader(body []byte) (Meta, error) {
	const fixed = 2 + 8 + 4 + 1 + 1 + 1 + 4 + 8 + 2
	if len(body) < fixed {
		return Meta{}, errors.New("wal: short header record")
	}
	version := binary.BigEndian.Uint16(body[0:2])
	if version != formatVersion {
		return Meta{}, fmt.Errorf("wal: log format version %d, this build reads %d", version, formatVersion)
	}
	fp := binary.BigEndian.Uint64(body[2:10])
	m := Meta{
		N:      int(binary.BigEndian.Uint32(body[10:14])),
		Kind:   body[14],
		Find:   body[15],
		Early:  body[16] != 0,
		Shards: binary.BigEndian.Uint32(body[17:21]),
		Seed:   binary.BigEndian.Uint64(body[21:29]),
	}
	nameLen := int(binary.BigEndian.Uint16(body[29:31]))
	if nameLen > maxNameLen || len(body) != fixed+nameLen {
		return Meta{}, errors.New("wal: header name length inconsistent")
	}
	m.Tenant = string(body[fixed:])
	if m.Fingerprint() != fp {
		return Meta{}, errors.New("wal: header fingerprint mismatch")
	}
	return m, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// appendRecord frames body as an op record onto dst: op, length, body,
// CRC over the three.
func appendRecord(dst []byte, op byte, body []byte) []byte {
	start := len(dst)
	dst = append(dst, op)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	dst = append(dst, body...)
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.BigEndian.AppendUint32(dst, crc)
}

// appendFrame encodes one batch as a chunk-member frame: seq, count,
// then the edges in the wire protocol's 8-byte big-endian layout.
func appendFrame(dst []byte, seq uint64, edges []core.Edge) []byte {
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(edges)))
	for _, e := range edges {
		dst = binary.BigEndian.AppendUint32(dst, e.X)
		dst = binary.BigEndian.AppendUint32(dst, e.Y)
	}
	return dst
}

// frameOverhead is a chunk-member frame's framing cost (seq + count).
const frameOverhead = 8 + 4

// chunkHeaderLen is the fixed prefix of a chunk body (firstSeq, lastSeq,
// edge count).
const chunkHeaderLen = 8 + 8 + 4

// readRecord parses the record starting at pos in data. It returns the
// opcode, the body (aliasing data), and the offset just past the record.
// ok is false when the bytes at pos do not hold a complete,
// CRC-verified record — a torn tail, from the scanner's point of view.
func readRecord(data []byte, pos int) (op byte, body []byte, next int, ok bool) {
	if pos < 0 || len(data)-pos < recordOverhead {
		return 0, nil, 0, false
	}
	op = data[pos]
	n := int(binary.BigEndian.Uint32(data[pos+1 : pos+5]))
	if n < 0 || n > len(data)-pos-recordOverhead {
		return 0, nil, 0, false
	}
	end := pos + 1 + 4 + n
	want := binary.BigEndian.Uint32(data[end : end+4])
	if crc32.ChecksumIEEE(data[pos:end]) != want {
		return 0, nil, 0, false
	}
	return op, data[pos+5 : end], end + 4, true
}

// SnapshotRecord is one decoded snapshot checkpoint: the partition of
// the structure after batch Seq, as the backend's flattened Snapshot()
// array (element space; roots satisfy Parents[x] == x, and non-roots
// hold parent chains or, in logs of the retired sharded kind, point
// straight at their representative — either applies identically).
type SnapshotRecord struct {
	// Seq is the last batch sequence the snapshot covers (0: a snapshot
	// of the empty log).
	Seq uint64
	// Kind echoes the header's structure kind at checkpoint time.
	Kind uint8
	// Fingerprint echoes the header's configuration fingerprint.
	Fingerprint uint64
	// Parents is the flattened forest, length n.
	Parents []uint32
}

// snapshotFixed is the fixed prefix of a snapshot body (seq, kind,
// fingerprint, parent count).
const snapshotFixed = 8 + 1 + 8 + 4

// parseSnapshot decodes a snapshot record body; n is the universe size
// from the header (a snapshot of any other length is corrupt).
func parseSnapshot(body []byte, n int) (SnapshotRecord, error) {
	if len(body) < snapshotFixed {
		return SnapshotRecord{}, errors.New("wal: short snapshot record")
	}
	sr := SnapshotRecord{
		Seq:         binary.BigEndian.Uint64(body[0:8]),
		Kind:        body[8],
		Fingerprint: binary.BigEndian.Uint64(body[9:17]),
	}
	count := int(binary.BigEndian.Uint32(body[17:21]))
	if count != n || len(body) != snapshotFixed+4*count {
		return SnapshotRecord{}, fmt.Errorf("wal: snapshot holds %d parents, universe has %d", count, n)
	}
	sr.Parents = make([]uint32, count)
	for i := range sr.Parents {
		p := binary.BigEndian.Uint32(body[snapshotFixed+4*i:])
		if int(p) >= n {
			return SnapshotRecord{}, fmt.Errorf("wal: snapshot parent %d out of range", p)
		}
		sr.Parents[i] = p
	}
	return sr, nil
}

// ChunkInfo indexes one chunk record: where it starts and which batch
// sequences it holds — the summary's (and the scanner's) chunk entry.
type ChunkInfo struct {
	// Offset is the chunk record's file offset (at the opcode byte).
	Offset int64
	// FirstSeq and LastSeq bound the member batches, inclusive.
	FirstSeq, LastSeq uint64
	// Edges is the total edge count across the member batches.
	Edges int
}

// SnapshotInfo indexes one snapshot record.
type SnapshotInfo struct {
	// Offset is the snapshot record's file offset (at the opcode byte).
	Offset int64
	// Seq is the last batch sequence the snapshot covers.
	Seq uint64
}

// summaryBody encodes the summary record: the chunk index then the
// snapshot index.
func summaryBody(chunks []ChunkInfo, snaps []SnapshotInfo) []byte {
	b := make([]byte, 0, 4+len(chunks)*28+4+len(snaps)*16)
	b = binary.BigEndian.AppendUint32(b, uint32(len(chunks)))
	for _, c := range chunks {
		b = binary.BigEndian.AppendUint64(b, uint64(c.Offset))
		b = binary.BigEndian.AppendUint64(b, c.FirstSeq)
		b = binary.BigEndian.AppendUint64(b, c.LastSeq)
		b = binary.BigEndian.AppendUint32(b, uint32(c.Edges))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(snaps)))
	for _, s := range snaps {
		b = binary.BigEndian.AppendUint64(b, uint64(s.Offset))
		b = binary.BigEndian.AppendUint64(b, s.Seq)
	}
	return b
}

// parseSummary decodes a summary record body.
func parseSummary(body []byte) (chunks []ChunkInfo, snaps []SnapshotInfo, err error) {
	if len(body) < 4 {
		return nil, nil, errors.New("wal: short summary record")
	}
	nc := int(binary.BigEndian.Uint32(body[0:4]))
	pos := 4
	if nc < 0 || nc > (len(body)-pos)/28 {
		return nil, nil, errors.New("wal: summary chunk count inconsistent")
	}
	chunks = make([]ChunkInfo, nc)
	for i := range chunks {
		chunks[i] = ChunkInfo{
			Offset:   int64(binary.BigEndian.Uint64(body[pos:])),
			FirstSeq: binary.BigEndian.Uint64(body[pos+8:]),
			LastSeq:  binary.BigEndian.Uint64(body[pos+16:]),
			Edges:    int(binary.BigEndian.Uint32(body[pos+24:])),
		}
		pos += 28
	}
	if len(body)-pos < 4 {
		return nil, nil, errors.New("wal: short summary record")
	}
	ns := int(binary.BigEndian.Uint32(body[pos:]))
	pos += 4
	if ns < 0 || ns > (len(body)-pos)/16 {
		return nil, nil, errors.New("wal: summary snapshot count inconsistent")
	}
	snaps = make([]SnapshotInfo, ns)
	for i := range snaps {
		snaps[i] = SnapshotInfo{
			Offset: int64(binary.BigEndian.Uint64(body[pos:])),
			Seq:    binary.BigEndian.Uint64(body[pos+8:]),
		}
		pos += 16
	}
	if pos != len(body) {
		return nil, nil, errors.New("wal: summary record has trailing bytes")
	}
	return chunks, snaps, nil
}
