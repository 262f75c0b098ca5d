package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/bufpool"
	"repro/internal/core"
)

// SyncPolicy selects when Append's durability point is reached.
type SyncPolicy uint8

const (
	// SyncGroup (the default) fsyncs once per flushed chunk: concurrent
	// appenders coalesce into one write and share one fsync, the
	// group-commit discipline of the wire layer's FlushWriter.
	SyncGroup SyncPolicy = iota
	// SyncNone never fsyncs on append (only at snapshot and close) —
	// crash durability is whatever the OS got around to writing.
	SyncNone
	// SyncAlways fsyncs every batch before Append returns, fully
	// serializing appenders. The strongest and slowest policy.
	SyncAlways
)

// String names the policy as the dsuserve -fsync flag spells it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncGroup:
		return "group"
	case SyncNone:
		return "none"
	case SyncAlways:
		return "always"
	}
	return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
}

// Options tunes a Writer. The zero value is ready to use: group-commit
// fsync, checkpoints only on demand.
type Options struct {
	// Sync is the append durability policy.
	Sync SyncPolicy
	// CheckpointEvery asks CheckpointDue to report true after this many
	// logged edges since the last snapshot; 0 disables the automatic
	// trigger (checkpoints still happen on demand).
	CheckpointEvery int64
}

// file is what a Writer does with its log file once it is open.
// *os.File is the implementation; tests substitute one that fails on cue.
type file interface {
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// snapshotPiece is the size of the one pooled buffer a snapshot record
// streams through: each piece is written as it fills, so a checkpoint
// holds O(snapshotPiece) bytes, not a copy of the record.
const snapshotPiece = 1 << 20

// Writer is the append side of one tenant's log. Append assigns the
// batch its sequence number and returns once the batch is durable per
// the sync policy; WriteSnapshotFrom (or WriteSnapshot, from a copy)
// records a checkpoint while the caller holds mutations back;
// Close seals the log with a summary index and footer so the next open
// seeks instead of scanning.
//
// Append is safe for concurrent use. Under SyncGroup and SyncNone,
// concurrent appends coalesce: each appender encodes its frame into the
// pending buffer under the lock and parks until the flusher goroutine
// has written (and, under SyncGroup, fsynced) a chunk covering its
// sequence — one write and one fsync amortized over every parked
// appender, the FlushWriter discipline applied to durability.
//
// Any write failure poisons the writer: the partial record is truncated
// away so the on-disk prefix stays scannable, the error is latched, and
// every subsequent Append fails with it. A log that cannot promise
// durability must not keep acknowledging batches.
type Writer struct {
	f    file
	path string
	meta Meta
	opt  Options

	mu        sync.Mutex
	flushed   sync.Cond // broadcast when committed or err advances
	pend      []byte    // encoded frames awaiting the flusher
	spare     []byte    // double buffer: swapped with pend at flush
	pendFirst uint64    // first sequence in pend (valid when pend non-empty)
	pendLast  uint64
	pendEdges int
	nextSeq   uint64 // next sequence to assign
	committed uint64 // highest durable sequence
	writing   bool   // flusher holds a taken group outside the lock
	closed    bool
	err       error // latched first failure; poisons all later appends

	offset int64 // durable data length: where the next record lands
	chunks []ChunkInfo
	snaps  []SnapshotInfo

	edgesSinceSnap atomic.Int64

	dirty chan struct{} // capacity 1: nudges the flusher
	quit  chan struct{}
	done  chan struct{}
}

// Open opens (or creates) the log at path for meta's configuration. A
// fresh file is stamped with the magic and header and returns a nil
// Reader. An existing file is recovered first: the longest valid record
// prefix is kept, any torn tail and stale summary are truncated away,
// and the returned Reader (still holding the pre-truncation bytes of
// that valid prefix) is handed back so the caller can replay state
// before appending resumes at LastSeq()+1. A file recorded under a
// different configuration fingerprint is refused — replaying it under
// this configuration would walk a different linking order.
func Open(path string, meta Meta, opt Options) (*Writer, *Reader, error) {
	if len(meta.Tenant) == 0 || len(meta.Tenant) > maxNameLen {
		return nil, nil, fmt.Errorf("wal: tenant name length %d out of range [1,%d]", len(meta.Tenant), maxNameLen)
	}
	if meta.N <= 0 || int64(meta.N) > int64(^uint32(0)) {
		return nil, nil, fmt.Errorf("wal: universe size %d out of range", meta.N)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	w := &Writer{
		f:       f,
		path:    path,
		meta:    meta,
		opt:     opt,
		nextSeq: 1,
		dirty:   make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	w.flushed.L = &w.mu

	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	var rd *Reader
	if st.Size() == 0 {
		buf := append(make([]byte, 0, 64), magic[:]...)
		buf = appendRecord(buf, opHeader, headerBody(meta))
		if _, err := f.WriteAt(buf, 0); err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		w.offset = int64(len(buf))
	} else {
		rd, err = OpenReader(path)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		if got, want := rd.Meta(), meta; got.Fingerprint() != want.Fingerprint() {
			f.Close()
			// The message can reach a remote client, so it names the
			// tenant, not the server-side path, and keeps the seeds out: a
			// tenant's seed fixes its random linking order, and a client
			// that knows the order can build a chain of n nodes.
			seed := "the same seed"
			if got.Seed != want.Seed {
				seed = "a different seed"
			}
			return nil, nil, fmt.Errorf(
				"wal: the log of tenant %q was recorded under a different configuration: log has n=%d kind=%d find=%d early=%v shards=%d, requested n=%d kind=%d find=%d early=%v shards=%d and %s",
				want.Tenant,
				got.N, got.Kind, got.Find, got.Early, got.Shards,
				want.N, want.Kind, want.Find, want.Early, want.Shards, seed)
		}
		// Drop the torn tail (if any) and the sealed summary/footer: both
		// sit past DataEnd, and appends must land where data ends.
		if err := f.Truncate(rd.DataEnd()); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
		w.offset = rd.DataEnd()
		w.nextSeq = rd.LastSeq() + 1
		w.committed = rd.LastSeq()
		w.chunks = append(w.chunks, rd.Chunks()...)
		w.snaps = append(w.snaps, rd.Snapshots()...)
		// Snapshots happen at quiescence, so the latest snapshot's
		// sequence is a chunk boundary: the edges past it are exactly the
		// chunks whose LastSeq exceeds it.
		var snapSeq uint64
		if n := len(w.snaps); n > 0 {
			snapSeq = w.snaps[n-1].Seq
		}
		var tail int64
		for _, c := range w.chunks {
			if c.LastSeq > snapSeq {
				tail += int64(c.Edges)
			}
		}
		w.edgesSinceSnap.Store(tail)
	}
	go w.flusher()
	return w, rd, nil
}

// Meta returns the configuration the log was opened with.
func (w *Writer) Meta() Meta { return w.meta }

// Append logs one unite batch and returns its assigned sequence number
// once the batch is durable per the sync policy. Sequence numbers are
// assigned under the lock in append order starting at 1, so sequence
// order and log order coincide. An empty batch is not logged and
// returns sequence 0.
func (w *Writer) Append(edges []core.Edge) (uint64, error) {
	if len(edges) == 0 {
		return 0, nil
	}
	if w.opt.Sync == SyncAlways {
		return w.appendSerial(edges)
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, ErrClosed
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return 0, err
	}
	seq := w.nextSeq
	w.nextSeq++
	if w.pend == nil {
		w.pend = bufpool.Get(1 << bufpool.MinBits)
	}
	if len(w.pend) == 0 {
		w.pendFirst = seq
	}
	w.pend = appendFrame(w.pend, seq, edges)
	w.pendLast = seq
	w.pendEdges += len(edges)
	w.edgesSinceSnap.Add(int64(len(edges)))
	select {
	case w.dirty <- struct{}{}:
	default:
	}
	for w.committed < seq && w.err == nil {
		w.flushed.Wait()
	}
	if w.committed >= seq {
		w.mu.Unlock()
		return seq, nil
	}
	err := w.err
	w.mu.Unlock()
	return 0, err
}

// appendSerial is the SyncAlways path: sequence assignment, write, and
// fsync all under the lock. Fully serialized appenders IS
// fsync-per-batch semantics — there is no group to commit.
func (w *Writer) appendSerial(edges []core.Edge) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if w.err != nil {
		return 0, w.err
	}
	seq := w.nextSeq
	w.nextSeq++
	frameLen := frameOverhead + 8*len(edges)
	rec := bufpool.Get(recordOverhead + chunkHeaderLen + frameLen)
	rec = append(rec, opChunk)
	rec = binary.BigEndian.AppendUint32(rec, uint32(chunkHeaderLen+frameLen))
	rec = binary.BigEndian.AppendUint64(rec, seq)
	rec = binary.BigEndian.AppendUint64(rec, seq)
	rec = binary.BigEndian.AppendUint32(rec, uint32(len(edges)))
	rec = appendFrame(rec, seq, edges)
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
	off := w.offset
	err := w.writeDurable(rec, off, true)
	if err != nil {
		w.latchLocked(err, off)
		bufpool.Put(rec)
		return 0, w.err
	}
	w.offset = off + int64(len(rec))
	w.chunks = append(w.chunks, ChunkInfo{Offset: off, FirstSeq: seq, LastSeq: seq, Edges: len(edges)})
	w.committed = seq
	w.edgesSinceSnap.Add(int64(len(edges)))
	w.flushed.Broadcast()
	bufpool.Put(rec)
	return seq, nil
}

// flusher drains the pending buffer into chunk records until told to
// quit; Close drains whatever remains after that.
func (w *Writer) flusher() {
	defer close(w.done)
	for {
		select {
		case <-w.dirty:
			for w.flushOnce() {
			}
		case <-w.quit:
			return
		}
	}
}

// flushOnce takes the pending group (if any), writes it as one chunk
// record, and commits its sequences. Reports whether it did work.
func (w *Writer) flushOnce() bool {
	w.mu.Lock()
	if len(w.pend) == 0 || w.err != nil {
		w.mu.Unlock()
		return false
	}
	group := w.pend
	first, last, edges := w.pendFirst, w.pendLast, w.pendEdges
	if w.spare != nil {
		w.pend = w.spare[:0]
		w.spare = nil
	} else {
		w.pend = nil
	}
	w.pendEdges = 0
	w.writing = true
	off := w.offset
	w.mu.Unlock()

	rec := bufpool.Get(recordOverhead + chunkHeaderLen + len(group))
	rec = append(rec, opChunk)
	rec = binary.BigEndian.AppendUint32(rec, uint32(chunkHeaderLen+len(group)))
	rec = binary.BigEndian.AppendUint64(rec, first)
	rec = binary.BigEndian.AppendUint64(rec, last)
	rec = binary.BigEndian.AppendUint32(rec, uint32(edges))
	rec = append(rec, group...)
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))

	err := w.writeDurable(rec, off, w.opt.Sync == SyncGroup)

	w.mu.Lock()
	w.spare = group[:0]
	w.writing = false
	if err != nil {
		w.latchLocked(err, off)
	} else {
		w.offset = off + int64(len(rec))
		w.chunks = append(w.chunks, ChunkInfo{Offset: off, FirstSeq: first, LastSeq: last, Edges: edges})
		w.committed = last
	}
	w.flushed.Broadcast()
	w.mu.Unlock()
	bufpool.Put(rec)
	return true
}

// writeDurable lands rec at off, fsyncing when sync is set. WriteAt
// rather than Write: the durable prefix length is authoritative state,
// not the file position, so a failed partial write never drifts where
// the next record lands.
func (w *Writer) writeDurable(rec []byte, off int64, sync bool) error {
	if _, err := w.f.WriteAt(rec, off); err != nil {
		return err
	}
	if sync {
		return w.f.Sync()
	}
	return nil
}

// latchLocked (mu held) poisons the writer with its first failure and
// best-effort truncates the partial record away so the on-disk prefix
// stays a clean scan target.
func (w *Writer) latchLocked(err error, off int64) {
	if w.err == nil {
		w.err = fmt.Errorf("wal: log poisoned by write failure: %w", err)
	}
	w.f.Truncate(off)
}

// WriteSnapshot records a checkpoint of the forest parents, a copy the
// caller holds: it is WriteSnapshotFrom reading that copy, so the record
// has the same bytes. The copy must cover what the record claims, the
// sequences up to the log's last: take it, as WriteSnapshotFrom reads,
// with every mutation held back and finds free to run.
func (w *Writer) WriteSnapshot(kind uint8, parents []uint32) (uint64, error) {
	if len(parents) != w.meta.N {
		return 0, fmt.Errorf("wal: snapshot holds %d parents, universe has %d", len(parents), w.meta.N)
	}
	return w.WriteSnapshotFrom(kind, func(dst []byte, from int) {
		for i, p := range parents[from : from+len(dst)/4] {
			binary.BigEndian.PutUint32(dst[4*i:], p)
		}
	})
}

// WriteSnapshotFrom records a checkpoint of the structure's forest, read
// straight from the structure: put(dst, from) fills dst with the parent
// words of elements from, from+1, …, four big-endian bytes each, and the
// writer asks for all N of them in order. The record streams through one
// pooled buffer of snapshotPiece bytes, the CRC updated as each piece
// fills and each piece written at rising offsets, then one fsync
// regardless of the append policy. A failure anywhere truncates the log
// back to the record's start and poisons the writer, so no partial
// snapshot is ever scanned. It returns the covered sequence and resets
// the automatic checkpoint trigger.
//
// The snapshot claims to cover every sequence up to its own, so the
// caller holds back every mutation from before the call until it
// returns: no Append, and no link. Finds may keep running: a find only
// swings a parent pointer to an ancestor of its element in the same
// tree, and with no link landing the trees stay fixed. Whichever mix of
// old and new words the streamed read sees, each word points at an
// ancestor of its element in those trees, so the record is a forest (ids
// still increase along every pointer) of exactly the covered partition.
func (w *Writer) WriteSnapshotFrom(kind uint8, put func(dst []byte, from int)) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for (len(w.pend) > 0 || w.writing) && w.err == nil && !w.closed {
		w.flushed.Wait()
	}
	if w.closed {
		return 0, ErrClosed
	}
	if w.err != nil {
		return 0, w.err
	}
	seq := w.nextSeq - 1
	off := w.offset
	end, err := w.streamSnapshot(off, seq, kind, put)
	if err != nil {
		w.latchLocked(err, off)
		return 0, w.err
	}
	w.offset = end
	w.snaps = append(w.snaps, SnapshotInfo{Offset: off, Seq: seq})
	w.edgesSinceSnap.Store(0)
	return seq, nil
}

// streamSnapshot writes the snapshot record covering seq at off, piece
// by piece, fsyncs it, and returns the offset just past it. The first
// piece opens with the record's framing and the body's fixed fields; the
// CRC trails the last parent word, in the last piece or, when that one
// is full, a piece of its own.
func (w *Writer) streamSnapshot(off int64, seq uint64, kind uint8, put func(dst []byte, from int)) (int64, error) {
	n := w.meta.N
	buf := bufpool.Get(snapshotPiece)
	defer bufpool.Put(buf)
	b := append(buf[:0:snapshotPiece], opSnapshot)
	b = binary.BigEndian.AppendUint32(b, uint32(snapshotFixed+4*n))
	b = binary.BigEndian.AppendUint64(b, seq)
	b = append(b, kind)
	b = binary.BigEndian.AppendUint64(b, w.meta.Fingerprint())
	b = binary.BigEndian.AppendUint32(b, uint32(n))
	var crc uint32
	for from := 0; from < n; {
		k := min((cap(b)-len(b))/4, n-from)
		put(b[len(b):len(b)+4*k], from)
		b, from = b[:len(b)+4*k], from+k
		if cap(b)-len(b) < 4 {
			crc = crc32.Update(crc, crc32.IEEETable, b)
			if _, err := w.f.WriteAt(b, off); err != nil {
				return 0, err
			}
			off += int64(len(b))
			b = b[:0]
		}
	}
	crc = crc32.Update(crc, crc32.IEEETable, b)
	b = binary.BigEndian.AppendUint32(b, crc)
	if err := w.writeDurable(b, off, true); err != nil {
		return 0, err
	}
	return off + int64(len(b)), nil
}

// CheckpointDue reports whether the automatic checkpoint trigger has
// fired: CheckpointEvery > 0 and at least that many edges logged since
// the last snapshot. Lock-free; safe to call on every batch.
func (w *Writer) CheckpointDue() bool {
	return w.opt.CheckpointEvery > 0 && w.edgesSinceSnap.Load() >= w.opt.CheckpointEvery
}

// Close drains pending appends, seals the log with the summary index,
// footer, and tail magic, fsyncs, and closes the file. A sealed log
// opens through the footer fast path with no scan. Close is idempotent
// and returns the latched error, if any — a poisoned log is closed
// without sealing, so the next open scans and recovers the valid
// prefix.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.closed = true
	w.mu.Unlock()
	close(w.quit)
	<-w.done
	for w.flushOnce() {
	}

	w.mu.Lock()
	err := w.err
	off := w.offset
	var tail []byte
	if err == nil {
		tail = appendRecord(nil, opSummary, summaryBody(w.chunks, w.snaps))
		body := make([]byte, 0, 16)
		body = binary.BigEndian.AppendUint64(body, uint64(off)) // summary offset
		body = binary.BigEndian.AppendUint64(body, uint64(off)) // data end
		tail = appendRecord(tail, opFooter, body)
		tail = append(tail, tailMagic[:]...)
	}
	w.flushed.Broadcast()
	w.mu.Unlock()

	if err == nil {
		if _, werr := w.f.WriteAt(tail, off); werr != nil {
			err = werr
		} else if serr := w.f.Sync(); serr != nil {
			err = serr
		}
	}
	if cerr := w.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
	return err
}
