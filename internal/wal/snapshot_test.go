package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// snapshotBody is the reference encoding of a snapshot record body, the
// one-copy form the streamed encoder replaced: the bytes on disk must not
// change.
func snapshotBody(seq uint64, kind uint8, fingerprint uint64, parents []uint32) []byte {
	b := make([]byte, 0, 8+1+8+4+4*len(parents))
	b = binary.BigEndian.AppendUint64(b, seq)
	b = append(b, kind)
	b = binary.BigEndian.AppendUint64(b, fingerprint)
	b = binary.BigEndian.AppendUint32(b, uint32(len(parents)))
	for _, p := range parents {
		b = binary.BigEndian.AppendUint32(b, p)
	}
	return b
}

// firstPieceWords is how many parent words the first piece holds after
// the record's 26 bytes of framing and fixed fields.
const firstPieceWords = (snapshotPiece - 1 - 4 - snapshotFixed) / 4

// faultFile is a log file that records the writer's calls and fails the
// one it is armed for.
type faultFile struct {
	*os.File
	writes   []int64 // offsets of the WriteAt calls, in order
	sizes    []int   // their lengths
	syncs    int
	failAt   int  // the WriteAt call (1-based) that fails; 0 for none
	short    bool // the failing WriteAt lands half its bytes first
	failSync bool
}

var errInjected = errors.New("injected fault")

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	f.writes = append(f.writes, off)
	f.sizes = append(f.sizes, len(p))
	if len(f.writes) != f.failAt {
		return f.File.WriteAt(p, off)
	}
	if f.short {
		n, err := f.File.WriteAt(p[:len(p)/2], off)
		if err == nil {
			err = io.ErrShortWrite
		}
		return n, err
	}
	return 0, errInjected
}

func (f *faultFile) Sync() error {
	f.syncs++
	if f.failSync {
		return errInjected
	}
	return f.File.Sync()
}

// inject swaps w's file for a faultFile over it, under the writer's lock.
func inject(w *Writer, f *faultFile) {
	w.mu.Lock()
	f.File = w.f.(*os.File)
	w.f = f
	w.mu.Unlock()
}

func randomParents(n int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(rng.Intn(n))
	}
	return p
}

// TestSnapshotStreamMatchesReference: the streamed record is byte for
// byte the reference encoding, written in pieces of at most
// snapshotPiece bytes at rising, contiguous offsets and fsynced once,
// for n = 1, n at and around the first piece's capacity (the 26 bytes of
// framing and fixed fields share that piece, and the CRC either fits
// after the last word or takes a piece of its own), and n spanning three
// pieces or more.
func TestSnapshotStreamMatchesReference(t *testing.T) {
	const m = firstPieceWords
	for _, n := range []int{1, m - 1, m, m + 1, m + 1<<18, m + 1<<18 + 1, 3 * 1 << 18} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			meta := testMeta(n)
			path := filepath.Join(t.TempDir(), "alpha.dsulog")
			w, _, err := Open(path, meta, Options{})
			if err != nil {
				t.Fatal(err)
			}
			edges := []core.Edge{{X: 0, Y: uint32(n - 1)}}
			if _, err := w.Append(edges); err != nil {
				t.Fatal(err)
			}
			ff := &faultFile{}
			inject(w, ff)
			off := w.offset
			parents := randomParents(n, int64(n))
			seq, err := w.WriteSnapshot(meta.Kind, parents)
			if err != nil || seq != 1 {
				t.Fatalf("WriteSnapshot = %d, %v", seq, err)
			}
			want := appendRecord(nil, opSnapshot, snapshotBody(1, meta.Kind, meta.Fingerprint(), parents))
			if w.offset-off != int64(len(want)) {
				t.Fatalf("record advanced the log %d bytes, reference is %d", w.offset-off, len(want))
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data[off:off+int64(len(want))], want) {
				t.Fatalf("streamed record differs from the reference encoding")
			}
			// The snapshot's pieces come first, each but the last within a
			// word of full; Close adds the seal.
			pieces := len(ff.writes) - 1
			at := off
			for i := 0; i < pieces; i++ {
				full := i == pieces-1 || ff.sizes[i] > snapshotPiece-4
				if ff.writes[i] != at || ff.sizes[i] > snapshotPiece || !full {
					t.Fatalf("piece %d of %d: %d bytes at offset %d, want at most %d at %d", i, pieces, ff.sizes[i], ff.writes[i], snapshotPiece, at)
				}
				at += int64(ff.sizes[i])
			}
			if at != off+int64(len(want)) {
				t.Fatalf("pieces cover %d bytes, the record has %d", at-off, len(want))
			}
			if ff.syncs != 2 { // the snapshot's, then Close's
				t.Fatalf("%d fsyncs, want one for the snapshot and one at Close", ff.syncs)
			}
			r, err := OpenReader(path)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := r.ReadSnapshot(r.Snapshots()[0])
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range sr.Parents {
				if p != parents[i] {
					t.Fatalf("parent %d read back as %d, wrote %d", i, p, parents[i])
				}
			}
		})
	}
}

// TestSnapshotFaults injects a failure into each step of a snapshot that
// spans three pieces. Every one must poison the writer and truncate the
// file back to the record's offset: later appends fail, and the log
// reopens by scan to the earlier snapshot and chunks with nothing
// discarded and no partial snapshot.
func TestSnapshotFaults(t *testing.T) {
	n := firstPieceWords + 1<<18 + 1000
	for _, tc := range []struct {
		name string
		ff   faultFile
	}{
		{"first piece", faultFile{failAt: 1}},
		{"middle piece", faultFile{failAt: 2}},
		{"short write", faultFile{failAt: 3, short: true}},
		{"fsync", faultFile{failSync: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			meta := testMeta(n)
			dir := t.TempDir()
			path := filepath.Join(dir, "alpha.dsulog")
			w, _, err := Open(path, meta, Options{})
			if err != nil {
				t.Fatal(err)
			}
			batches := randomBatches(t, n, 6, 5, 8)
			for _, b := range batches[:3] {
				if _, err := w.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			prior := randomParents(n, 1)
			if _, err := w.WriteSnapshot(meta.Kind, prior); err != nil {
				t.Fatal(err)
			}
			for _, b := range batches[3:] {
				if _, err := w.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			ff := tc.ff
			inject(w, &ff)
			if _, err := w.WriteSnapshot(meta.Kind, randomParents(n, 2)); err == nil {
				t.Fatalf("snapshot over a failing file succeeded")
			} else if !errors.Is(err, errInjected) && !errors.Is(err, io.ErrShortWrite) {
				t.Fatalf("snapshot error %v does not carry the fault", err)
			}
			if ff.failSync && (len(ff.writes) != 3 || ff.syncs != 1) {
				t.Fatalf("the snapshot wrote %d pieces and fsynced %d times, want 3 and 1", len(ff.writes), ff.syncs)
			}
			after, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if after.Size() != st.Size() {
				t.Fatalf("after the fault the file holds %d bytes, want the record's offset %d", after.Size(), st.Size())
			}
			for i := 0; i < 2; i++ {
				if _, err := w.Append([]core.Edge{{X: 1, Y: 2}}); err == nil {
					t.Fatalf("append %d after the fault succeeded", i)
				}
			}
			if err := w.Close(); err == nil {
				t.Fatalf("Close of a poisoned writer reported success")
			}

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			r, err := ScanReader(data)
			if err != nil {
				t.Fatal(err)
			}
			if r.Discarded() != 0 || r.Clean() {
				t.Fatalf("scan discarded %d bytes, clean %v; want a whole unsealed prefix", r.Discarded(), r.Clean())
			}
			if len(r.Snapshots()) != 1 || r.Snapshots()[0].Seq != 3 {
				t.Fatalf("snapshots %+v, want only the one at seq 3", r.Snapshots())
			}
			sr, err := r.ReadSnapshot(r.Snapshots()[0])
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range sr.Parents {
				if p != prior[i] {
					t.Fatalf("prior snapshot parent %d = %d, wrote %d", i, p, prior[i])
				}
			}
			if !sameBatches(collect(t, r), batches) {
				t.Fatalf("chunks after the fault differ from the appended batches")
			}
			w2, rd, err := Open(path, meta, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rd.LastSeq() != uint64(len(batches)) || len(rd.Snapshots()) != 1 {
				t.Fatalf("reopen: LastSeq %d, %d snapshots", rd.LastSeq(), len(rd.Snapshots()))
			}
			if seq, err := w2.Append([]core.Edge{{X: 1, Y: 2}}); err != nil || seq != uint64(len(batches))+1 {
				t.Fatalf("append after reopen = %d, %v", seq, err)
			}
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
