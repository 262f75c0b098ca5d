package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
)

func testMeta(n int) Meta {
	return Meta{Tenant: "alpha", N: n, Kind: 1, Find: 2, Early: true, Shards: 0, Seed: 0x6a79616e7469}
}

// randomBatches deterministically generates count batches of 1..maxLen
// edges over [0, n).
func randomBatches(t *testing.T, n, count, maxLen int, seed int64) [][]core.Edge {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	batches := make([][]core.Edge, count)
	for i := range batches {
		b := make([]core.Edge, 1+rng.Intn(maxLen))
		for j := range b {
			b[j] = core.Edge{X: uint32(rng.Intn(n)), Y: uint32(rng.Intn(n))}
		}
		batches[i] = b
	}
	return batches
}

// writeLog appends the batches in order and returns the log path. When
// snapAfter is non-nil it maps a batch index (0-based, after which) to
// the snapshot parents to checkpoint there.
func writeLog(t *testing.T, dir string, meta Meta, opt Options, batches [][]core.Edge, snapAfter map[int][]uint32) string {
	t.Helper()
	path := filepath.Join(dir, meta.Tenant+".dsulog")
	w, rd, err := Open(path, meta, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if rd != nil {
		t.Fatalf("Open of a fresh file returned a reader")
	}
	for i, b := range batches {
		seq, err := w.Append(b)
		if err != nil {
			t.Fatalf("Append #%d: %v", i, err)
		}
		if want := uint64(i + 1); seq != want {
			t.Fatalf("Append #%d assigned seq %d, want %d", i, seq, want)
		}
		if parents, ok := snapAfter[i]; ok {
			sseq, err := w.WriteSnapshot(meta.Kind, parents)
			if err != nil {
				t.Fatalf("WriteSnapshot after #%d: %v", i, err)
			}
			if sseq != uint64(i+1) {
				t.Fatalf("snapshot covers seq %d, want %d", sseq, i+1)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path
}

// collect replays the whole log into a [][]core.Edge, copying batches.
func collect(t *testing.T, r *Reader) [][]core.Edge {
	t.Helper()
	var got [][]core.Edge
	err := r.Replay(0, r.LastSeq(), func(seq uint64, edges []core.Edge) error {
		if want := uint64(len(got) + 1); seq != want {
			return fmt.Errorf("replay delivered seq %d, want %d", seq, want)
		}
		got = append(got, append([]core.Edge(nil), edges...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func sameBatches(a, b [][]core.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestRoundTripSealed(t *testing.T) {
	const n = 512
	meta := testMeta(n)
	batches := randomBatches(t, n, 40, 17, 1)
	snap := make([]uint32, n)
	for i := range snap {
		snap[i] = uint32(i / 2)
	}
	path := writeLog(t, t.TempDir(), meta, Options{}, batches, map[int][]uint32{19: snap})

	r, err := OpenReader(path)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	if !r.Clean() {
		t.Fatalf("sealed log not clean")
	}
	if r.Discarded() != 0 {
		t.Fatalf("sealed log discarded %d bytes", r.Discarded())
	}
	if r.Meta() != meta {
		t.Fatalf("meta round-trip: got %+v want %+v", r.Meta(), meta)
	}
	if r.LastSeq() != uint64(len(batches)) {
		t.Fatalf("LastSeq = %d, want %d", r.LastSeq(), len(batches))
	}
	if !sameBatches(collect(t, r), batches) {
		t.Fatalf("replayed batches differ from appended batches")
	}
	if len(r.Snapshots()) != 1 || r.Snapshots()[0].Seq != 20 {
		t.Fatalf("snapshot index = %+v, want one at seq 20", r.Snapshots())
	}
	sr, err := r.ReadSnapshot(r.Snapshots()[0])
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if sr.Seq != 20 || sr.Kind != meta.Kind || sr.Fingerprint != meta.Fingerprint() {
		t.Fatalf("snapshot record = %+v", sr)
	}
	for i, p := range sr.Parents {
		if p != uint32(i/2) {
			t.Fatalf("snapshot parent[%d] = %d, want %d", i, p, i/2)
		}
	}
	// Edge totals in the chunk index must sum to the appended total.
	want := 0
	for _, b := range batches {
		want += len(b)
	}
	got := 0
	for _, c := range r.Chunks() {
		got += c.Edges
	}
	if got != want {
		t.Fatalf("chunk index holds %d edges, appended %d", got, want)
	}
}

// TestFooterPathMatchesScan: the seek-only open of a sealed log and the
// unconditional scan must agree on every index entry.
func TestFooterPathMatchesScan(t *testing.T) {
	const n = 256
	meta := testMeta(n)
	batches := randomBatches(t, n, 60, 9, 2)
	snap := make([]uint32, n)
	path := writeLog(t, t.TempDir(), meta, Options{}, batches, map[int][]uint32{9: snap, 39: snap})

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fast, ok := readerViaFooter(data)
	if !ok {
		t.Fatalf("sealed log did not take the footer fast path")
	}
	scan, err := ScanReader(data)
	if err != nil {
		t.Fatalf("ScanReader: %v", err)
	}
	if !scan.Clean() {
		t.Fatalf("scan of sealed log not clean")
	}
	if fast.Meta() != scan.Meta() || fast.LastSeq() != scan.LastSeq() || fast.DataEnd() != scan.DataEnd() {
		t.Fatalf("fast path and scan disagree: %+v vs %+v", fast, scan)
	}
	if len(fast.Chunks()) != len(scan.Chunks()) {
		t.Fatalf("chunk counts differ: %d vs %d", len(fast.Chunks()), len(scan.Chunks()))
	}
	for i := range fast.Chunks() {
		if fast.Chunks()[i] != scan.Chunks()[i] {
			t.Fatalf("chunk %d differs: %+v vs %+v", i, fast.Chunks()[i], scan.Chunks()[i])
		}
	}
	if len(fast.Snapshots()) != len(scan.Snapshots()) {
		t.Fatalf("snapshot counts differ")
	}
	for i := range fast.Snapshots() {
		if fast.Snapshots()[i] != scan.Snapshots()[i] {
			t.Fatalf("snapshot %d differs", i)
		}
	}
}

// TestCutAtEveryByte truncates the log at every possible length and
// demands recovery of the longest valid prefix: never a panic, never an
// error (past the header), never a reordered or invented batch, and an
// exact accounting of the discarded tail.
func TestCutAtEveryByte(t *testing.T) {
	const n = 64
	meta := testMeta(n)
	batches := randomBatches(t, n, 12, 5, 3)
	snap := make([]uint32, n)
	path := writeLog(t, t.TempDir(), meta, Options{}, batches, map[int][]uint32{5: snap})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	full, err := ScanReader(data)
	if err != nil {
		t.Fatal(err)
	}
	headerEnd := -1
	{
		_, _, next, ok := readRecord(data, 8)
		if !ok {
			t.Fatal("no header record")
		}
		headerEnd = next
	}

	prevBatches := -1
	for cut := 0; cut <= len(data); cut++ {
		r, err := NewReader(data[:cut])
		if cut < headerEnd {
			// Not even a complete header: must refuse, not recover.
			if err == nil {
				t.Fatalf("cut %d: expected an error before the header completes", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got := collect(t, r)
		// Prefix property: the recovered batches are exactly a prefix of
		// the appended ones.
		if len(got) > len(batches) {
			t.Fatalf("cut %d: recovered %d batches from %d appended", cut, len(got), len(batches))
		}
		if !sameBatches(got, batches[:len(got)]) {
			t.Fatalf("cut %d: recovered batches are not a prefix of the appended ones", cut)
		}
		// Monotonic: cutting later never recovers less.
		if len(got) < prevBatches {
			t.Fatalf("cut %d: recovered %d batches, cut %d recovered %d", cut, len(got), cut-1, prevBatches)
		}
		prevBatches = len(got)
		// Exact tail accounting: valid prefix + discarded = file.
		if r.DataEnd()+r.Discarded() != int64(cut) && !r.Clean() {
			t.Fatalf("cut %d: dataEnd %d + discarded %d ≠ %d", cut, r.DataEnd(), r.Discarded(), cut)
		}
		if cut < len(data) && r.Clean() {
			t.Fatalf("cut %d: a truncated log reported clean", cut)
		}
		for _, s := range r.Snapshots() {
			if _, err := r.ReadSnapshot(s); err != nil {
				t.Fatalf("cut %d: indexed snapshot unreadable: %v", cut, err)
			}
		}
	}
	if prevBatches != len(batches) {
		t.Fatalf("full file recovered %d of %d batches", prevBatches, len(batches))
	}
	if full.LastSeq() != uint64(len(batches)) {
		t.Fatalf("full scan LastSeq = %d", full.LastSeq())
	}
}

// TestConcurrentAppend hammers Append from many goroutines (run under
// -race in CI): every acked sequence is unique, covers 1..N exactly,
// and the sealed log replays every batch exactly once.
func TestConcurrentAppend(t *testing.T) {
	const n = 1024
	const writers = 8
	const perWriter = 50
	meta := testMeta(n)
	path := filepath.Join(t.TempDir(), "alpha.dsulog")
	w, _, err := Open(path, meta, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	acked := make(map[uint64][]core.Edge)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perWriter; i++ {
				edges := make([]core.Edge, 1+rng.Intn(7))
				for j := range edges {
					edges[j] = core.Edge{X: uint32(rng.Intn(n)), Y: uint32(rng.Intn(n))}
				}
				seq, err := w.Append(edges)
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				mu.Lock()
				if _, dup := acked[seq]; dup {
					t.Errorf("sequence %d acked twice", seq)
				}
				acked[seq] = edges
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if len(acked) != writers*perWriter {
		t.Fatalf("acked %d sequences, want %d", len(acked), writers*perWriter)
	}
	for s := uint64(1); s <= uint64(writers*perWriter); s++ {
		if _, ok := acked[s]; !ok {
			t.Fatalf("sequence %d never acked", s)
		}
	}

	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	err = r.Replay(0, r.LastSeq(), func(seq uint64, edges []core.Edge) error {
		want := acked[seq]
		if len(edges) != len(want) {
			return fmt.Errorf("seq %d: %d edges, acked %d", seq, len(edges), len(want))
		}
		for i := range edges {
			if edges[i] != want[i] {
				return fmt.Errorf("seq %d: edge %d differs", seq, i)
			}
		}
		replayed++
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if replayed != writers*perWriter {
		t.Fatalf("replayed %d batches, want %d", replayed, writers*perWriter)
	}
	// Group commit should have coalesced at least some batches: fewer
	// chunks than appends (with 8 writers racing a single flusher this
	// holds overwhelmingly; equality would mean zero coalescing).
	if got := len(r.Chunks()); got >= writers*perWriter {
		t.Logf("no coalescing observed: %d chunks for %d appends", got, writers*perWriter)
	}
}

// TestResumeAppend: reopening an unsealed (crashed) log with a torn
// tail recovers the valid prefix, truncates the tear, and appends
// continue at the next sequence.
func TestResumeAppend(t *testing.T) {
	const n = 128
	meta := testMeta(n)
	dir := t.TempDir()
	batches := randomBatches(t, n, 10, 6, 4)
	path := writeLog(t, dir, meta, Options{}, batches, nil)

	// Simulate a crash: chop the sealed tail plus a few bytes of the last
	// chunk record, leaving a torn log.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ScanReader(data)
	if err != nil {
		t.Fatal(err)
	}
	chunks := r.Chunks()
	lastChunk := chunks[len(chunks)-1]
	cut := int(lastChunk.Offset) + 7 // mid-record: the final batch tears
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	w, rd, err := Open(path, meta, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rd == nil {
		t.Fatalf("reopen of an existing log returned no reader")
	}
	if rd.Clean() {
		t.Fatalf("torn log reported clean")
	}
	if rd.Discarded() != 7 {
		t.Fatalf("discarded %d bytes, want 7", rd.Discarded())
	}
	wantSeqs := lastChunk.FirstSeq - 1 // everything before the torn chunk
	if rd.LastSeq() != wantSeqs {
		t.Fatalf("recovered LastSeq = %d, want %d", rd.LastSeq(), wantSeqs)
	}

	// The torn batch was never acked; re-append it and one more.
	seq, err := w.Append(batches[len(batches)-1])
	if err != nil {
		t.Fatal(err)
	}
	if seq != wantSeqs+1 {
		t.Fatalf("resumed append got seq %d, want %d", seq, wantSeqs+1)
	}
	extra := []core.Edge{{X: 1, Y: 2}}
	if _, err := w.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Clean() {
		t.Fatalf("resealed log not clean")
	}
	want := append(append([][]core.Edge{}, batches[:len(batches)-1]...), batches[len(batches)-1], extra)
	if !sameBatches(collect(t, r2), want) {
		t.Fatalf("post-resume replay differs")
	}
}

func TestFingerprintMismatch(t *testing.T) {
	meta := testMeta(64)
	dir := t.TempDir()
	path := writeLog(t, dir, meta, Options{}, randomBatches(t, 64, 3, 3, 5), nil)

	other := meta
	other.Seed++
	if _, _, err := Open(path, other, Options{}); err == nil {
		t.Fatalf("Open with a different seed succeeded")
	} else if !bytes.Contains([]byte(err.Error()), []byte("different configuration")) {
		t.Fatalf("mismatch error not descriptive: %v", err)
	} else if seed := fmt.Sprintf("%x", meta.Seed); bytes.Contains([]byte(err.Error()), []byte(seed)) {
		t.Fatalf("mismatch error reveals the log's seed %s: %v", seed, err)
	} else if bytes.Contains([]byte(err.Error()), []byte(dir)) || !bytes.Contains([]byte(err.Error()), []byte(meta.Tenant)) {
		t.Fatalf("mismatch error names a path, or not the tenant %q: %v", meta.Tenant, err)
	}
	// Same fingerprint reopens fine.
	w, _, err := Open(path, meta, Options{})
	if err != nil {
		t.Fatalf("matching reopen: %v", err)
	}
	w.Close()
}

// TestWriteFailureLatches: once a write fails, the writer is poisoned —
// the failed batch and every later batch report errors, nothing acks.
func TestWriteFailureLatches(t *testing.T) {
	meta := testMeta(64)
	path := filepath.Join(t.TempDir(), "alpha.dsulog")
	w, _, err := Open(path, meta, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]core.Edge{{X: 1, Y: 2}}); err != nil {
		t.Fatal(err)
	}
	// Yank the file out from under the writer.
	w.f.Close()
	if _, err := w.Append([]core.Edge{{X: 3, Y: 4}}); err == nil {
		t.Fatalf("append over a closed file succeeded")
	}
	if _, err := w.Append([]core.Edge{{X: 5, Y: 6}}); err == nil {
		t.Fatalf("poisoned writer acked a batch")
	}
	if _, err := w.WriteSnapshot(meta.Kind, make([]uint32, 64)); err == nil {
		t.Fatalf("poisoned writer accepted a snapshot")
	}
	if err := w.Close(); err == nil {
		t.Fatalf("Close of a poisoned writer reported success")
	}
}

func TestCheckpointDue(t *testing.T) {
	meta := testMeta(64)
	path := filepath.Join(t.TempDir(), "alpha.dsulog")
	w, _, err := Open(path, meta, Options{CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	edges := make([]core.Edge, 4)
	for i := 0; i < 2; i++ {
		if _, err := w.Append(edges[:4]); err != nil {
			t.Fatal(err)
		}
	}
	if w.CheckpointDue() {
		t.Fatalf("due after 8 of 10 edges")
	}
	if _, err := w.Append(edges[:4]); err != nil {
		t.Fatal(err)
	}
	if !w.CheckpointDue() {
		t.Fatalf("not due after 12 of 10 edges")
	}
	if _, err := w.WriteSnapshot(meta.Kind, make([]uint32, 64)); err != nil {
		t.Fatal(err)
	}
	if w.CheckpointDue() {
		t.Fatalf("still due after checkpoint")
	}
}

func TestReadMeta(t *testing.T) {
	meta := testMeta(300)
	dir := t.TempDir()
	path := writeLog(t, dir, meta, Options{}, randomBatches(t, 300, 2, 3, 6), nil)
	got, err := ReadMeta(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != meta {
		t.Fatalf("ReadMeta = %+v, want %+v", got, meta)
	}
	if _, err := ReadMeta(filepath.Join(dir, "nope.dsulog")); err == nil {
		t.Fatalf("ReadMeta of a missing file succeeded")
	}
	junk := filepath.Join(dir, "junk")
	os.WriteFile(junk, []byte("not a log at all"), 0o644)
	if _, err := ReadMeta(junk); !errors.Is(err, ErrNotALog) {
		t.Fatalf("ReadMeta of junk = %v, want ErrNotALog", err)
	}
}

func TestReplayBounds(t *testing.T) {
	const n = 64
	meta := testMeta(n)
	batches := randomBatches(t, n, 20, 4, 7)
	path := writeLog(t, t.TempDir(), meta, Options{}, batches, nil)
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	err = r.Replay(5, 15, func(seq uint64, edges []core.Edge) error {
		seqs = append(seqs, seq)
		if !sameBatches([][]core.Edge{append([]core.Edge(nil), edges...)}, [][]core.Edge{batches[seq-1]}) {
			return fmt.Errorf("seq %d content mismatch", seq)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 10 || seqs[0] != 6 || seqs[9] != 15 {
		t.Fatalf("Replay(5,15] delivered %v", seqs)
	}
	si, ok := r.LatestSnapshotAt(100)
	if ok || si != (SnapshotInfo{}) {
		t.Fatalf("LatestSnapshotAt on a snapshot-free log = %+v, %v", si, ok)
	}
}
