package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// FuzzWALDecode throws arbitrary bytes at both open paths and every
// read surface. The contract under fuzz: never panic, never index out
// of range, and on success never hand back an edge outside the header's
// universe — exactly the guarantees recovery leans on when a crash (or
// a hostile disk) leaves garbage in a log file.
func FuzzWALDecode(f *testing.F) {
	// Seed with real logs: sealed, torn mid-chunk, and headers-only, so
	// the fuzzer starts from structurally meaningful corpora.
	dir := f.TempDir()
	meta := Meta{Tenant: "fuzz", N: 64, Kind: 3, Find: 1, Seed: 7}
	path := filepath.Join(dir, "seed.dsulog")
	w, _, err := Open(path, meta, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]core.Edge{{X: uint32(i), Y: uint32(i + 1)}, {X: 0, Y: uint32(i)}}); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := w.WriteSnapshot(meta.Kind, make([]uint32, 64)); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	sealed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed)
	f.Add(sealed[:len(sealed)-40])
	f.Add(sealed[:30])
	f.Add([]byte{})
	f.Add(magic[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, open := range []func([]byte) (*Reader, error){NewReader, ScanReader} {
			r, err := open(data)
			if err != nil {
				continue
			}
			if r.DataEnd() < 0 || r.DataEnd() > int64(len(data)) {
				t.Fatalf("DataEnd %d outside [0,%d]", r.DataEnd(), len(data))
			}
			if r.Discarded() < 0 {
				t.Fatalf("negative Discarded %d", r.Discarded())
			}
			n := r.Meta().N
			var prev uint64
			for _, c := range r.Chunks() {
				if c.FirstSeq != prev+1 {
					t.Fatalf("chunk index out of sequence: %d after %d", c.FirstSeq, prev)
				}
				prev = c.LastSeq
				err := r.ReadChunk(c, func(seq uint64, edges []core.Edge) error {
					for _, e := range edges {
						if int(e.X) >= n || int(e.Y) >= n {
							t.Fatalf("edge (%d,%d) outside universe %d", e.X, e.Y, n)
						}
					}
					return nil
				})
				if err != nil && r.Clean() && bytes.Equal(data, sealed) {
					t.Fatalf("sealed seed chunk unreadable: %v", err)
				}
			}
			for _, s := range r.Snapshots() {
				if sr, err := r.ReadSnapshot(s); err == nil {
					if len(sr.Parents) != n {
						t.Fatalf("snapshot of %d parents in universe %d", len(sr.Parents), n)
					}
				}
			}
			_ = r.Replay(0, r.LastSeq(), func(uint64, []core.Edge) error { return nil })
		}
	})
}
