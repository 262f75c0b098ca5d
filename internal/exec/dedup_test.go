package exec_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/seqdsu"
	"repro/internal/workload"
)

// TestDedup pins the Prefilter pass's semantics: self-loops dropped,
// duplicates (in either orientation) collapsed to their first occurrence,
// order preserved, input untouched, partition and merge count unchanged
// when a batch runs with Config.Prefilter.
func TestDedup(t *testing.T) {
	in := []exec.Edge{{X: 1, Y: 2}, {X: 3, Y: 3}, {X: 2, Y: 1}, {X: 4, Y: 5}, {X: 1, Y: 2}, {X: 5, Y: 4}, {X: 0, Y: 6}}
	inCopy := append([]exec.Edge(nil), in...)
	got := exec.Dedup(in)
	want := []exec.Edge{{X: 1, Y: 2}, {X: 4, Y: 5}, {X: 0, Y: 6}}
	if len(got) != len(want) {
		t.Fatalf("Dedup kept %d edges %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Dedup[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	for i := range in {
		if in[i] != inCopy[i] {
			t.Fatalf("Dedup mutated its input at %d", i)
		}
	}

	const n = 1 << 10
	edges := engine.FromOps(workload.ZipfMixed(n, 4*n, 1.0, 1.2, 71))
	filtered := exec.Dedup(edges)
	if len(filtered) >= len(edges) {
		t.Fatalf("Zipf batch should shrink: %d -> %d", len(edges), len(filtered))
	}
	ref := seqdsu.New(n, seqdsu.LinkRank, seqdsu.CompactHalving, 1)
	wantMerges := 0
	for _, e := range edges {
		if ref.Unite(e.X, e.Y) {
			wantMerges++
		}
	}
	want2 := ref.CanonicalLabels()
	d := core.New(n, core.Config{Seed: 73})
	res := engine.UniteAll(d, edges, exec.Config{Workers: 4, Prefilter: true})
	if res.Merged != int64(wantMerges) {
		t.Errorf("prefiltered Merged = %d, want %d", res.Merged, wantMerges)
	}
	got2 := d.CanonicalLabels()
	for x := range got2 {
		if got2[x] != want2[x] {
			t.Fatalf("prefiltered label[%d] = %d, want %d", x, got2[x], want2[x])
		}
	}
}
