package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/dsu"
	"repro/internal/wal"
)

// buildLog grows a durable tenant and seals its log, returning the log
// path, the batches it acknowledged, and the final canonical labels.
func buildLog(t *testing.T, n, batches int, checkpointAt int) (string, []uint32) {
	t.Helper()
	dir := t.TempDir()
	reg := dsu.NewRegistry(dsu.WithDurability(dir))
	u, err := reg.Create("t", n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < batches; i++ {
		edges := make([]dsu.Edge, 1+rng.Intn(10))
		for j := range edges {
			edges[j] = dsu.Edge{X: uint32(rng.Intn(n)), Y: uint32(rng.Intn(n))}
		}
		if _, err := u.UniteAll(dsu.UniteRequest{Edges: edges}); err != nil {
			t.Fatal(err)
		}
		if i+1 == checkpointAt {
			if err := u.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	labels := u.CanonicalLabels()
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "t.dsulog"), labels
}

// retiredKinds are the header kind bytes of the retired kinds: 2, the
// sharded kind (which recorded two shards here), and 3, the lock-free
// kind.
var retiredKinds = []struct {
	kind   uint8
	shards uint32
	info   string
}{
	{2, 2, "kind=sharded (retired; recovers as flat)"},
	{3, 0, "kind=lockfree (retired; recovers as flat)"},
}

// buildRetiredLog writes a log under the header a retired kind wrote:
// six batches, a snapshot of their partition in that kind's form (the
// sharded kind flattened each element to its set's minimum, the
// lock-free kind wrote its forest), and four more. A tenant then recovers
// it, appends three batches and a checkpoint under the same header, and
// seals it. It returns the log path and the tenant's final labels.
func buildRetiredLog(t *testing.T, n int, kind uint8, shards uint32) (string, []uint32) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "old.dsulog")
	w, _, err := wal.Open(path, wal.Meta{Tenant: "old", N: n, Kind: kind, Find: uint8(dsu.TwoTrySplitting), Shards: shards, Seed: 5}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	batch := func() []dsu.Edge {
		edges := make([]dsu.Edge, 1+rng.Intn(10))
		for j := range edges {
			edges[j] = dsu.Edge{X: uint32(rng.Intn(n)), Y: uint32(rng.Intn(n))}
		}
		return edges
	}
	flat := dsu.New(n, dsu.WithSeed(5))
	for i := 0; i < 10; i++ {
		if i == 6 {
			snap := flat.Snapshot()
			if kind == 2 {
				snap = flat.CanonicalLabels()
			}
			if _, err := w.WriteSnapshot(kind, snap); err != nil {
				t.Fatal(err)
			}
		}
		edges := batch()
		flat.UniteAll(edges)
		if _, err := w.Append(edges); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	reg := dsu.NewRegistry(dsu.WithDurability(dir))
	if _, err := reg.RestoreTenants(); err != nil {
		t.Fatal(err)
	}
	u, _ := reg.Get("old")
	for i := 0; i < 3; i++ {
		if _, err := u.UniteAll(dsu.UniteRequest{Edges: batch()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	labels := u.CanonicalLabels()
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	return path, labels
}

func TestInfoAndVerifySealed(t *testing.T) {
	path, _ := buildLog(t, 200, 12, 6)

	var out bytes.Buffer
	if err := runInfo([]string{path}, &out); err != nil {
		t.Fatalf("info: %v", err)
	}
	for _, want := range []string{"tenant      t", "batches     12", "sealed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("info output missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if err := runVerify([]string{"-strict", path}, &out); err != nil {
		t.Fatalf("verify -strict: %v", err)
	}
	if !strings.Contains(out.String(), "ok (12 batches") {
		t.Errorf("verify output: %s", out.String())
	}

	// A log a retired kind wrote, appended to by the tenant that
	// recovered it, still verifies strictly.
	for _, rk := range retiredKinds {
		old, _ := buildRetiredLog(t, 150, rk.kind, rk.shards)
		out.Reset()
		if err := runInfo([]string{old}, &out); err != nil {
			t.Fatalf("info on a kind-%d log: %v", rk.kind, err)
		}
		if !strings.Contains(out.String(), rk.info) || !strings.Contains(out.String(), "batches     13") {
			t.Errorf("info output on a kind-%d log:\n%s", rk.kind, out.String())
		}
		out.Reset()
		if err := runVerify([]string{"-strict", old}, &out); err != nil {
			t.Fatalf("verify -strict on a kind-%d log: %v", rk.kind, err)
		}
	}
}

func TestVerifyTorn(t *testing.T) {
	path, _ := buildLog(t, 100, 8, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "torn.dsulog")
	if err := os.WriteFile(torn, data[:len(data)-40], 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := runVerify([]string{torn}, &out); err != nil {
		t.Fatalf("verify (lenient) on a torn log: %v", err)
	}
	if !strings.Contains(out.String(), "torn") {
		t.Errorf("verify output should report the tear: %s", out.String())
	}
	if err := runVerify([]string{"-strict", torn}, &out); err == nil {
		t.Fatalf("verify -strict accepted a torn log")
	}

	// A corrupted record body must fail verification outright.
	bad := filepath.Join(t.TempDir(), "bad.dsulog")
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0xff
	if err := os.WriteFile(bad, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	var devnull bytes.Buffer
	if err := runVerify([]string{"-strict", bad}, &devnull); err == nil {
		t.Fatalf("verify -strict accepted a corrupted log")
	}
}

func TestCat(t *testing.T) {
	path, _ := buildLog(t, 50, 5, 3)
	var out bytes.Buffer
	if err := runCat([]string{"-edges", path}, &out); err != nil {
		t.Fatalf("cat: %v", err)
	}
	s := out.String()
	for _, want := range []string{"header  tenant=t", "chunk   offset=", "batch seq=1", "snapshot offset=", "footer  sealed"} {
		if !strings.Contains(s, want) {
			t.Errorf("cat output missing %q:\n%s", want, s)
		}
	}
}

// TestReplayMatchesStructure: the oracle replay reproduces exactly the
// labelling the live structure acknowledged, snapshot records validate
// against the oracle, and -labels emits the server's /labels encoding.
func TestReplayMatchesStructure(t *testing.T) {
	path, labels := buildLog(t, 300, 15, 9)

	var out bytes.Buffer
	if err := runReplay([]string{path}, &out); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !strings.Contains(out.String(), "snapshot at seq 9: matches oracle") {
		t.Errorf("replay did not validate the snapshot:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "replayed 15 batches") {
		t.Errorf("replay output: %s", out.String())
	}

	out.Reset()
	if err := runReplay([]string{"-labels", path}, &out); err != nil {
		t.Fatalf("replay -labels: %v", err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(labels); err != nil {
		t.Fatal(err)
	}
	if out.String() != want.String() {
		t.Fatalf("replay -labels output differs from the structure's labelling")
	}

	// -at replays a prefix; past-the-end is an error.
	out.Reset()
	if err := runReplay([]string{"-at", "5", path}, &out); err != nil {
		t.Fatalf("replay -at 5: %v", err)
	}
	if !strings.Contains(out.String(), "replayed 5 batches") {
		t.Errorf("replay -at output: %s", out.String())
	}
	if err := runReplay([]string{"-at", "99", path}, &out); err == nil {
		t.Fatalf("replay past the log's end succeeded")
	}

	// A log of a retired kind replays to the labels the tenant that
	// recovered and extended it served, validating both the retired
	// kind's snapshot and the recovering tenant's.
	for _, rk := range retiredKinds {
		old, oldLabels := buildRetiredLog(t, 150, rk.kind, rk.shards)
		out.Reset()
		if err := runReplay([]string{old}, &out); err != nil {
			t.Fatalf("replay of a kind-%d log: %v", rk.kind, err)
		}
		for _, want := range []string{"snapshot at seq 6: matches oracle", "snapshot at seq 13: matches oracle"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("replay of a kind-%d log missing %q:\n%s", rk.kind, want, out.String())
			}
		}
		out.Reset()
		if err := runReplay([]string{"-labels", old}, &out); err != nil {
			t.Fatalf("replay -labels of a kind-%d log: %v", rk.kind, err)
		}
		want.Reset()
		if err := json.NewEncoder(&want).Encode(oldLabels); err != nil {
			t.Fatal(err)
		}
		if out.String() != want.String() {
			t.Fatalf("replay -labels of a kind-%d log differs from the tenant's labelling", rk.kind)
		}
	}
}

func TestNotALog(t *testing.T) {
	junk := filepath.Join(t.TempDir(), "junk.dsulog")
	if err := os.WriteFile(junk, []byte("not a log at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runInfo([]string{junk}, &out); err == nil {
		t.Fatalf("info accepted junk")
	}
	if err := runVerify([]string{junk}, &out); err == nil {
		t.Fatalf("verify accepted junk")
	}
	if err := runReplay([]string{junk}, &out); err == nil {
		t.Fatalf("replay accepted junk")
	}
}
