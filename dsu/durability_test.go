package dsu_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/dsu"
	"repro/internal/seqdsu"
	"repro/internal/wal"
)

// durBatches deterministically generates mutation batches over [0, n).
func durBatches(n, count, maxLen int, seed int64) [][]dsu.Edge {
	rng := rand.New(rand.NewSource(seed))
	batches := make([][]dsu.Edge, count)
	for i := range batches {
		b := make([]dsu.Edge, 1+rng.Intn(maxLen))
		for j := range b {
			b[j] = dsu.Edge{X: uint32(rng.Intn(n)), Y: uint32(rng.Intn(n))}
		}
		batches[i] = b
	}
	return batches
}

// oracleLabels replays batches through the sequential oracle and
// returns the canonical partition labels.
func oracleLabels(n int, batches [][]dsu.Edge) []uint32 {
	d := seqdsu.New(n, seqdsu.LinkRandom, seqdsu.CompactSplitting, 1)
	for _, b := range batches {
		for _, e := range b {
			d.Unite(e.X, e.Y)
		}
	}
	return d.CanonicalLabels()
}

func sameLabels(t *testing.T, what string, got, want []uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d labels, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: label[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

func ingest(t *testing.T, u *dsu.Universe, batches [][]dsu.Edge) {
	t.Helper()
	for i, b := range batches {
		if _, err := u.UniteAll(dsu.UniteRequest{Edges: b}); err != nil {
			t.Fatalf("UniteAll #%d: %v", i, err)
		}
	}
}

// TestDurableRecoveryAcrossKinds: ingest, close, re-create → the
// recovered partition matches the sequential oracle and the sequence
// number survives, for every backend kind.
func TestDurableRecoveryAcrossKinds(t *testing.T) {
	const n = 400
	kinds := []struct {
		name string
		opts []dsu.Option
	}{
		{"flat", []dsu.Option{dsu.WithKind(dsu.KindFlat)}},
		{"lockfree", []dsu.Option{dsu.WithKind(dsu.KindLockFree)}},
	}
	for _, k := range kinds {
		k := k
		t.Run(k.name, func(t *testing.T) {
			dir := t.TempDir()
			batches := durBatches(n, 25, 12, 11)
			want := oracleLabels(n, batches)

			reg := dsu.NewRegistry(dsu.WithDurability(dir))
			u, err := reg.Create("t", n, k.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !u.Durable() {
				t.Fatalf("tenant of a durable registry is not durable")
			}
			ingest(t, u, batches)
			if u.Seq() != uint64(len(batches)) {
				t.Fatalf("Seq = %d after %d batches", u.Seq(), len(batches))
			}
			sameLabels(t, "pre-close", u.CanonicalLabels(), want)
			if err := reg.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			reg2 := dsu.NewRegistry(dsu.WithDurability(dir))
			u2, err := reg2.Create("t", n, k.opts...)
			if err != nil {
				t.Fatalf("re-create: %v", err)
			}
			sameLabels(t, "recovered", u2.CanonicalLabels(), want)
			if u2.Seq() != uint64(len(batches)) {
				t.Fatalf("recovered Seq = %d, want %d", u2.Seq(), len(batches))
			}
			// Appends continue the numbering and remain durable.
			more := durBatches(n, 5, 8, 12)
			ingest(t, u2, more)
			if u2.Seq() != uint64(len(batches)+len(more)) {
				t.Fatalf("post-recovery Seq = %d", u2.Seq())
			}
			all := append(append([][]dsu.Edge{}, batches...), more...)
			sameLabels(t, "post-recovery", u2.CanonicalLabels(), oracleLabels(n, all))
			if err := reg2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDurableAutoFindLog pins the durable side of FindAuto's
// compatibility: a tenant created with WithAdaptiveFind writes find byte 6
// into its log header, and that log recovers — by re-create and by
// RestoreTenants — keeps appending under the same header, and serves
// batches that report two-try splitting.
func TestDurableAutoFindLog(t *testing.T) {
	const n = 300
	dir := t.TempDir()
	path := filepath.Join(dir, "auto.dsulog")
	batches := durBatches(n, 12, 10, 61)
	opts := []dsu.Option{dsu.WithAdaptiveFind(), dsu.WithSeed(7)}

	reg := dsu.NewRegistry(dsu.WithDurability(dir))
	u, err := reg.Create("auto", n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, u, batches[:8])
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	meta, err := wal.ReadMeta(path)
	if err != nil || meta.Find != 6 {
		t.Fatalf("header = %+v, %v; want find byte 6", meta, err)
	}

	reg2 := dsu.NewRegistry(dsu.WithDurability(dir))
	u2, err := reg2.Create("auto", n, opts...)
	if err != nil {
		t.Fatalf("re-create: %v", err)
	}
	sameLabels(t, "recovered", u2.CanonicalLabels(), oracleLabels(n, batches[:8]))
	rep, err := u2.UniteAll(dsu.UniteRequest{Edges: batches[8]})
	if err != nil || rep.Find != dsu.TwoTrySplitting {
		t.Fatalf("unite after recovery: find %v, %v; want twotry", rep.Find, err)
	}
	ingest(t, u2, batches[9:])
	if err := reg2.Close(); err != nil {
		t.Fatal(err)
	}

	reg3 := dsu.NewRegistry(dsu.WithDurability(dir))
	if names, err := reg3.RestoreTenants(); err != nil || !reflect.DeepEqual(names, []string{"auto"}) {
		t.Fatalf("RestoreTenants = %v, %v", names, err)
	}
	u3, _ := reg3.Get("auto")
	if u3.Seq() != uint64(len(batches)) {
		t.Fatalf("restored at seq %d, want %d", u3.Seq(), len(batches))
	}
	sameLabels(t, "restored", u3.CanonicalLabels(), oracleLabels(n, batches))
	q, err := u3.SameSetAll(dsu.QueryRequest{Pairs: batches[0]})
	if err != nil || q.Find != dsu.TwoTrySplitting {
		t.Fatalf("query after restore: find %v, %v; want twotry", q.Find, err)
	}
	for i, ok := range q.Answers {
		if !ok {
			t.Fatalf("united pair %d answered false", i)
		}
	}
	if err := reg3.Close(); err != nil {
		t.Fatal(err)
	}
	if m, err := wal.ReadMeta(path); err != nil || m != meta {
		t.Fatalf("header after appends = %+v, %v; want %+v kept", m, err, meta)
	}
}

// TestDurableSnapshotPlusTail: a checkpoint mid-history must not change
// what recovery reconstructs — snapshot plus replayed tail ≡ the full
// history.
func TestDurableSnapshotPlusTail(t *testing.T) {
	const n = 300
	dir := t.TempDir()
	head := durBatches(n, 10, 10, 21)
	tail := durBatches(n, 7, 10, 22)
	all := append(append([][]dsu.Edge{}, head...), tail...)

	reg := dsu.NewRegistry(dsu.WithDurability(dir))
	u, err := reg.Create("t", n)
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, u, head)
	if err := u.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	ingest(t, u, tail)
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2 := dsu.NewRegistry(dsu.WithDurability(dir))
	u2, err := reg2.Create("t", n)
	if err != nil {
		t.Fatal(err)
	}
	sameLabels(t, "snapshot+tail", u2.CanonicalLabels(), oracleLabels(n, all))
	if u2.Seq() != uint64(len(all)) {
		t.Fatalf("Seq = %d, want %d", u2.Seq(), len(all))
	}
	reg2.Close()
}

// TestDurableTornLogRecovery cuts the tenant's log at many points and
// re-creates the tenant each time: recovery must come up with exactly
// the prefix of history the cut preserved (Seq says how much), matching
// the oracle's replay of that prefix — never an error, never a panic,
// never a partial batch.
func TestDurableTornLogRecovery(t *testing.T) {
	const n = 150
	dir := t.TempDir()
	batches := durBatches(n, 12, 6, 31)

	reg := dsu.NewRegistry(dsu.WithDurability(dir))
	u, err := reg.Create("t", n)
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, u, batches)
	if err := u.Checkpoint(); err != nil { // exercise snapshot-in-prefix recovery too
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "t.dsulog")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Cut at a spread of points across the whole file (every byte is the
	// wal package's own torture test; here we care about the dsu-level
	// recovery contract).
	for cut := len(data); cut > len(data)/2; cut -= 37 {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, "t.dsulog"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		reg2 := dsu.NewRegistry(dsu.WithDurability(cutDir))
		u2, err := reg2.Create("t", n)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		recovered := u2.Seq()
		if recovered > uint64(len(batches)) {
			t.Fatalf("cut %d: recovered %d of %d batches", cut, recovered, len(batches))
		}
		sameLabels(t, fmt.Sprintf("cut %d (seq %d)", cut, recovered),
			u2.CanonicalLabels(), oracleLabels(n, batches[:recovered]))
		reg2.Close()
	}
}

// TestCheckpointWhileUniting is the snapshot-at-quiescence race hammer
// (run under -race in CI): goroutines ingest while checkpoints fire.
// Every acked batch must survive recovery and the final partition must
// match the oracle — a snapshot taken mid-batch would break both.
func TestCheckpointWhileUniting(t *testing.T) {
	const n = 600
	for _, kind := range []dsu.Kind{dsu.KindFlat, dsu.KindLockFree} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			reg := dsu.NewRegistry(dsu.WithDurability(dir))
			u, err := reg.Create("t", n, dsu.WithKind(kind))
			if err != nil {
				t.Fatal(err)
			}

			const workers = 4
			const perWorker = 30
			var wg sync.WaitGroup
			var mu sync.Mutex
			var acked [][]dsu.Edge
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for _, b := range durBatches(n, perWorker, 9, int64(100+g)) {
						if _, err := u.UniteAll(dsu.UniteRequest{Edges: b}); err != nil {
							t.Errorf("UniteAll: %v", err)
							return
						}
						mu.Lock()
						acked = append(acked, b)
						mu.Unlock()
					}
				}(g)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 10; i++ {
					if err := u.Checkpoint(); err != nil {
						t.Errorf("Checkpoint: %v", err)
						return
					}
				}
			}()
			wg.Wait()
			<-done
			if t.Failed() {
				return
			}
			if u.Seq() != uint64(workers*perWorker) {
				t.Fatalf("Seq = %d, want %d", u.Seq(), workers*perWorker)
			}
			if err := reg.Close(); err != nil {
				t.Fatal(err)
			}

			// The partition is order-independent, so any interleaving of the
			// acked batches gives one answer — which recovery must reproduce.
			want := oracleLabels(n, acked)
			reg2 := dsu.NewRegistry(dsu.WithDurability(dir))
			u2, err := reg2.Create("t", n, dsu.WithKind(kind))
			if err != nil {
				t.Fatal(err)
			}
			sameLabels(t, "recovered", u2.CanonicalLabels(), want)
			reg2.Close()
		})
	}
}

// TestCheckpointWhileQuerying streams checkpoints while two-try query
// batches split paths on the same forest (run under -race in CI). Query
// batches do not take the quiesce gate, so the streamed read races their
// compaction CASes. Every snapshot must still be a forest (ids rise
// along each parent pointer) of exactly the partition of the batches it
// covers, and recovery must match the oracle.
func TestCheckpointWhileQuerying(t *testing.T) {
	const n = 1 << 19 // a snapshot record of three pieces
	dir := t.TempDir()
	reg := dsu.NewRegistry(dsu.WithDurability(dir))
	u, err := reg.Create("t", n)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var answered atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			pairs := make([]dsu.Edge, 4096)
			twoTry := dsu.BatchOptions{Find: dsu.TwoTrySplitting}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range pairs {
					pairs[i] = dsu.Edge{X: uint32(rng.Intn(n)), Y: uint32(rng.Intn(n))}
				}
				if _, err := u.SameSetAll(dsu.QueryRequest{Pairs: pairs, Options: twoTry}); err != nil {
					t.Errorf("SameSetAll: %v", err)
					return
				}
				answered.Add(1)
			}
		}(g)
	}
	// Unites that do not compact leave long paths for the queries to split.
	batches := durBatches(n, 4, n/4, 77)
	noCompaction := dsu.BatchOptions{Find: dsu.NoCompaction}
	for i, b := range batches {
		if _, err := u.UniteAll(dsu.UniteRequest{Edges: b, Options: noCompaction}); err != nil {
			t.Errorf("UniteAll #%d: %v", i, err)
			break
		}
		if err := u.Checkpoint(); err != nil {
			t.Errorf("Checkpoint #%d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	t.Logf("%d query batches answered across %d checkpoints", answered.Load(), len(batches))
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	rd, err := wal.OpenReader(filepath.Join(dir, "t.dsulog"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rd.Snapshots()) != len(batches) {
		t.Fatalf("%d snapshots logged, want %d", len(rd.Snapshots()), len(batches))
	}
	for _, si := range rd.Snapshots() {
		sr, err := rd.ReadSnapshot(si)
		if err != nil {
			t.Fatal(err)
		}
		links := make([]dsu.Edge, 0, n)
		for x, p := range sr.Parents {
			if p == uint32(x) {
				continue
			}
			if u.ID(p) <= u.ID(uint32(x)) {
				t.Fatalf("snapshot at seq %d: parent %d of %d does not follow it in the linking order", si.Seq, p, x)
			}
			links = append(links, dsu.Edge{X: uint32(x), Y: p})
		}
		what := fmt.Sprintf("snapshot at seq %d", si.Seq)
		sameLabels(t, what, oracleLabels(n, [][]dsu.Edge{links}), oracleLabels(n, batches[:si.Seq]))
	}

	reg2 := dsu.NewRegistry(dsu.WithDurability(dir))
	u2, err := reg2.Create("t", n)
	if err != nil {
		t.Fatal(err)
	}
	sameLabels(t, "recovered", u2.CanonicalLabels(), oracleLabels(n, batches))
	reg2.Close()
}

// TestRewind materializes historical states and checks each against the
// oracle's replay of exactly that prefix.
func TestRewind(t *testing.T) {
	const n = 200
	dir := t.TempDir()
	batches := durBatches(n, 15, 8, 41)

	reg := dsu.NewRegistry(dsu.WithDurability(dir))
	u, err := reg.Create("t", n)
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, u, batches[:8])
	if err := u.Checkpoint(); err != nil { // a snapshot mid-history: rewinds past it must still work
		t.Fatal(err)
	}
	ingest(t, u, batches[8:])
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	for _, seq := range []uint64{0, 3, 8, 11, 15} {
		ru, err := reg.Rewind("t", seq)
		if err != nil {
			t.Fatalf("Rewind(%d): %v", seq, err)
		}
		if ru.Durable() {
			t.Fatalf("rewound universe is durable")
		}
		if ru.Seq() != seq {
			t.Fatalf("Rewind(%d).Seq() = %d", seq, ru.Seq())
		}
		if want := fmt.Sprintf("t@%d", seq); ru.Name() != want {
			t.Fatalf("rewound name %q, want %q", ru.Name(), want)
		}
		sameLabels(t, fmt.Sprintf("rewind %d", seq), ru.CanonicalLabels(), oracleLabels(n, batches[:seq]))
	}
	if _, err := reg.Rewind("t", 16); err == nil {
		t.Fatalf("Rewind past the log's end succeeded")
	}
	if _, err := reg.Rewind("missing", 0); err == nil {
		t.Fatalf("Rewind of an unknown tenant succeeded")
	}
}

// TestStoredOrderLogRecovers restores testdata/stored-order.dsulog under
// today's computed random order. The log is sealed; a seedless n = 4096
// tenant wrote it (twelve batches, a snapshot, six more batches) when the
// order was a stored Fisher–Yates permutation, and the labels file holds
// the partition that tenant reported. A snapshot records a partition and
// restore re-unites it, so the recovered forest's shape may differ from
// the writer's, but its partition may not.
func TestStoredOrderLogRecovers(t *testing.T) {
	const name, batches = "stored-order", 18
	log, err := os.ReadFile(filepath.Join("testdata", name+".dsulog"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", name+".labels.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []uint32
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name+".dsulog"), log, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := dsu.NewRegistry(dsu.WithDurability(dir))
	defer reg.Close()
	if _, err := reg.RestoreTenants(); err != nil {
		t.Fatal(err)
	}
	u, ok := reg.Get(name)
	if !ok {
		t.Fatalf("tenant %q not restored", name)
	}
	if u.Seq() != batches {
		t.Fatalf("Seq = %d, want %d", u.Seq(), batches)
	}
	sameLabels(t, "restored", u.CanonicalLabels(), want)
	ru, err := reg.Rewind(name, batches)
	if err != nil {
		t.Fatal(err)
	}
	sameLabels(t, "rewound", ru.CanonicalLabels(), want)
}

// writeRetiredLog writes, at path, the log a tenant of a retired kind
// left behind: meta is the header that kind wrote, then the head batches,
// a snapshot of their partition (snap, in the form that kind wrote it),
// and the tail batches, sealed.
func writeRetiredLog(t *testing.T, path string, meta wal.Meta, head, tail [][]dsu.Edge, snap []uint32) {
	t.Helper()
	w, rd, err := wal.Open(path, meta, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rd != nil {
		t.Fatalf("%s already exists", path)
	}
	for _, b := range head {
		if _, err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.WriteSnapshot(meta.Kind, snap); err != nil {
		t.Fatal(err)
	}
	for _, b := range tail {
		if _, err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreTenants: a fresh registry discovers and recovers every
// persisted tenant under its recorded configuration. A tenant created
// under the lock-free kind name writes kind byte 1. Logs the retired
// kinds wrote — the sharded kind (byte 2, its snapshots flattened) and
// the lock-free kind (byte 3, its snapshots a forest) — recover into the
// one structure, keep appending under their own headers, and survive a
// second restore; a log with an unknown kind byte or find strategy is
// refused.
func TestRestoreTenants(t *testing.T) {
	const n = 128
	dir := t.TempDir()
	alpha := durBatches(n, 6, 6, 51)
	retired := []struct {
		name string
		meta wal.Meta
		all  [][]dsu.Edge
		snap func(head [][]dsu.Edge) []uint32
	}{
		{"beta", wal.Meta{Tenant: "beta", N: n, Kind: 2, Find: uint8(dsu.TwoTrySplitting), Shards: 2, Seed: 99},
			durBatches(n, 9, 6, 52), func(head [][]dsu.Edge) []uint32 { return oracleLabels(n, head) }},
		{"gamma", wal.Meta{Tenant: "gamma", N: n, Kind: 3, Find: uint8(dsu.OneTrySplitting), Seed: 98},
			durBatches(n, 9, 6, 54), func(head [][]dsu.Edge) []uint32 {
				d := dsu.New(n, dsu.WithFind(dsu.OneTrySplitting), dsu.WithSeed(98))
				for _, b := range head {
					d.UniteAll(b)
				}
				return d.Snapshot()
			}},
	}

	reg := dsu.NewRegistry(dsu.WithDurability(dir))
	ua, err := reg.Create("alpha", n, dsu.WithKind(dsu.KindLockFree))
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, ua, alpha)
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if m, err := wal.ReadMeta(filepath.Join(dir, "alpha.dsulog")); err != nil || m.Kind != uint8(dsu.KindFlat) {
		t.Fatalf("alpha header = %+v, %v; want kind byte 1", m, err)
	}
	for _, r := range retired {
		writeRetiredLog(t, filepath.Join(dir, r.name+".dsulog"), r.meta, r.all[:5], r.all[5:], r.snap(r.all[:5]))
	}

	reg2 := dsu.NewRegistry(dsu.WithDurability(dir))
	names, err := reg2.RestoreTenants()
	if err != nil {
		t.Fatalf("RestoreTenants: %v", err)
	}
	if !reflect.DeepEqual(names, []string{"alpha", "beta", "gamma"}) {
		t.Fatalf("restored %v", names)
	}
	ua2, _ := reg2.Get("alpha")
	sameLabels(t, "alpha", ua2.CanonicalLabels(), oracleLabels(n, alpha))
	// Idempotent: a second call restores nothing new.
	names, err = reg2.RestoreTenants()
	if err != nil || len(names) != 0 {
		t.Fatalf("second RestoreTenants = %v, %v", names, err)
	}
	more := durBatches(n, 4, 6, 53)
	for _, r := range retired {
		u, _ := reg2.Get(r.name)
		if u.Seq() != uint64(len(r.all)) {
			t.Fatalf("%s restored at seq %d, want %d", r.name, u.Seq(), len(r.all))
		}
		sameLabels(t, r.name, u.CanonicalLabels(), oracleLabels(n, r.all))
		// Rewind reads the old log too.
		rw, err := reg2.Rewind(r.name, 5)
		if err != nil {
			t.Fatalf("Rewind %s: %v", r.name, err)
		}
		sameLabels(t, r.name+"@5", rw.CanonicalLabels(), oracleLabels(n, r.all[:5]))

		// New batches and a checkpoint land in the same file, under the
		// old header.
		ingest(t, u, more[:2])
		if err := u.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint %s: %v", r.name, err)
		}
		ingest(t, u, more[2:])
	}
	reg2.Close()
	reg3 := dsu.NewRegistry(dsu.WithDurability(dir))
	if _, err := reg3.RestoreTenants(); err != nil {
		t.Fatalf("second restore: %v", err)
	}
	for _, r := range retired {
		if m, err := wal.ReadMeta(filepath.Join(dir, r.name+".dsulog")); err != nil || m != r.meta {
			t.Fatalf("%s header after appends = %+v, %v; want the retired header %+v kept", r.name, m, err, r.meta)
		}
		u, _ := reg3.Get(r.name)
		all := append(append([][]dsu.Edge{}, r.all...), more...)
		if u.Seq() != uint64(len(all)) {
			t.Fatalf("%s re-restored at seq %d, want %d", r.name, u.Seq(), len(all))
		}
		sameLabels(t, r.name+" after appends", u.CanonicalLabels(), oracleLabels(n, all))
	}
	reg3.Close()

	// A header no tenant could have written — kind byte 9, or find
	// strategy 99 — is refused with an error, by restore and rewind alike.
	for _, m := range []wal.Meta{
		{Tenant: "delta", N: n, Kind: 9, Find: uint8(dsu.TwoTrySplitting)},
		{Tenant: "delta", N: n, Kind: 1, Find: 99},
	} {
		odd := t.TempDir()
		writeRetiredLog(t, filepath.Join(odd, "delta.dsulog"), m, alpha[:2], alpha[2:], oracleLabels(n, alpha[:2]))
		oddReg := dsu.NewRegistry(dsu.WithDurability(odd))
		if names, err := oddReg.RestoreTenants(); err == nil || len(names) != 0 {
			t.Fatalf("RestoreTenants of a log with kind %d, find %d = %v, %v; want an error", m.Kind, m.Find, names, err)
		}
		if _, err := oddReg.Rewind("delta", 1); err == nil {
			t.Fatalf("Rewind of a log with kind %d, find %d succeeded", m.Kind, m.Find)
		}
	}

	// A non-durable registry has nothing to restore.
	if _, err := dsu.NewRegistry().RestoreTenants(); !errors.Is(err, dsu.ErrNotDurable) {
		t.Fatalf("RestoreTenants without durability = %v", err)
	}
}

// TestDurableStreamAndPointOps: edges through a stream and point Unites
// via the Universe are logged like batch calls.
func TestDurableStreamAndPointOps(t *testing.T) {
	const n = 256
	dir := t.TempDir()
	reg := dsu.NewRegistry(dsu.WithDurability(dir))
	u, err := reg.Create("t", n)
	if err != nil {
		t.Fatal(err)
	}
	var edges []dsu.Edge
	rng := rand.New(rand.NewSource(61))
	s := u.NewStream()
	for i := 0; i < 500; i++ {
		e := dsu.Edge{X: uint32(rng.Intn(n)), Y: uint32(rng.Intn(n))}
		edges = append(edges, e)
		s.Push(e)
	}
	s.Close()
	u.Unite(0, uint32(n-1)) // point unite on the tenant surface is logged too
	edges = append(edges, dsu.Edge{X: 0, Y: uint32(n - 1)})
	if u.Seq() == 0 {
		t.Fatalf("Seq still 0 after stream + point unite")
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2 := dsu.NewRegistry(dsu.WithDurability(dir))
	u2, err := reg2.Create("t", n)
	if err != nil {
		t.Fatal(err)
	}
	sameLabels(t, "stream+point", u2.CanonicalLabels(), oracleLabels(n, [][]dsu.Edge{edges}))
	reg2.Close()
}

// TestUniverseViewSharesTenant: a Universe is a stateless view, so a
// second one made with NewUniverse over a durable, instrumented registry
// tenant is the same tenant — same durability, position and metrics, a
// working checkpoint — and its mutations, point Unites included, are
// logged and survive recovery.
func TestUniverseViewSharesTenant(t *testing.T) {
	const n = 256
	dir := t.TempDir()
	reg := dsu.NewRegistry(dsu.WithDurability(dir), dsu.WithMetrics(dsu.NewMetrics()))
	u, err := reg.Create("t", n)
	if err != nil {
		t.Fatal(err)
	}
	batches := durBatches(n, 5, 6, 111)
	ingest(t, u, batches)

	v := dsu.NewUniverse("t", u.Backend())
	same := func(when string) {
		t.Helper()
		if v.Durable() != u.Durable() || v.Seq() != u.Seq() || v.Metrics() != u.Metrics() {
			t.Fatalf("%s: view reports durable=%v seq=%d %+v, tenant durable=%v seq=%d %+v",
				when, v.Durable(), v.Seq(), v.Metrics(), u.Durable(), u.Seq(), u.Metrics())
		}
	}
	same("before the view mutates")
	if !v.Durable() || !v.Metrics().Instrumented {
		t.Fatalf("view of a durable instrumented tenant: durable=%v instrumented=%v", v.Durable(), v.Metrics().Instrumented)
	}
	if err := v.Checkpoint(); err != nil {
		t.Fatalf("view Checkpoint: %v", err)
	}

	more := durBatches(n, 2, 6, 112)
	ingest(t, v, more)
	x, y := uint32(0), uint32(n-1)
	for u.SameSet(x, y) {
		y--
	}
	if !v.Unite(x, y) {
		t.Fatalf("view Unite(%d,%d) merged nothing", x, y)
	}
	all := append(append(batches, more...), []dsu.Edge{{X: x, Y: y}})
	if want := uint64(len(all)); v.Seq() != want {
		t.Fatalf("Seq = %d after %d mutations", v.Seq(), want)
	}
	same("after the view mutates")
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2 := dsu.NewRegistry(dsu.WithDurability(dir))
	u2, err := reg2.Create("t", n)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	if !u2.SameSet(x, y) {
		t.Fatalf("the view's point Unite(%d,%d) did not survive recovery", x, y)
	}
	sameLabels(t, "recovered", u2.CanonicalLabels(), oracleLabels(n, all))
	if u2.Seq() != uint64(len(all)) {
		t.Fatalf("recovered Seq = %d, want %d", u2.Seq(), len(all))
	}
}

// TestSeqWithoutDurability: the applied-batch sequence counts mutation
// batches even with no WAL, and surfaces in tenant metrics.
func TestSeqWithoutDurability(t *testing.T) {
	const n = 64
	m := dsu.NewMetrics()
	reg := dsu.NewRegistry(dsu.WithMetrics(m))
	u, err := reg.Create("t", n)
	if err != nil {
		t.Fatal(err)
	}
	if u.Durable() {
		t.Fatalf("plain tenant reports durable")
	}
	if err := u.Checkpoint(); !errors.Is(err, dsu.ErrNotDurable) {
		t.Fatalf("Checkpoint without durability = %v", err)
	}
	ingest(t, u, durBatches(n, 7, 4, 71))
	// Queries must not advance the sequence.
	if _, err := u.SameSetAll(dsu.QueryRequest{Pairs: []dsu.Edge{{X: 1, Y: 2}}}); err != nil {
		t.Fatal(err)
	}
	if u.Seq() != 7 {
		t.Fatalf("Seq = %d, want 7", u.Seq())
	}
	if tm := u.Metrics(); tm.Seq != 7 {
		t.Fatalf("metrics Seq = %d, want 7", tm.Seq)
	}
}

// TestDurableConfigMismatch: recovering under a different configuration
// must fail loudly, not replay wrong history.
func TestDurableConfigMismatch(t *testing.T) {
	const n = 64
	dir := t.TempDir()
	reg := dsu.NewRegistry(dsu.WithDurability(dir))
	u, err := reg.Create("t", n, dsu.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, u, durBatches(n, 2, 4, 81))
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2 := dsu.NewRegistry(dsu.WithDurability(dir))
	if _, err := reg2.Create("t", n, dsu.WithSeed(2)); err == nil {
		t.Fatalf("Create with a different seed over an existing log succeeded")
	}
	if _, err := reg2.Create("t", n+1, dsu.WithSeed(1)); err == nil {
		t.Fatalf("Create with a different n over an existing log succeeded")
	}
	// The failed creates must not have registered anything.
	if _, ok := reg2.Get("t"); ok {
		t.Fatalf("failed create registered the tenant")
	}
}

// TestMutationsFailAfterSeal: acked-means-logged in the negative — once
// the log is sealed (registry closed), mutations return errors instead
// of acknowledging unlogged work.
func TestMutationsFailAfterSeal(t *testing.T) {
	const n = 64
	reg := dsu.NewRegistry(dsu.WithDurability(t.TempDir()))
	u, err := reg.Create("t", n)
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, u, durBatches(n, 2, 4, 91))
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := u.UniteAll(dsu.UniteRequest{Edges: []dsu.Edge{{X: 1, Y: 2}}}); err == nil {
		t.Fatalf("UniteAll after seal acked a batch")
	}
	// Queries still work: the structure is intact, only mutation is off.
	rep, err := u.SameSetAll(dsu.QueryRequest{Pairs: []dsu.Edge{{X: 1, Y: 2}}})
	if err != nil || len(rep.Answers) != 1 {
		t.Fatalf("query after seal: %v %v", rep, err)
	}
}

// TestDropSealsLog: dropping a durable tenant seals its log so a later
// Create recovers it.
func TestDropSealsLog(t *testing.T) {
	const n = 64
	dir := t.TempDir()
	reg := dsu.NewRegistry(dsu.WithDurability(dir))
	u, err := reg.Create("t", n)
	if err != nil {
		t.Fatal(err)
	}
	batches := durBatches(n, 4, 5, 101)
	ingest(t, u, batches)
	if !reg.Drop("t") {
		t.Fatalf("Drop reported missing")
	}
	u2, err := reg.Create("t", n)
	if err != nil {
		t.Fatalf("re-create after drop: %v", err)
	}
	sameLabels(t, "after drop", u2.CanonicalLabels(), oracleLabels(n, batches))
	if u2.Seq() != 4 {
		t.Fatalf("Seq = %d after drop/re-create", u2.Seq())
	}
	reg.Close()
}
