package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/dsu"
)

// TestDurableServer drives the persistence surface end to end over the
// wire: tenant info reports the durable log position, /checkpoint
// snapshots on demand, and a second server over the same data directory
// recovers exactly the partition the first acknowledged.
func TestDurableServer(t *testing.T) {
	const n = 300
	dir := t.TempDir()
	ctx := context.Background()

	reg := dsu.NewRegistry(dsu.WithDurability(dir))
	_, c := newTestServer(t, Config{Registry: reg})
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "alpha", N: n, Kind: "lockfree"}); err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		if _, err := c.UniteAll(ctx, "alpha", dsu.UniteRequest{Edges: testEdges(n, 40, seed)}); err != nil {
			t.Fatal(err)
		}
	}
	info, err := c.Tenant(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Durable || info.Seq != 5 {
		t.Fatalf("info = %+v, want durable at seq 5", info)
	}
	if err := c.Checkpoint(ctx, "alpha"); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Two more batches past the snapshot, so recovery replays a tail.
	for seed := int64(5); seed < 7; seed++ {
		if _, err := c.UniteAll(ctx, "alpha", dsu.UniteRequest{Edges: testEdges(n, 40, seed)}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := c.Labels(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	live, _ := reg.Get("alpha")
	ids := make([]uint32, n)
	for x := range ids {
		ids[x] = live.ID(uint32(x))
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process over the same directory: recovery before serving.
	reg2 := dsu.NewRegistry(dsu.WithDurability(dir))
	restored, err := reg2.RestoreTenants()
	if err != nil {
		t.Fatalf("RestoreTenants: %v", err)
	}
	if len(restored) != 1 || restored[0] != "alpha" {
		t.Fatalf("restored %v", restored)
	}
	_, c2 := newTestServer(t, Config{Registry: reg2})
	info, err = c2.Tenant(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 7 || !info.Durable {
		t.Fatalf("recovered info = %+v", info)
	}
	got, err := c2.Labels(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered labels differ from the acknowledged partition")
	}
	// The create named no seed, so the server drew one; the log header
	// recorded it, and the recovered tenant links by the same order.
	recovered, _ := reg2.Get("alpha")
	for x, id := range ids {
		if recovered.ID(uint32(x)) != id {
			t.Fatalf("recovered tenant's order differs at element %d", x)
		}
	}
	reg2.Close()
}

// TestDropRecreateSeedless: DELETE seals a durable tenant's log and
// leaves it on disk, and a create under the same name that names no seed
// recovers it — under the seed the log records, not a fresh draw the log
// would refuse — with the acknowledged partition and sequence.
func TestDropRecreateSeedless(t *testing.T) {
	const n = 200
	ctx := context.Background()
	reg := dsu.NewRegistry(dsu.WithDurability(t.TempDir()))
	defer reg.Close()
	_, c := newTestServer(t, Config{Registry: reg})
	spec := TenantSpec{Name: "t", N: n}
	if _, err := c.CreateTenant(ctx, spec); err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 3; seed++ {
		if _, err := c.UniteAll(ctx, "t", dsu.UniteRequest{Edges: testEdges(n, 60, seed)}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := c.Labels(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DropTenant(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	info, err := c.CreateTenant(ctx, spec)
	if err != nil {
		t.Fatalf("seedless re-create after drop: %v", err)
	}
	if !info.Durable || info.Seq != 3 {
		t.Fatalf("re-created info = %+v, want durable at seq 3", info)
	}
	got, err := c.Labels(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("re-created tenant's labels differ from the dropped tenant's")
	}
}

// TestCreateErrorsNameNoPath: a create refused for its log or its data
// directory answers without naming a server-side path — a 400 when a
// dropped tenant's log records another configuration, a 500 when the
// file system fails.
func TestCreateErrorsNameNoPath(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	reg := dsu.NewRegistry(dsu.WithDurability(dir))
	defer reg.Close()
	_, c := newTestServer(t, Config{Registry: reg})
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "t", N: 16}); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTenant(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	_, err := c.CreateTenant(ctx, TenantSpec{Name: "t", N: 32})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("re-create under another n = %v, want 400", err)
	}
	if strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), `"t"`) {
		t.Fatalf("re-create error names a path, or not the tenant: %v", err)
	}

	// A data directory that cannot be made: its parent is a file.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := dsu.NewRegistry(dsu.WithDurability(filepath.Join(file, "data")))
	_, c2 := newTestServer(t, Config{Registry: bad})
	_, err = c2.CreateTenant(ctx, TenantSpec{Name: "t", N: 16})
	if err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("create over an unusable data directory = %v, want 500", err)
	}
	if strings.Contains(err.Error(), file) {
		t.Fatalf("storage error names a path: %v", err)
	}
}

// TestErrorTextNamesNoPath: a refused batch whose error carries a
// file-system error, as every mutation on a poisoned log does, answers
// with text that names no server-side path; the server log keeps the
// detail. Any other error reaches the client as it is.
func TestErrorTextNamesNoPath(t *testing.T) {
	var logged bytes.Buffer
	s := New(Config{Registry: dsu.NewRegistry(), Log: slog.New(slog.NewTextHandler(&logged, nil))})
	const path = "/srv/dsu-data/t.dsulog"
	poisoned := fmt.Errorf("wal: log poisoned by write failure: %w",
		&fs.PathError{Op: "write", Path: path, Err: os.ErrClosed})
	got := s.errorText("unite", "t", poisoned)
	if strings.Contains(got, path) || got != "unite failed: storage error (detail in the server log)" {
		t.Fatalf("errorText of a poisoned log = %q", got)
	}
	if !strings.Contains(logged.String(), path) || !strings.Contains(logged.String(), "tenant=t") {
		t.Fatalf("server log lacks the detail: %q", logged.String())
	}
	plain := errors.New("dsu: edge 3 names (9,1), outside the 4-element universe")
	if got := s.errorText("unite", "t", plain); got != plain.Error() {
		t.Fatalf("errorText of a validation error = %q, want it unchanged", got)
	}
}

// TestCheckpointNotDurable: /checkpoint on a tenant without persistence
// answers 409, not a snapshot of nothing.
func TestCheckpointNotDurable(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "t", N: 10}); err != nil {
		t.Fatal(err)
	}
	err := c.Checkpoint(ctx, "t")
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("Checkpoint on a non-durable tenant = %v, want 409", err)
	}
}

// TestDurableStreamOverWire: batches sealed by a stream connection are
// logged like RPC batches — a recovered server reports their sequence.
func TestDurableStreamOverWire(t *testing.T) {
	const n = 200
	dir := t.TempDir()
	ctx := context.Background()

	reg := dsu.NewRegistry(dsu.WithDurability(dir))
	_, c := newTestServer(t, Config{Registry: reg})
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "t", N: n}); err != nil {
		t.Fatal(err)
	}
	st, err := c.OpenStream(ctx, "t", StreamConfig{Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Push(testEdges(n, 500, 1)...); err != nil {
		t.Fatal(err)
	}
	end, err := st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if end.Failed != 0 || end.Batches == 0 {
		t.Fatalf("stream end = %+v", end)
	}
	want, err := c.Labels(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2 := dsu.NewRegistry(dsu.WithDurability(dir))
	if _, err := reg2.RestoreTenants(); err != nil {
		t.Fatal(err)
	}
	_, c2 := newTestServer(t, Config{Registry: reg2})
	info, err := c2.Tenant(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != end.Batches {
		t.Fatalf("recovered seq %d, stream sealed %d batches", info.Seq, end.Batches)
	}
	got, err := c2.Labels(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered labels differ from the streamed partition")
	}
	reg2.Close()
}
