package server

import (
	"context"
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
	reg2.Close()
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
