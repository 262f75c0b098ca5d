package dsu_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/dsu"
)

// TestRegistryLifecycle covers create/get/drop/names and the error paths
// that replace New's panics for remote callers.
func TestRegistryLifecycle(t *testing.T) {
	reg := dsu.NewRegistry()
	flat, err := reg.Create("alpha", 100)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := reg.Create("beta", 100, dsu.WithKind(dsu.KindLockFree), dsu.WithAdaptiveFind())
	if err != nil {
		t.Fatal(err)
	}
	// WithAdaptiveFind is a compatibility spelling of two-try splitting.
	if rep, err := lf.SameSetAll(dsu.QueryRequest{Pairs: []dsu.Edge{{X: 1, Y: 2}}}); err != nil || rep.Find != dsu.TwoTrySplitting {
		t.Errorf("beta query reply find = %v, %v; want twotry", rep.Find, err)
	}
	// The lock-free kind name builds the one structure, so it takes every
	// configuration New takes.
	for _, opts := range [][]dsu.Option{
		{dsu.WithFind(dsu.Halving)},
		{dsu.WithFind(dsu.Compression)},
		{dsu.WithEarlyTermination()},
	} {
		u, err := dsu.NewRegistry().Create("gamma", 10, append(opts, dsu.WithKind(dsu.KindLockFree))...)
		if err != nil || !u.Unite(1, 2) || !u.SameSet(1, 2) {
			t.Errorf("lockfree spec with %d option(s): %v", len(opts), err)
		}
	}
	if got := reg.Names(); !reflect.DeepEqual(got, []string{"alpha", "beta"}) {
		t.Errorf("Names() = %v", got)
	}
	if reg.Len() != 2 {
		t.Errorf("Len() = %d, want 2", reg.Len())
	}
	if u, ok := reg.Get("alpha"); !ok || u != flat {
		t.Errorf("Get(alpha) = %v, %v", u, ok)
	}
	if _, err := reg.Create("alpha", 10); !errors.Is(err, dsu.ErrExists) {
		t.Errorf("duplicate Create = %v, want ErrExists", err)
	}

	for name, build := range map[string]func() error{
		"empty name":  func() error { _, err := reg.Create("", 10); return err },
		"negative n":  func() error { _, err := reg.Create("bad", -1); return err },
		"bad variant": func() error { _, err := reg.Create("bad", 10, dsu.WithFind(dsu.FindStrategy(42))); return err },
		"early+halve": func() error {
			_, err := reg.Create("bad", 10, dsu.WithFind(dsu.Halving), dsu.WithEarlyTermination())
			return err
		},
		// 2 was the retired sharded kind: a log header may still carry it,
		// but no tenant is created with it.
		"retired kind": func() error { _, err := reg.Create("bad", 10, dsu.WithKind(dsu.Kind(2))); return err },
		"unknown kind": func() error { _, err := reg.Create("bad", 10, dsu.WithKind(dsu.Kind(9))); return err },
	} {
		if err := build(); err == nil {
			t.Errorf("%s: Create succeeded, want error", name)
		}
	}

	if !reg.Drop("alpha") || reg.Drop("alpha") {
		t.Error("Drop(alpha) should succeed exactly once")
	}
	if _, ok := reg.Get("alpha"); ok {
		t.Error("alpha still resolvable after Drop")
	}
}

// TestUniverseDTOEquivalence proves the acceptance criterion's in-process
// half from the other side: driving a universe through the DTO layer and
// driving the structure through its classic batch methods produce the same
// partition, the same merge counts, and the same answers — whether New or
// a lockfree spec built the structure.
func TestUniverseDTOEquivalence(t *testing.T) {
	const n, m = 3000, 9000
	edges := randomEdges(n, m, 7)
	queries := randomEdges(n, m/3, 11)

	for _, tc := range []struct {
		name  string
		build func() *dsu.DSU
	}{
		{"flat", func() *dsu.DSU { return dsu.New(n, dsu.WithSeed(5)) }},
		{"lockfree", func() *dsu.DSU { return newLockFreeSpec(n, dsu.WithSeed(5)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			classic := tc.build()
			viaDTO := dsu.NewUniverse("t", tc.build())

			wantMerged := classic.UniteAll(edges, dsu.BatchOptions{Grain: 256})
			rep, err := viaDTO.UniteAll(dsu.UniteRequest{Edges: edges, Options: dsu.BatchOptions{Grain: 256}})
			if err != nil {
				t.Fatal(err)
			}
			if int(rep.Merged) != wantMerged {
				t.Errorf("Merged = %d, want %d", rep.Merged, wantMerged)
			}
			if rep.Stats.Ops == 0 || rep.Elapsed <= 0 {
				t.Errorf("reply accounting empty: ops=%d elapsed=%v", rep.Stats.Ops, rep.Elapsed)
			}

			wantAnswers := classic.SameSetAll(queries)
			qrep, err := viaDTO.SameSetAll(dsu.QueryRequest{Pairs: queries})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(qrep.Answers, wantAnswers) {
				t.Error("DTO answers differ from classic SameSetAll")
			}
			if !reflect.DeepEqual(viaDTO.CanonicalLabels(), classic.CanonicalLabels()) {
				t.Error("partitions differ between DTO and classic paths")
			}
		})
	}
}

// TestUniverseValidation exercises the untrusted-input checks that guard
// the wait-free core's unchecked indexing.
func TestUniverseValidation(t *testing.T) {
	u := dsu.NewUniverse("t", dsu.New(10))
	if _, err := u.UniteAll(dsu.UniteRequest{Edges: []dsu.Edge{{X: 3, Y: 10}}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := u.SameSetAll(dsu.QueryRequest{Pairs: []dsu.Edge{{X: 11, Y: 0}}}); err == nil {
		t.Error("out-of-range pair accepted")
	}
	if _, err := u.UniteAll(dsu.UniteRequest{Options: dsu.BatchOptions{Find: dsu.FindAuto}}); err == nil {
		t.Error("FindAuto accepted as a per-batch override")
	}
	if _, err := u.UniteAll(dsu.UniteRequest{Options: dsu.BatchOptions{Find: dsu.FindStrategy(9)}}); err == nil {
		t.Error("unknown find override accepted")
	}
	early := dsu.NewUniverse("e", dsu.New(10, dsu.WithEarlyTermination()))
	if _, err := early.SameSetAll(dsu.QueryRequest{Pairs: []dsu.Edge{{X: 1, Y: 2}}, Options: dsu.BatchOptions{Find: dsu.Halving}}); err == nil {
		t.Error("halving override accepted on an early-termination structure")
	}
	// A valid override must run — and report the variant it ran.
	rep, err := u.SameSetAll(dsu.QueryRequest{Pairs: []dsu.Edge{{X: 1, Y: 2}}, Options: dsu.BatchOptions{Find: dsu.NoCompaction}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Find != dsu.NoCompaction {
		t.Errorf("reply Find = %v, want NoCompaction", rep.Find)
	}
}

// TestVeneerPanicsOnRangeViolation pins the veneer contract: an
// out-of-range element in an in-process batch is a diagnosed panic at the
// call site, not an index fault inside a worker goroutine.
func TestVeneerPanicsOnRangeViolation(t *testing.T) {
	d := dsu.New(4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("UniteAll with out-of-range edge did not panic")
		}
		err, ok := r.(error)
		if !ok || !strings.Contains(err.Error(), "universe") {
			t.Errorf("panic %v does not diagnose the range violation", r)
		}
	}()
	d.UniteAll([]dsu.Edge{{X: 1, Y: 9}})
}

// TestParseFindStrategy checks the wire-name round trips of find
// strategies and structure kinds.
func TestParseFindStrategy(t *testing.T) {
	for _, f := range []dsu.FindStrategy{dsu.NoCompaction, dsu.OneTrySplitting, dsu.TwoTrySplitting, dsu.Halving, dsu.Compression, dsu.FindAuto} {
		got, err := dsu.ParseFindStrategy(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFindStrategy(%q) = %v, %v; want %v", f.String(), got, err, f)
		}
	}
	if got, err := dsu.ParseFindStrategy(""); err != nil || got != 0 {
		t.Errorf("ParseFindStrategy(\"\") = %v, %v; want 0, nil", got, err)
	}
	if _, err := dsu.ParseFindStrategy("zorp"); err == nil {
		t.Error("ParseFindStrategy(zorp) accepted")
	}
	// String is total: the zero value prints the name that parses back to
	// it, and an unknown value prints its number instead of panicking.
	if s := dsu.FindStrategy(0).String(); s != "default" {
		t.Errorf("FindStrategy(0).String() = %q, want default", s)
	} else if got, err := dsu.ParseFindStrategy(s); err != nil || got != 0 {
		t.Errorf("ParseFindStrategy(%q) = %v, %v; want 0, nil", s, got, err)
	}
	if s := dsu.FindStrategy(99).String(); s != "FindStrategy(99)" {
		t.Errorf("FindStrategy(99).String() = %q", s)
	}
	if s := fmt.Sprintf("%+v", dsu.BatchOptions{}); strings.Contains(s, "PANIC") {
		t.Errorf("zero BatchOptions formats as %s", s)
	}
	// The kind names round-trip the same way, and the older spellings of
	// the lock-free kind still parse; the retired sharded kind and its
	// shard-count spelling are unknown names.
	for _, k := range []dsu.Kind{dsu.KindFlat, dsu.KindLockFree} {
		if got, err := dsu.ParseKind(k.String()); err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, name := range []string{"lock-free", "concurrent"} {
		if got, err := dsu.ParseKind(name); err != nil || got != dsu.KindLockFree {
			t.Errorf("ParseKind(%q) = %v, %v; want lockfree", name, got, err)
		}
	}
	for _, name := range []string{"sharded", "shard", "4"} {
		if _, err := dsu.ParseKind(name); err == nil {
			t.Errorf("ParseKind(%q) accepted", name)
		}
	}
}

// TestStreamFlushSurfacesCancellation is the dsu-layer half of the
// shutdown satellite: after the stream context is cancelled, Flush reports
// the context error at the call site and Close confirms the loss.
func TestStreamFlushSurfacesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	d := dsu.New(100)
	s := dsu.NewStream(d, dsu.WithBufferSize(1<<20), dsu.WithStreamContext(ctx))
	if err := s.Push(dsu.Edge{X: 1, Y: 2}); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := s.Flush(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Flush after cancel = %v, want context.Canceled", err)
	}
	if err := s.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close = %v, want context.Canceled", err)
	}
	if s.Failed() == 0 {
		t.Error("abandoned batch not counted in Failed()")
	}
}

// TestUniverseStream checks Universe.NewStream is the same stream the
// dsu.NewStream veneer returns: same partition as blocking ingestion.
func TestUniverseStream(t *testing.T) {
	const n, m = 2000, 8000
	edges := randomEdges(n, m, 21)
	oracle := dsu.New(n, dsu.WithSeed(2))
	oracle.UniteAll(edges)

	u := dsu.NewUniverse("t", dsu.New(n, dsu.WithSeed(2)))
	s := u.NewStream(dsu.WithBufferSize(512))
	for _, e := range edges {
		if err := s.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(u.CanonicalLabels(), oracle.CanonicalLabels()) {
		t.Error("streamed partition differs from blocking oracle")
	}
	if s.Edges() != int64(m) {
		t.Errorf("stream saw %d edges, want %d", s.Edges(), m)
	}
}
