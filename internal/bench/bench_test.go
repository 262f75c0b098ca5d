package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestAllExperimentsRegistered(t *testing.T) {
	all := All()
	if len(all) != 23 {
		t.Fatalf("registered %d experiments, want 23 (E1–E25, E19 and E21 retired)", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Ref == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestByID(t *testing.T) {
	if e, ok := ByID("E9"); !ok || e.ID != "E9" {
		t.Fatal("ByID(E9) failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID(E99) should not exist")
	}
	if e, ok := ByID("batch"); !ok || e.ID != "E18" {
		t.Fatal("ByID(batch) should alias E18")
	}
	if e, ok := ByID("stream"); !ok || e.ID != "E20" {
		t.Fatal("ByID(stream) should alias E20")
	}
	if e, ok := ByID("wire"); !ok || e.ID != "E22" {
		t.Fatal("ByID(wire) should alias E22")
	}
	if e, ok := ByID("lockfree"); !ok || e.ID != "E23" {
		t.Fatal("ByID(lockfree) should alias E23")
	}
	if e, ok := ByID("wal"); !ok || e.ID != "E25" {
		t.Fatal("ByID(wal) should alias E25")
	}
	for _, id := range []string{"e20", "E20", "STREAM"} {
		if e, ok := ByID(id); !ok || e.ID != "E20" {
			t.Fatalf("ByID(%q) should resolve case-insensitively to E20", id)
		}
	}
	// E19 (sharded vs flat) and E21 (adaptive vs fixed finds) are
	// retired, and their aliases with them.
	for _, id := range []string{"E19", "shard", "E21", "adapt"} {
		if _, ok := ByID(id); ok {
			t.Fatalf("ByID(%q) should not exist", id)
		}
	}
}

func TestProcSweep(t *testing.T) {
	cfg := Config{MaxProcs: 6}
	got := cfg.procSweep()
	want := []int{1, 2, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("sweep = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sweep = %v, want %v", got, want)
		}
	}
	cfg = Config{MaxProcs: 8}
	got = cfg.procSweep()
	want = []int{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("sweep(8) = %v, want %v", got, want)
	}
}

// TestQuickRunAllExperiments executes every experiment in quick mode: the
// harness must complete without error and print a table. This doubles as an
// end-to-end smoke test of the whole repository.
func TestQuickRunAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			cfg := Config{Out: &buf, Quick: true, MaxProcs: 4}
			if err := e.Run(cfg); err != nil {
				t.Fatalf("%s: %v\noutput so far:\n%s", e.ID, err, buf.String())
			}
			out := buf.String()
			if !strings.Contains(out, e.ID) {
				t.Errorf("%s: output missing banner:\n%s", e.ID, out)
			}
			if !strings.Contains(out, "|") {
				t.Errorf("%s: output contains no table:\n%s", e.ID, out)
			}
		})
	}
}

func TestBoundFormulas(t *testing.T) {
	// d = m/np: for m=4n, p=1 → d=4: α small; log₂(np/m + 1) = log₂(1.25).
	b := boundTwoTry(1<<16, 4<<16, 1)
	if b < 1 || b > 10 {
		t.Fatalf("boundTwoTry out of sane range: %v", b)
	}
	// Larger p grows the log term: bound must be monotone in p.
	prev := 0.0
	for _, p := range []int{1, 2, 4, 8, 16} {
		bp := boundTwoTry(1<<16, 1<<16, p)
		if bp < prev {
			t.Fatalf("boundTwoTry not monotone in p at %d", p)
		}
		prev = bp
	}
	// One-try bound dominates two-try (p² ≥ p in the log).
	if boundOneTry(1<<16, 1<<16, 8) < boundTwoTry(1<<16, 1<<16, 8) {
		t.Fatal("one-try bound should dominate two-try bound")
	}
}
