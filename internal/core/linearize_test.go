package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/linearize"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestPointOpsLinearizable drives real goroutines through Unite/SameSet on
// one structure and feeds the timed history to the Wing–Gong checker:
// every observed outcome must be explained by some sequential order
// consistent with real time. A global atomic tick stamps invocation and
// response, so the recorded intervals are real-time-consistent and
// per-goroutine sequential — exactly what trace.Validate demands.
// Histories stay under the checker's 63-op ceiling (small n, few procs,
// few ops); the value of the test is the -race schedule diversity across
// seeds and every variant New accepts, not volume.
func TestPointOpsLinearizable(t *testing.T) {
	const (
		n       = 8
		procs   = 3
		opsEach = 5
	)
	for _, cfg := range allConfigs() {
		for seed := uint64(1); seed <= 12; seed++ {
			cfg := cfg
			cfg.Seed = seed
			t.Run(fmt.Sprintf("%s/seed=%d", configName(cfg), seed), func(t *testing.T) {
				d := New(n, cfg)
				rec := trace.NewRecorder(procs)
				var tick atomic.Int64
				var wg sync.WaitGroup
				for p := 0; p < procs; p++ {
					ops := workload.Mixed(n, opsEach, 0.6, seed*31+uint64(p))
					wg.Add(1)
					go func(p int, ops []workload.Op) {
						defer wg.Done()
						for _, op := range ops {
							inv := tick.Add(1)
							var res bool
							switch op.Kind {
							case workload.OpUnite:
								res = d.Unite(op.X, op.Y)
							case workload.OpSameSet:
								res = d.SameSet(op.X, op.Y)
							}
							resp := tick.Add(1)
							rec.Record(p, trace.Event{
								Proc: p, Kind: op.Kind,
								X: op.X, Y: op.Y,
								Result: res, Inv: inv, Resp: resp,
							})
							runtime.Gosched()
						}
					}(p, ops)
				}
				wg.Wait()

				h := rec.History()
				if err := h.Validate(); err != nil {
					t.Fatalf("recorded history invalid: %v", err)
				}
				if _, err := linearize.Check(n, h); err != nil {
					t.Fatalf("history not linearizable: %v\n%v", err, h)
				}
			})
		}
	}
}

// TestUniteBooleanNoDoubleClaim checks Unite's linearizable boolean under
// heavy symmetric contention: when every goroutine hammers the same pair,
// exactly one call in total may claim the merge, under every variant.
func TestUniteBooleanNoDoubleClaim(t *testing.T) {
	const procs = 8
	forEachConfig(t, func(t *testing.T, cfg Config) {
		for seed := uint64(1); seed <= 20; seed++ {
			cfg.Seed = seed
			d := New(4, cfg)
			var claims atomic.Int64
			var wg sync.WaitGroup
			for p := 0; p < procs; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if d.Unite(1, 3) {
						claims.Add(1)
					}
				}()
			}
			wg.Wait()
			if got := claims.Load(); got != 1 {
				t.Fatalf("seed %d: %d callers claimed the (1,3) merge, want exactly 1", seed, got)
			}
			if !d.SameSet(1, 3) || d.Sets() != 3 {
				t.Fatalf("seed %d: merge not applied", seed)
			}
		}
	})
}
