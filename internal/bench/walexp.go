package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/dsu"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/internal/workload"
)

// durableIngest drives the edge list through blocking UniteAll batches
// on a fresh durable (or not) tenant and returns the wall-clock time.
// Each row builds its own registry and directory so no run inherits
// another's log.
func durableIngest(n int, seed uint64, edges []engine.Edge, frame int, regOpts []dsu.RegistryOption) time.Duration {
	reg := dsu.NewRegistry(regOpts...)
	u, err := reg.Create("t", n, dsu.WithSeed(seed))
	if err != nil {
		panic(fmt.Sprintf("bench: tenant create: %v", err))
	}
	start := time.Now()
	for lo := 0; lo < len(edges); lo += frame {
		hi := min(lo+frame, len(edges))
		if _, err := u.UniteAll(dsu.UniteRequest{Edges: edges[lo:hi]}); err != nil {
			panic(fmt.Sprintf("bench: durable unite: %v", err))
		}
	}
	elapsed := time.Since(start)
	if err := reg.Close(); err != nil {
		panic(fmt.Sprintf("bench: sealing log: %v", err))
	}
	return elapsed
}

// runE25 measures the durability tax and the recovery path: blocking
// ingest throughput with the WAL off and under each sync policy (the
// acceptance bar: group commit retains ≥70% of WAL-off throughput),
// group-commit coalescing under concurrent appenders (batches per
// fsync'd chunk), and recovery time from a cold log with and without a
// snapshot bounding the replayed tail.
func runE25(cfg Config) error {
	header(cfg, "E25", "Durable tenants: WAL ingest cost and recovery time", "systems extension; ROADMAP durable-tenants item")
	n := 1 << 18
	if cfg.Quick {
		n = 1 << 14
	}
	m := 4 * n
	frame := 1 << 13
	edges := engine.FromOps(workload.RandomUnions(n, m, cfg.Seed+251))

	scratch, err := os.MkdirTemp("", "dsu-e25-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	durOpts := func(row string, opts ...dsu.DurabilityOption) []dsu.RegistryOption {
		dir := filepath.Join(scratch, row)
		return []dsu.RegistryOption{dsu.WithDurability(dir, opts...)}
	}

	// Ingest cost: the WAL-off row per frame size is the ceiling; every
	// policy pays encode + append, and group/always additionally pay
	// their fsyncs. A serial caller cannot share fsyncs, so group and
	// always converge at small frames — the fsync tax amortizes with the
	// batch, which is the operational guidance this table exists for.
	fmt.Fprintf(cfg.Out, "### Blocking ingest, WAL off vs sync policies (n=%d, m=%d edges)\n\n", n, m)
	ti := stats.NewTable("frame", "off Medge/s", "none Medge/s", "%", "group Medge/s", "%", "always Medge/s", "%")
	frames := []int{1 << 13, 1 << 16, 1 << 18}
	if cfg.Quick {
		frames = []int{1 << 13}
	}
	run := 0
	for _, frame := range frames {
		off := bestOf(func() time.Duration { return durableIngest(n, cfg.Seed+1, edges, frame, nil) })
		offTh := mops(m, off)
		row := []any{frame, offTh}
		for _, policy := range []struct {
			name string
			p    dsu.SyncPolicy
		}{{"none", dsu.SyncNone}, {"group", dsu.SyncGroup}, {"always", dsu.SyncAlways}} {
			th := mops(m, bestOf(func() time.Duration {
				run++
				return durableIngest(n, cfg.Seed+1, edges, frame,
					durOpts(fmt.Sprintf("ingest-%s-%d", policy.name, run), dsu.WithSyncPolicy(policy.p)))
			}))
			row = append(row, th, 100*th/offTh)
		}
		ti.AddRowf(row...)
	}
	fmt.Fprint(cfg.Out, ti)
	fmt.Fprintln(cfg.Out)

	// Concurrent group-commit ingest: the regime group commit is built
	// for — several writers' batches share each fsync, so the durability
	// tax divides across them instead of serializing.
	const conWriters, conFrame = 16, 1 << 13
	fmt.Fprintf(cfg.Out, "### Concurrent ingest, %d writers (one tenant, frame=%d)\n\n", conWriters, conFrame)
	tcon := stats.NewTable("policy", "aggregate Medge/s", "% of off")
	conIngest := func(run string, opts []dsu.DurabilityOption) time.Duration {
		var regOpts []dsu.RegistryOption
		if opts != nil {
			regOpts = durOpts(run, opts...)
		}
		reg := dsu.NewRegistry(regOpts...)
		u, err := reg.Create("t", n, dsu.WithSeed(cfg.Seed+1))
		if err != nil {
			panic(fmt.Sprintf("bench: tenant create: %v", err))
		}
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < conWriters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for lo := w * conFrame; lo < len(edges); lo += conWriters * conFrame {
					hi := min(lo+conFrame, len(edges))
					if _, err := u.UniteAll(dsu.UniteRequest{Edges: edges[lo:hi]}); err != nil {
						panic(fmt.Sprintf("bench: concurrent ingest: %v", err))
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		if err := reg.Close(); err != nil {
			panic(fmt.Sprintf("bench: sealing log: %v", err))
		}
		return elapsed
	}
	conRun := 0
	conOff := mops(m, bestOf(func() time.Duration { return conIngest("", nil) }))
	tcon.AddRowf("off", conOff, 100.0)
	conGroup := mops(m, bestOf(func() time.Duration {
		conRun++
		return conIngest(fmt.Sprintf("con-group-%d", conRun), []dsu.DurabilityOption{dsu.WithSyncPolicy(dsu.SyncGroup)})
	}))
	tcon.AddRowf("group", conGroup, 100*conGroup/conOff)
	fmt.Fprint(cfg.Out, tcon)
	fmt.Fprintln(cfg.Out)

	// Group-commit coalescing: concurrent appenders share fsyncs. Each
	// goroutine's appends block until its batch is durable, so with g
	// writers in flight one chunk (one fsync) absorbs up to g batches —
	// read back from the sealed log's own chunk index.
	fmt.Fprintf(cfg.Out, "### Group-commit coalescing (%d batches of %d edges, sync=group)\n\n", 256, 256)
	tc := stats.NewTable("writers", "batches", "chunks", "batches/fsync")
	for _, writers := range []int{1, 4, 16} {
		dir := filepath.Join(scratch, fmt.Sprintf("coalesce-%d", writers))
		reg := dsu.NewRegistry(dsu.WithDurability(dir))
		u, err := reg.Create("t", n, dsu.WithSeed(cfg.Seed+1))
		if err != nil {
			return err
		}
		const batches, batchLen = 256, 256
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for b := w; b < batches; b += writers {
					lo := (b * batchLen) % (len(edges) - batchLen)
					if _, err := u.UniteAll(dsu.UniteRequest{Edges: edges[lo : lo+batchLen]}); err != nil {
						panic(fmt.Sprintf("bench: concurrent unite: %v", err))
					}
				}
			}(w)
		}
		wg.Wait()
		if err := reg.Close(); err != nil {
			return err
		}
		rd, err := wal.OpenReader(filepath.Join(dir, "t.dsulog"))
		if err != nil {
			return err
		}
		chunks := len(rd.Chunks())
		tc.AddRowf(writers, batches, chunks, float64(batches)/float64(chunks))
	}
	fmt.Fprint(cfg.Out, tc)
	fmt.Fprintln(cfg.Out)

	// Recovery time: a cold Create over an existing log replays the tail
	// past the latest snapshot, so a checkpoint before the crash trades
	// one snapshot write for proportionally less replay on restart.
	fmt.Fprintf(cfg.Out, "### Recovery from a cold log (n=%d, m=%d logged edges)\n\n", n, m)
	tr := stats.NewTable("log", "recovery ms", "replayed edges")
	for _, row := range []struct {
		name       string
		checkpoint bool
	}{
		{"tail only (no snapshot)", false},
		{"snapshot + empty tail", true},
	} {
		dir := filepath.Join(scratch, fmt.Sprintf("recover-%v", row.checkpoint))
		regOpts := []dsu.RegistryOption{dsu.WithDurability(dir)}
		reg := dsu.NewRegistry(regOpts...)
		u, err := reg.Create("t", n, dsu.WithSeed(cfg.Seed+1))
		if err != nil {
			return err
		}
		for lo := 0; lo < len(edges); lo += frame {
			hi := min(lo+frame, len(edges))
			if _, err := u.UniteAll(dsu.UniteRequest{Edges: edges[lo:hi]}); err != nil {
				return err
			}
		}
		if row.checkpoint {
			if err := u.Checkpoint(); err != nil {
				return err
			}
		}
		if err := reg.Close(); err != nil {
			return err
		}
		replayed := m
		if row.checkpoint {
			replayed = 0
		}
		elapsed := bestOf(func() time.Duration {
			reg2 := dsu.NewRegistry(regOpts...)
			start := time.Now()
			if _, err := reg2.Create("t", n, dsu.WithSeed(cfg.Seed+1)); err != nil {
				panic(fmt.Sprintf("bench: recovery: %v", err))
			}
			d := time.Since(start)
			if err := reg2.Close(); err != nil {
				panic(fmt.Sprintf("bench: reseal: %v", err))
			}
			return d
		})
		tr.AddRowf(row.name, float64(elapsed.Microseconds())/1000, replayed)
	}
	fmt.Fprint(cfg.Out, tr)
	fmt.Fprintln(cfg.Out)
	return nil
}
