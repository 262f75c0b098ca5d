package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// perLayer runs the outside-in replay passes over the traced window's
// batches and assembles the per-layer metrics, with the sample count
// behind each.
func perLayer(cfg *config, r *run, t *tracer) (map[string]metric, map[string]int, error) {
	spec := t.replay
	if spec == nil || len(t.batches) == 0 {
		return nil, nil, fmt.Errorf("traced run recorded no batches")
	}
	enc, dec, wireBytes, wireAllocs, err := wirePass(t, spec)
	if err != nil {
		return nil, nil, err
	}
	dsuT, err := dsuPass(t, spec)
	if err != nil {
		return nil, nil, err
	}
	wp, err := walPass(cfg, t, spec, cfg.shape.WALBatches)
	if err != nil {
		return nil, nil, err
	}

	var self, root, encs, decs, unites, queries, appends []time.Duration
	var items int64
	for i := range t.batches {
		b := &t.batches[i]
		d := time.Duration(b.end - b.start)
		root = append(root, d)
		// Self time needs every lower layer's span of the batch: on a durable
		// tenant the log was replayed for the last generation only.
		if !spec.durable || b.query || wp.appendT[b.id] > 0 {
			self = append(self, d-enc[b.id]-dec[b.id]-dsuT[b.id]-wp.appendT[b.id])
		}
		encs = append(encs, enc[b.id])
		decs = append(decs, dec[b.id])
		items += int64(b.items)
		if b.query {
			queries = append(queries, dsuT[b.id])
		} else {
			unites = append(unites, dsuT[b.id])
			if wp.appendT[b.id] > 0 {
				appends = append(appends, wp.appendT[b.id])
			}
		}
	}

	m := map[string]metric{}
	n := map[string]int{}
	set := func(name string, v float64, unit string, samples int) {
		m[name] = metric{v, unit}
		n[name] = samples
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	a := &r.agg
	batches := a.uniteBatches + a.queryBatches
	set("server.self_us", us(median(self)), "us", len(self))
	set("server.allocs_per_batch", ratio(float64(r.mem.mallocs), float64(batches)), "count", int(batches))
	set("server.alloc_bytes_per_op", ratio(float64(r.mem.bytes), float64(r.ops)), "B", int(r.ops))
	set("server.gc_per_s", ratio(float64(r.mem.gcs), r.elapsed.Seconds()), "1/s", int(r.mem.gcs))
	set("server.batch_p99_ms", ms(quantile(root, 0.99)), "ms", len(root))

	set("wire.encode_us", us(median(encs)), "us", len(encs))
	set("wire.decode_us", us(median(decs)), "us", len(decs))
	set("wire.bytes_per_op", ratio(float64(wireBytes), float64(items)), "B", int(items))
	set("wire.allocs_per_frame", wireAllocs, "count", 2*len(t.batches))

	set("pipeline.edges_per_batch", ratio(float64(a.uniteEdges+a.queryPairs), float64(batches)), "count", int(batches))
	set("pipeline.exec_busy_frac", ratio(a.execBusy.Seconds(), r.elapsed.Seconds()), "ratio", int(batches))

	var creates, preloads []time.Duration
	for _, p := range r.phases {
		creates = append(creates, p[0])
		preloads = append(preloads, p[1])
	}
	set("dsu.unite_us", us(median(unites)), "us", len(unites))
	set("dsu.query_us", us(median(queries)), "us", len(queries))
	set("dsu.create_s", median(creates).Seconds(), "s", len(creates))
	set("dsu.preload_s", median(preloads).Seconds(), "s", len(preloads))

	qb := a.queryBatches + r.probe.queryBatches
	set("exec.execute_us", us(median(a.execute)), "us", len(a.execute))
	set("exec.downgrade_frac", ratio(float64(a.downgraded+r.probe.downgraded), float64(qb)), "ratio", int(qb))

	// The paper's work units, from reply Stats: the served kind's prefix
	// carries them and the other kind reads 0.
	st := a.uniteStats
	st.Add(a.queryStats)
	st.Add(r.probe.queryStats)
	served, absent := "core", "lockfree"
	if spec.lockfree {
		served, absent = "lockfree", "core"
	}
	ops := float64(st.Ops)
	work := map[string]float64{
		"find_steps_per_op": ratio(float64(st.FindSteps), ops),
		"work_per_op":       ratio(float64(st.Reads+st.CASAttempts), ops),
		"cas_fail_frac":     ratio(float64(st.CASFailures), float64(st.CASAttempts)),
		"rewrites_per_op":   ratio(float64(st.Rewrites), ops),
		"merge_frac":        ratio(float64(a.merged), float64(a.uniteEdges)),
	}
	for k, v := range work {
		set(served+"."+k, v, "ratio", int(st.Ops))
		set(absent+"."+k, 0, "ratio", 0)
	}
	retries := ratio(float64(a.casRetries), ops)
	if served != "lockfree" {
		retries = 0
	}
	set("lockfree.cas_retries_per_op", retries, "ratio", int(st.Ops))

	// The log: the served one where the tenant is durable, otherwise the
	// replay pass's.
	shape, recovery := wp.shape, wp.recovery
	autoSnaps := wp.autoSnaps
	if spec.durable {
		shape, recovery, autoSnaps = r.log, r.recovery, r.log.snapshots
	}
	set("wal.append_us", us(median(appends)), "us", len(appends))
	set("wal.fsyncs_per_batch", ratio(float64(shape.chunks), float64(shape.batches)), "ratio", int(shape.batches))
	set("wal.snapshots", float64(autoSnaps), "count", 1)
	set("wal.checkpoint_ms", ms(median(wp.checkpt)), "ms", len(wp.checkpt))
	set("wal.snapshot_bytes_frac", ratio(float64(shape.snapBytes), float64(shape.bytes)), "ratio", 1)
	set("wal.replayed_edges", float64(shape.tailEdges), "count", 1)
	set("wal.log_bytes_per_edge", ratio(float64(shape.bytes), float64(shape.edges)), "B", int(shape.edges))
	set("wal.recovery_s", recovery.Seconds(), "s", 1)
	return m, n, nil
}

// printBanner writes the host banner and provenance.
func printBanner(w io.Writer, cfg *config) {
	host, _ := os.Hostname()
	fmt.Fprintf(w, "# perfbench %s\n\n", cfg.workload)
	fmt.Fprintf(w, "host: %s, %s/%s, %d cores, GOMAXPROCS=%d, %s, cpu %q\n",
		host, runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	mode := "untraced (end-to-end metrics)"
	if cfg.trace {
		mode = "untraced, then traced with outside-in replay (per-layer metrics)"
	}
	fmt.Fprintf(w, "provenance: commit %s, seed %d, window %v per run, %s\n\n", cfg.commit, cfg.seed, cfg.window, mode)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printRun writes one workload run's raw figures.
func printRun(w io.Writer, cfg *config, label string, r *run) {
	fmt.Fprintf(w, "## %s run\n\nworkload: %s\n", label, r.params)
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "window: %.3fs, %d ops acknowledged, %d batches attempted, %d failed, failed_frac %.6f ratio\n",
		r.elapsed.Seconds(), r.ops, r.attempted, r.failed, failedFrac)
	if r.rounds > 0 {
		fmt.Fprintf(w, "rounds: %d\n", r.rounds)
	}
	fmt.Fprintf(w, "\n| latency | samples | p50 ms | p90 ms | p99 ms | max ms |\n|---|---|---|---|---|---|\n")
	for _, row := range []struct {
		name string
		ds   []time.Duration
	}{{"unite batch", durations(r.unite)}, {"query batch", durations(r.query)}, {"set-up", r.setups}} {
		p99 := "-" // shown only with at least ten samples beyond it
		if len(row.ds) >= 1000 {
			p99 = fmt.Sprintf("%.4f", ms(quantile(row.ds, 0.99)))
		}
		fmt.Fprintf(w, "| %s | %d | %.4f | %.4f | %s | %.4f |\n", row.name, len(row.ds),
			ms(quantile(row.ds, 0.5)), ms(quantile(row.ds, 0.9)), p99, ms(quantile(row.ds, 1)))
	}
	peak := 0
	for _, s := range r.rss {
		peak = max(peak, s.items)
	}
	fmt.Fprintf(w, "\npeak resident set over the whole window %.2f MB (%d samples, every 5ms)\n", float64(peak)/(1<<20), len(r.rss))
	var rates []string
	for i, b := range bucket(r.slices, append(append([]sample{}, r.unite...), r.query...)) {
		items := 0
		for _, s := range b {
			items += s.items
		}
		rates = append(rates, fmt.Sprintf("%.4g", float64(items)/(float64(r.slices[i].to-r.slices[i].from)/1e9)))
	}
	fmt.Fprintf(w, "ops/s per window slice: %s\n", strings.Join(rates, " "))
	if cfg.workload == "durable-stream" {
		fmt.Fprintf(w, "recovery_s %.6f s (crash image of %d bytes, %d snapshots, %d tail edges replayed)\n",
			r.recovery.Seconds(), r.log.crashBytes, r.log.snapshots, r.log.tailEdges)
		fmt.Fprintf(w, "log_bytes_per_edge %.6f ratio (sealed log %d bytes for %d edges)\n",
			float64(r.log.bytes)/float64(max(r.log.edges, 1)), r.log.bytes, r.log.edges)
	}
	fmt.Fprintln(w)
}

// printMetrics writes a metric table with sample counts.
func printMetrics(w io.Writer, title string, m map[string]metric, samples map[string]int) {
	fmt.Fprintf(w, "## %s\n\n| metric | value | unit | samples |\n|---|---|---|---|\n", title)
	for _, k := range sortedKeys(m) {
		s := "-"
		if c, ok := samples[k]; ok {
			s = fmt.Sprint(c)
		}
		fmt.Fprintf(w, "| %s | %.6g | %s | %s |\n", k, m[k].Value, m[k].Unit, s)
	}
	fmt.Fprintln(w)
}

// sortedKeys lists a metric map's names in order.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
