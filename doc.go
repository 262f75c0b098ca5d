// Package repro is a production-quality Go reproduction of Jayanti &
// Tarjan, "A Randomized Concurrent Algorithm for Disjoint Set Union"
// (PODC 2016; revised as arXiv:1612.01514).
//
// The public library lives in repro/dsu: point operations (Unite, SameSet,
// Find) and batched bulk operations (UniteAll, SameSetAll) that fan an
// edge list out over a work-stealing worker pool, all of which may
// overlap freely on one structure; and a streaming ingestion front
// (Stream) that overlaps batch accumulation with execution behind
// backpressure and per-batch completion callbacks. Every tenant is one
// forest, as in the paper, every batch runs one find rule (the tenant's
// configured variant or the batch's own override), and every batch path —
// blocking, streamed or remote — takes one batch funnel per structure,
// which owns the whole tenant: forest, log, instruments and traces.
//
// The client-facing surface is the tenant-scoped Universe API: a Registry
// of named, isolated universes (one structure each, options chosen per
// tenant via the option vocabulary; per-batch tuning in one BatchOptions
// struct) whose batch methods speak plain
// request/response DTOs (UniteRequest, QueryRequest, BatchReply) shared
// verbatim by in-process callers and the network front end —
// cmd/dsuserve serves universes over HTTP with length-prefixed binary
// batch framing, streaming ingestion with
// end-to-end backpressure, and per-tenant in-flight bounds. An opt-in
// observability layer (dsu.Metrics, dsuserve's -metrics/-pprof flags)
// exposes per-tenant Prometheus series fed from the same batch-funnel
// accounting the batch replies carry, plus server request/traffic
// metrics, at zero hot-path cost when disabled.
//
// The substrates — the APRAM simulator, sequential baselines, the
// Anderson–Woll comparator, the linearizability checker, workload
// generators, the batch engine, the ingestion pipeline, the wire codec,
// the HTTP server, the write-ahead log, and the experiment harness — live
// under internal/. See README.md for the map, DESIGN.md for the system
// inventory and per-experiment index, and EXPERIMENTS.md for
// paper-vs-measured results. The benchmarks in bench_test.go regenerate
// one measurement per experiment; cmd/dsubench prints the full tables.
package repro
