package main

import (
	"context"
	"time"

	"repro/dsu"
)

// probePool is the read probe's input: batches of uniform random pairs.
// The ingest workloads run no queries in their window, so the probe is
// what gives them query latency and the one-shot /query path.
func probePool(seed uint64, sh shape) [][]dsu.Edge {
	if sh.ProbeRPCs == 0 {
		return nil
	}
	g := rng(seed, 7)
	p := make([][]dsu.Edge, min(sh.ProbeRPCs, 256))
	for i := range p {
		p[i] = make([]dsu.Edge, sh.ProbePairs)
		uniformEdges(g, sh.N, p[i])
	}
	return p
}

// probeQueries sends ProbeRPCs one-shot /query RPCs, one at a time, to a
// quiescent tenant. Latencies land in r.query and every answer must equal
// the oracle's connectivity exactly. (One client: two closed loops on two
// cores settle into lock-step or alternation for a whole run, which makes
// their median latency bimodal across runs.)
func probeQueries(cfg *config, st *stack, tenant string, pool [][]dsu.Edge, labels []uint32, r *run, tr *tracer, epoch int) error {
	settle()
	from := stamp()
	defer func() { r.probeSlices = evenSlices(from, stamp(), slicesPerWindow) }()
	for i := 0; i < cfg.shape.ProbeRPCs; i++ {
		ref := i % len(pool)
		pairs := pool[ref]
		start := stamp()
		rep, err := st.c.SameSetAll(context.Background(), tenant, dsu.QueryRequest{Pairs: pairs})
		end := stamp()
		r.attempted++
		if err != nil {
			r.failed++
			continue
		}
		r.query = append(r.query, sample{end, time.Duration(end - start), len(pairs)})
		r.probe.add(true, len(pairs), &rep)
		tr.batch(batchRec{epoch: epoch, query: true, ref: ref, items: len(pairs), start: start, end: end, reply: stripAnswers(&rep)})
		ans := packAnswers(rep.Answers)
		if cfg.corrupt == "answer" && i == 0 {
			ans[0] ^= 1
		}
		if err := checkExact(cfg.workload+" read probe", pairs, ans, labels); err != nil {
			return err
		}
	}
	return nil
}

// checkServedLabels fetches the tenant's canonical labels over the
// front end's /labels endpoint and compares them with the oracle's.
func checkServedLabels(cfg *config, st *stack, tenant string, want []uint32) error {
	got, err := st.c.Labels(context.Background(), tenant)
	if err != nil {
		return err
	}
	if cfg.corrupt == "label" && len(got) > 0 {
		got[len(got)/2] ^= 1
	}
	return checkLabels(cfg.workload+" served labels", got, want)
}

// stripAnswers copies a reply's accounting without its answer slice,
// which lives in a pooled decoder.
func stripAnswers(rep *dsu.BatchReply) dsu.BatchReply {
	out := *rep
	out.Answers = nil
	return out
}
