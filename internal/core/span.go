package core

// Edge is one (X, Y) element pair of a batch: an edge to unite across, or
// a connectivity query to answer. The batch layers (exec, engine, dsu)
// alias it, so a batch slice reaches the span kernel below without a copy.
// The amd64 prefetch reads it as two 4-byte words, X then Y
// (TestEdgeLayout pins that).
type Edge struct {
	X, Y uint32
}

// The span kernel runs a span in groups of spanGroup edges and keeps a
// three-stage prefetch pipeline running ahead of them. While group g runs:
//
//   - group g+edgeDist's endpoint words are requested;
//   - group g+parentDist's endpoint words are gathered (the endpoints'
//     parents) and the parents' words requested;
//   - group g+rootDist's parents' words are gathered (the grandparents),
//     and the grandparent's word is requested wherever the parent is not a
//     root.
//
// Those are the words one two-try splitting step reads: the parent words
// of x, of its parent and, on the second try after the swing, of its
// grandparent. Under random linking most finds end within them, and a
// link's order test computes its roots' ids and touches no memory. Every
// gather reads a line a stage requested one group's work earlier, so a
// group's misses overlap the work of the groups before it instead of
// stalling it. The requests are PREFETCHT0 on amd64 and nothing elsewhere
// (prefetch_other.go), where the gathers are the only loads ahead. The
// sizes were picked by a sweep (EXPERIMENTS.md, "Software-pipelined
// prefetch in the span kernel").
const (
	spanGroup  = 16
	rootDist   = 1
	parentDist = rootDist + 1 // so one buffer carries the parents between them
	edgeDist   = 3
)

// UniteSpan unites across every edge of span, exactly as a loop of
// UniteRetries over it would: it returns how many edges performed a merge
// and the summed root-link CAS retries, and tallies the same work into st.
// A self-loop (X == Y) can never merge, so it counts as a completed
// operation without paying its two finds.
//
// Each edge runs the unchanged Algorithm 3 (or 7), in groups, while the
// prefetch pipeline works ahead (see spanGroup). The prefetches and
// gathers are hints. No decision reads their values, so Lemma 3.1,
// linearizability and the exact merge and retry counts rest on the
// algorithm's own loads alone; and they stay out of st, which counts only
// the algorithm's steps.
//
// An element outside the structure panics, as in the point operations.
// The pipeline gathers up to parentDist groups ahead, so the panic may
// come before earlier edges of the span have applied. The dsu layer
// validates every batch before it reaches the core, so no served path
// gets here.
func (d *DSU) UniteSpan(span []Edge, st *Stats) (merged, retries int64) {
	var p prefetcher
	for g := -edgeDist; g*spanGroup < len(span); g++ {
		p.ahead(d, span, g)
		for _, e := range group(span, g) {
			if e.X == e.Y {
				if st != nil {
					st.Ops++
				}
				continue
			}
			m, r := d.unite(e.X, e.Y, st)
			if m {
				merged++
			}
			retries += r
		}
	}
	return merged, retries
}

// SameSetSpan answers pairs[i] into out[i] with Algorithm 2 (or 6),
// exactly as a loop of SameSetCounted over the pairs would, under the
// pipeline UniteSpan runs (and with its panic on an element outside the
// structure). A self-pair is answered true for one counted operation and
// no finds. It panics if out is shorter than pairs.
func (d *DSU) SameSetSpan(pairs []Edge, out []bool, st *Stats) {
	out = out[:len(pairs)]
	var p prefetcher
	for g := -edgeDist; g*spanGroup < len(pairs); g++ {
		p.ahead(d, pairs, g)
		base := g * spanGroup
		for i, e := range group(pairs, g) {
			if e.X == e.Y {
				out[base+i] = true
				if st != nil {
					st.Ops++
				}
				continue
			}
			out[base+i] = d.sameSet(e.X, e.Y, st)
		}
	}
}

// group returns span's k-th group of edges: empty for a k before the
// first group or past the last.
func group(span []Edge, k int) []Edge {
	lo := k * spanGroup
	if k < 0 || lo >= len(span) {
		return nil
	}
	return span[lo:min(len(span), lo+spanGroup)]
}

// prefetcher is a span's pipeline state, on the kernel's stack: the
// endpoints' parents the parentDist stage gathered, kept until the
// rootDist stage reads their words in the next call.
type prefetcher struct {
	parents [2 * spanGroup]uint32
}

// ahead runs the pipeline's three stages for the groups after g, the group
// about to run; g runs from −edgeDist, so the first calls fill the
// pipeline before any group runs.
//
// The gathers are atomic loads, bounds-checked like the algorithm's own,
// and a gathered value only picks the next word to request. Race-detector
// builds skip the whole pipeline: there each load is a call into the
// detector, costing more than the miss it hides, and a load no decision
// reads gives the detector nothing to check.
func (p *prefetcher) ahead(d *DSU, span []Edge, g int) {
	if raceEnabled {
		return
	}
	words := d.parent
	if e := group(span, g+edgeDist); len(e) > 0 {
		prefetchEdges(words, e)
	}
	// The rootDist stage runs first: it consumes, in place, the buffer the
	// parentDist stage refills below.
	buf := &p.parents
	if e := group(span, g+rootDist); len(e) > 0 {
		// Every grandparent is stored, and kept by advancing k only when
		// its parent is not a root. That test is unpredictable, and written
		// this way it compiles to a conditional move, not a branch.
		k := 0
		for _, v := range buf[:2*len(e)] {
			w := words[v].Load()
			buf[k] = w
			if w != v {
				k++
			}
		}
		prefetchWords(words, buf[:k])
	}
	if e := group(span, g+parentDist); len(e) > 0 {
		for i, ed := range e {
			buf[2*i] = words[ed.X].Load()
			buf[2*i+1] = words[ed.Y].Load()
		}
		prefetchWords(words, buf[:2*len(e)])
	}
}
