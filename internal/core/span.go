package core

// Edge is one (X, Y) element pair of a batch: an edge to unite across, or
// a connectivity query to answer. The batch layers (exec, engine, dsu)
// alias it, so a batch slice reaches the span kernel below without a copy.
type Edge struct {
	X, Y uint32
}

// spanGroup is how many edges the span kernel warms at once. A group's
// first loads are independent of each other, so issuing them back to back
// overlaps up to 2·spanGroup cache misses where an edge-at-a-time loop
// takes them one by one. A core keeps fewer misses than that outstanding,
// and groups of 16 and 64 measured within noise of 32 at n = 2²².
const spanGroup = 32

// UniteSpan unites across every edge of span, exactly as a loop of
// UniteRetries over it would: it returns how many edges performed a merge
// and the summed root-link CAS retries, and tallies the same work into st.
// A self-loop (X == Y) can never merge, so it counts as a completed
// operation without paying its two finds.
//
// Edges run in groups of spanGroup: warm first issues the group's leading
// loads together, then each edge runs the unchanged Algorithm 3 (or 7).
// The warm loads are hints. No decision reads their values, so Lemma 3.1,
// linearizability and the exact merge and retry counts rest on the
// algorithm's own loads alone; and they stay out of st, which counts only
// the algorithm's steps.
func (d *DSU) UniteSpan(span []Edge, st *Stats) (merged, retries int64) {
	for base := 0; base < len(span); base += spanGroup {
		g := span[base:min(len(span), base+spanGroup)]
		d.warm(g)
		for _, e := range g {
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
// exactly as a loop of SameSetCounted over the pairs would, in the groups
// UniteSpan uses. A self-pair is answered true for one counted operation
// and no finds. It panics if out is shorter than pairs.
func (d *DSU) SameSetSpan(pairs []Edge, out []bool, st *Stats) {
	out = out[:len(pairs)]
	for base := 0; base < len(pairs); base += spanGroup {
		g := pairs[base:min(len(pairs), base+spanGroup)]
		d.warm(g)
		for i, e := range g {
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

// warm loads, for every edge of the group, both endpoints' parent words,
// then those parents' own parent words — the words a find's first steps
// read. Under random linking most finds end at the parent or the
// grandparent, so these are most of the misses the group's operations
// will take; a link's order test computes its roots' ids and touches no
// memory. Each phase's loads depend only on the phase before, never on
// each other.
//
// Every load is atomic. The values are discarded, and a plain load whose
// value is unused could be dropped by the compiler; an atomic one cannot.
// Race-detector builds skip the loads: there each one is a call into the
// detector, costing more than the miss it hides, and an atomic load whose
// value no decision reads gives the detector nothing to check.
func (d *DSU) warm(g []Edge) {
	if raceEnabled {
		return
	}
	var px, py [spanGroup]uint32
	for i, e := range g {
		px[i] = d.parent[e.X].Load()
		py[i] = d.parent[e.Y].Load()
	}
	for i := range g {
		d.parent[px[i]].Load()
		d.parent[py[i]].Load()
	}
}
