package exec

import "repro/internal/randutil"

// Dedup returns the batch with self-loop edges and exact duplicates
// removed; (u, v) and (v, u) name the same edge and count as duplicates.
// The first occurrence of each edge survives in order; the input slice is
// not modified. Unions are idempotent, so UniteAll on the deduped batch
// yields the same partition and merge count as on the raw batch — the
// pass trades one sequential scan for the finds the dropped edges would
// have paid. Whether that trade wins is a property of the batch and the
// structure size: it needs enough duplication (skewed/Zipf streams) and
// finds expensive enough (universes past the cache) to beat the scan; E19
// measures both sides. This is the Prefilter pass, kept in the execution
// layer so the flat and sharded backends share one implementation.
//
// The dedup set is open-addressed over a preallocated power-of-two table
// rather than a Go map: one linear probe per edge against flat memory, no
// per-entry allocation. Slot 0 doubles as the empty marker — a normalized
// key always has max(X,Y) in its high word, and max > min rules out key 0
// once self-loops are dropped.
func Dedup(edges []Edge) []Edge {
	out := make([]Edge, 0, len(edges))
	size := 1
	for size < 2*len(edges) {
		size <<= 1
	}
	table := make([]uint64, size)
	mask := uint64(size - 1)
	for _, e := range edges {
		if e.X == e.Y {
			continue
		}
		lo, hi := e.X, e.Y
		if lo > hi {
			lo, hi = hi, lo
		}
		key := uint64(hi)<<32 | uint64(lo)
		h := randutil.Mix64(key) & mask
		for {
			switch table[h] {
			case 0:
				table[h] = key
				out = append(out, e)
			case key:
				// duplicate
			default:
				h = (h + 1) & mask
				continue
			}
			break
		}
	}
	return out
}
