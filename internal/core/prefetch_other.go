//go:build !amd64

package core

import "sync/atomic"

// prefetchEdges and prefetchWords request lines only on amd64
// (prefetch_amd64.s); here they do nothing, and the pipeline's gathers
// are its only loads ahead: the endpoints' words two groups ahead and the
// parents' words one group ahead, four loads per edge. On amd64, versions
// that loaded the requested words instead gained at most 4% over empty
// ones in process and nothing on served throughput (EXPERIMENTS.md,
// "PREFETCHT0 against portable loads"). Neither form has been measured on
// another architecture.
func prefetchEdges(words []atomic.Uint32, edges []Edge) {}

func prefetchWords(words []atomic.Uint32, idx []uint32) {}
