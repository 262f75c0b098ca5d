package core

import "sync/atomic"

// prefetchEdges requests the words of both endpoints of every edge with
// PREFETCHT0 (prefetch_amd64.s). A prefetch retires without waiting for
// its line and never faults, so an endpoint outside words costs nothing
// here; the kernel's bounds-checked gathers are what catch it.
//
//go:noescape
func prefetchEdges(words []atomic.Uint32, edges []Edge)

// prefetchWords requests words[i] for every i of idx with PREFETCHT0, as
// prefetchEdges does.
//
//go:noescape
func prefetchWords(words []atomic.Uint32, idx []uint32)
