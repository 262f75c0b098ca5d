// Package simdsu implements the paper's concurrent disjoint-set algorithms
// against the APRAM simulator, mirroring internal/core variant for variant.
// Every parent-pointer access is a simulated shared-memory step, so a run's
// step counts are exactly the "total work" of the paper's theorems, and the
// scheduler controls the interleaving completely — including the lockstep
// and adversarial schedules the paper's constructions assume.
//
// Memory layout: word x of the machine's shared memory holds the parent of
// element x. The random node order lives in process-local memory (a shared
// immutable Go slice), matching the APRAM's local/shared split: the paper's
// processes consult the order free of shared-memory cost. The slice holds
// the order internal/core computes, so a Sim and a core.DSU built with
// the same size and seed link alike.
package simdsu

import (
	"fmt"

	"repro/internal/apram"
	"repro/internal/core"
)

// Sim holds the immutable algorithm state: variant configuration and the
// random node order. The mutable state (parent pointers) lives in machine
// memory, so one Sim can drive many machines.
type Sim struct {
	n   int
	id  []uint32
	cfg core.Config
}

// New returns a Sim over n elements with the given variant configuration
// (the same Config type package core uses; Seed fixes the node order, as
// it fixes a core.DSU's).
func New(n int, cfg core.Config) *Sim {
	if n < 0 {
		panic("simdsu: negative element count")
	}
	if cfg.Find == 0 {
		cfg.Find = core.FindTwoTry
	}
	switch cfg.Find {
	case core.FindNaive, core.FindOneTry, core.FindTwoTry, core.FindHalving, core.FindCompress:
	default:
		panic("simdsu: unknown find strategy")
	}
	if cfg.EarlyTermination {
		switch cfg.Find {
		case core.FindNaive, core.FindOneTry, core.FindTwoTry:
		default:
			panic("simdsu: early termination is defined only for naive and splitting finds")
		}
	}
	order := core.New(n, cfg)
	id := make([]uint32, n)
	for x := range id {
		id[x] = order.ID(uint32(x))
	}
	return &Sim{n: n, id: id, cfg: cfg}
}

// NewWithOrder is New with an explicit node order (id[x] = x's position),
// used by the paper's constructions that fix the order (e.g. the Section 3
// path example needs ids increasing along the path). It panics if order is
// not a permutation of 0..n−1.
func NewWithOrder(cfg core.Config, order []uint32) *Sim {
	n := len(order)
	seen := make([]bool, n)
	for _, v := range order {
		if int(v) >= n || seen[v] {
			panic("simdsu: order is not a permutation")
		}
		seen[v] = true
	}
	s := New(n, cfg)
	s.id = append([]uint32(nil), order...)
	return s
}

// N returns the element count.
func (s *Sim) N() int { return s.n }

// Config returns the variant configuration.
func (s *Sim) Config() core.Config { return s.cfg }

// ID returns x's position in the random node order.
func (s *Sim) ID(x uint32) uint32 { return s.id[x] }

// Words returns the shared-memory words a machine needs for this Sim.
func (s *Sim) Words() int { return s.n }

// Init writes the initial singleton forest into machine memory. Call before
// Machine.Run.
func (s *Sim) Init(mem []uint64) {
	if len(mem) < s.n {
		panic(fmt.Sprintf("simdsu: memory has %d words, need %d", len(mem), s.n))
	}
	for i := 0; i < s.n; i++ {
		mem[i] = uint64(i)
	}
}

func (s *Sim) less(u, v uint32) bool { return s.id[u] < s.id[v] }

func (s *Sim) loadParent(p *apram.P, x uint32) uint32 {
	return uint32(p.Read(int(x)))
}

func (s *Sim) casParent(p *apram.P, x, old, new uint32) bool {
	return p.CAS(int(x), uint64(old), uint64(new))
}

// Find returns the root of x's tree using the configured strategy, run by
// process p.
func (s *Sim) Find(p *apram.P, x uint32) uint32 {
	switch s.cfg.Find {
	case core.FindNaive:
		return s.findNaive(p, x)
	case core.FindOneTry:
		return s.findSplit(p, x, 1)
	case core.FindTwoTry:
		return s.findSplit(p, x, 2)
	case core.FindHalving:
		return s.findHalve(p, x)
	default:
		return s.findCompress(p, x)
	}
}

// findNaive is Algorithm 1.
func (s *Sim) findNaive(p *apram.P, x uint32) uint32 {
	u := x
	for {
		v := s.loadParent(p, u)
		if v == u {
			return u
		}
		u = v
	}
}

// findSplit is Algorithms 4 (tries=1) and 5 (tries=2).
func (s *Sim) findSplit(p *apram.P, x uint32, tries int) uint32 {
	u := x
	for {
		var v uint32
		for t := 0; t < tries; t++ {
			v = s.loadParent(p, u)
			w := s.loadParent(p, v)
			if v == w {
				return v
			}
			s.casParent(p, u, v, w)
		}
		u = v
	}
}

// findHalve is the concurrent halving of Anderson & Woll.
func (s *Sim) findHalve(p *apram.P, x uint32) uint32 {
	u := x
	for {
		v := s.loadParent(p, u)
		w := s.loadParent(p, v)
		if v == w {
			return v
		}
		s.casParent(p, u, v, w)
		u = w
	}
}

// findCompress is the two-pass concurrent compression (see core).
func (s *Sim) findCompress(p *apram.P, x uint32) uint32 {
	root := s.findNaive(p, x)
	u := x
	for u != root {
		q := s.loadParent(p, u)
		if q == u || !s.less(q, root) {
			break
		}
		s.casParent(p, u, q, root)
		u = q
	}
	return root
}

// SameSet is Algorithm 2 (or 6 with early termination), run by process p.
func (s *Sim) SameSet(p *apram.P, x, y uint32) bool {
	if s.cfg.EarlyTermination {
		return s.sameSetEarly(p, x, y)
	}
	u, v := x, y
	for {
		u = s.Find(p, u)
		v = s.Find(p, v)
		if u == v {
			return true
		}
		if s.loadParent(p, u) == u {
			return false
		}
	}
}

func (s *Sim) sameSetEarly(p *apram.P, x, y uint32) bool {
	u, v := x, y
	for {
		if u == v {
			return true
		}
		if s.less(v, u) {
			u, v = v, u
		}
		if s.loadParent(p, u) == u {
			return false
		}
		u = s.earlyStep(p, u)
	}
}

// earlyStep is the "do twice" block of Algorithms 6/7 under the configured
// find strategy.
func (s *Sim) earlyStep(p *apram.P, u uint32) uint32 {
	switch s.cfg.Find {
	case core.FindNaive:
		return s.loadParent(p, u)
	case core.FindOneTry, core.FindTwoTry:
		tries := 1
		if s.cfg.Find == core.FindTwoTry {
			tries = 2
		}
		var z uint32
		for t := 0; t < tries; t++ {
			z = s.loadParent(p, u)
			w := s.loadParent(p, z)
			if z == w {
				break
			}
			s.casParent(p, u, z, w)
		}
		return z
	default:
		panic("simdsu: early termination with unsupported find strategy")
	}
}

// Unite is Algorithm 3 (or 7 with early termination), run by process p.
// It reports whether this process performed the link.
func (s *Sim) Unite(p *apram.P, x, y uint32) bool {
	if s.cfg.EarlyTermination {
		return s.uniteEarly(p, x, y)
	}
	u, v := x, y
	for {
		u = s.Find(p, u)
		v = s.Find(p, v)
		if u == v {
			return false
		}
		lo, hi := u, v
		if s.less(hi, lo) {
			lo, hi = hi, lo
		}
		if s.casParent(p, lo, lo, hi) {
			return true
		}
	}
}

func (s *Sim) uniteEarly(p *apram.P, x, y uint32) bool {
	u, v := x, y
	for {
		if u == v {
			return false
		}
		if s.less(v, u) {
			u, v = v, u
		}
		if s.casParent(p, u, u, v) {
			return true
		}
		u = s.earlyStep(p, u)
	}
}

// ParentsFromMem decodes the parent array from machine memory (post-run).
func (s *Sim) ParentsFromMem(mem []uint64) []uint32 {
	out := make([]uint32, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = uint32(mem[i])
	}
	return out
}
