package core

import "repro/internal/randutil"

// order is the random total order that decides link direction, computed
// instead of stored: a keyed permutation of 0..n−1 that costs no memory
// and no work at construction. It is a three-round alternating Feistel
// network on words of ⌈lg n⌉ bits (at least two), cycle-walked into
// [0, n): a word the network maps to n or past is mapped again until it
// lands below n, so the result stays a permutation of 0..n−1. Fewer than
// half the words lie past n, so a walk takes under two passes on average,
// and none when n is a power of two.
//
// Each round XORs one half of the word with a keyed hash of the other
// half: multiply-shift hashing, the top bits of a·x mod 2⁶⁴ for a random
// odd a, a universal family, XORed with a random offset so every value is
// equally likely. Both keys of every round come from the seed, so the
// order depends on the seed alone, never on the operations — the
// independence the paper's bounds assume (Section 7). A round costs one
// multiply, one shift and two XORs, and the XOR with the offset is off the
// round's dependency chain; the arithmetic sits on the path of every link
// and every early-termination step.
//
// Three rounds is the fewest the order-quality tests pass. After two, an
// id's high half is its element's high half XORed with a hash of the low
// half, so the elements sharing a low half (a column of a grid as wide as
// the low half) are ordered by their high half XOR one constant: a column
// united top to bottom gets about a level per record of that order, 2^z
// for a constant with z zero bits, so some column becomes a path. A
// fourth round measured no different on any of the tests and costs a
// third more arithmetic.
type order struct {
	n       uint32 // the permutation's domain is [0, n)
	loBits  uint32 // width of the word's low half; the high half is the rest
	loMask  uint32
	loShift uint32 // 64 − loBits: shifts a hash down to the low half's width
	hiShift uint32 // 64 − the high half's width
	mul     [3]uint64
	xor     [3]uint32
}

func newOrder(n int, seed uint64) order {
	width := uint32(2) // one bit a half, so every shift below stays under 64
	for width < 31 && 1<<width < n {
		width++
	}
	lo := width / 2
	o := order{
		n:       uint32(n),
		loBits:  lo,
		loMask:  1<<lo - 1,
		loShift: 64 - lo,
		hiShift: 64 - (width - lo),
	}
	sm := randutil.NewSplitMix64(seed)
	for i := range o.mul {
		o.mul[i] = sm.Next() | 1
		o.xor[i] = uint32(sm.Next())
		if i%2 == 0 {
			o.xor[i] >>= 32 - (width - lo) // rounds 0 and 2 rewrite the high half
		} else {
			o.xor[i] &= o.loMask
		}
	}
	return o
}

// at returns x's position in the order. The shift counts are masked only
// so the compiler can prove them in range; they always are.
func (o *order) at(x uint32) uint32 {
	for {
		lo, hi := x&o.loMask, x>>(o.loBits&31)
		hi = hi ^ o.xor[0] ^ uint32(o.mul[0]*uint64(lo)>>(o.hiShift&63))
		lo = lo ^ o.xor[1] ^ uint32(o.mul[1]*uint64(hi)>>(o.loShift&63))
		hi = hi ^ o.xor[2] ^ uint32(o.mul[2]*uint64(lo)>>(o.hiShift&63))
		if x = hi<<(o.loBits&31) | lo; x < o.n {
			return x
		}
	}
}
