package main

import (
	"errors"
	"fmt"

	"repro/dsu"
	"repro/internal/seqdsu"
)

// mismatchError is an oracle rejection: the served system answered
// something the sequential reference says it must not. It is never a
// metric; the run prints correct=false and exits non-zero.
type mismatchError struct{ msg string }

func (e *mismatchError) Error() string { return e.msg }

func mismatch(format string, args ...any) error {
	return &mismatchError{fmt.Sprintf(format, args...)}
}

func asMismatch(err error, target **mismatchError) bool { return errors.As(err, target) }

// oracle is the sequential reference partition.
type oracle struct{ d *seqdsu.DSU }

func newOracle(n int) *oracle {
	return &oracle{seqdsu.New(n, seqdsu.LinkRank, seqdsu.CompactCompression, 0)}
}

func (o *oracle) unite(edges []dsu.Edge) {
	for _, e := range edges {
		o.d.Unite(e.X, e.Y)
	}
}

func (o *oracle) sets() int { return o.d.Sets() }

func (o *oracle) labels() []uint32 { return o.d.CanonicalLabels() }

// checkLabels compares a served canonical labelling with the oracle's.
func checkLabels(what string, got, want []uint32) error {
	if len(got) != len(want) {
		return mismatch("%s: %d labels served, oracle has %d elements", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return mismatch("%s: element %d labelled %d, oracle says %d", what, i, got[i], want[i])
		}
	}
	return nil
}

// checkMerged compares the sum of reply Merged counts with the oracle's
// drop in set count; both backends in use count merges exactly.
func checkMerged(what string, got, want int64) error {
	if got != want {
		return mismatch("%s: replies report %d merges, oracle merged %d", what, got, want)
	}
	return nil
}

// bits packs query answers, one bit per pair.
type bits []uint64

func packAnswers(answers []bool) bits {
	b := make(bits, (len(answers)+63)/64)
	for i, a := range answers {
		if a {
			b[i/64] |= 1 << (i % 64)
		}
	}
	return b
}

func (b bits) get(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// checkExact verifies answers to pairs asked of a quiescent tenant:
// each must equal the oracle's connectivity.
func checkExact(what string, pairs []dsu.Edge, answers bits, labels []uint32) error {
	for i, p := range pairs {
		if want := labels[p.X] == labels[p.Y]; answers.get(i) != want {
			return mismatch("%s: pair %d (%d,%d) answered %v, oracle says %v", what, i, p.X, p.Y, answers.get(i), want)
		}
	}
	return nil
}

// checkBounded verifies answers to pairs asked while unites were in
// flight: a pair connected before the window must answer true, and a pair
// still disconnected in the final partition must answer false.
func checkBounded(what string, pairs []dsu.Edge, answers bits, before, after []uint32) error {
	for i, p := range pairs {
		got := answers.get(i)
		if before[p.X] == before[p.Y] && !got {
			return mismatch("%s: pair %d (%d,%d) answered false but was connected before the window", what, i, p.X, p.Y)
		}
		if after[p.X] != after[p.Y] && got {
			return mismatch("%s: pair %d (%d,%d) answered true but is disconnected in the final partition", what, i, p.X, p.Y)
		}
	}
	return nil
}
