// Command dsulog inspects durable-tenant write-ahead logs (the
// <tenant>.dsulog files a durable dsuserve keeps under -data) without
// the server: structural summaries, full-scan verification, record
// dumps, and deterministic replay against the paper's sequential
// algorithm as an oracle.
//
// Usage:
//
//	dsulog info <log>...              header, indexes, seal state
//	dsulog verify [-strict] <log>...  full CRC scan; -strict rejects torn logs
//	dsulog cat [-edges] <log>         one line per record (frames with -edges)
//	dsulog replay [-at seq] [-labels] <log>
//	                                  oracle replay; -labels prints the
//	                                  canonical labelling as JSON
//
// verify re-reads every chunk and snapshot through the scan path — CRCs,
// frame contiguity, edge bounds — and, when the log is sealed, cross-
// checks the footer's index against the scan's, so a log that verifies
// here is a log recovery will accept. replay drives the logged batches
// through the sequential oracle in sequence order and checks every
// snapshot record against the oracle's partition at that point; its
// -labels output is byte-identical to the server's /labels endpoint for
// the same history, which is what the CI crash-recovery smoke compares.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/seqdsu"
	"repro/internal/wal"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	var err error
	switch cmd := os.Args[1]; cmd {
	case "info":
		err = runInfo(os.Args[2:], os.Stdout)
	case "verify":
		err = runVerify(os.Args[2:], os.Stdout)
	case "cat":
		err = runCat(os.Args[2:], os.Stdout)
	case "replay":
		err = runReplay(os.Args[2:], os.Stdout)
	case "-h", "-help", "--help", "help":
		usage(os.Stdout)
		return
	default:
		fmt.Fprintf(os.Stderr, "dsulog: unknown command %q\n", cmd)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsulog: %v\n", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `dsulog inspects durable-tenant write-ahead logs.

  dsulog info <log>...              header, indexes, seal state
  dsulog verify [-strict] <log>...  full CRC scan (-strict rejects torn logs)
  dsulog cat [-edges] <log>         one line per record
  dsulog replay [-at seq] [-labels] <log>
`)
}

// kindName spells a log header's structure kind (the dsu.Kind values,
// spelled here so the package stays dependency-light).
func kindName(k uint8) string {
	switch k {
	case 1:
		return "flat"
	case 2:
		return "sharded (retired; recovers as flat)"
	case 3:
		return "lockfree (retired; recovers as flat)"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// runInfo prints one structural summary per log: the recorded tenant
// configuration, the chunk and snapshot indexes' shape, and whether the
// log is sealed or torn (and how many trailing bytes recovery would
// drop).
func runInfo(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("info: no logs given")
	}
	for _, path := range fs.Args() {
		r, err := wal.OpenReader(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		m := r.Meta()
		edges := 0
		for _, ci := range r.Chunks() {
			edges += ci.Edges
		}
		fmt.Fprintf(out, "%s\n", path)
		fmt.Fprintf(out, "  tenant      %s\n", m.Tenant)
		fmt.Fprintf(out, "  config      n=%d kind=%s find=%d early=%v shards=%d seed=%#x\n",
			m.N, kindName(m.Kind), m.Find, m.Early, m.Shards, m.Seed)
		fmt.Fprintf(out, "  fingerprint %#x\n", m.Fingerprint())
		fmt.Fprintf(out, "  batches     %d (edges %d, chunks %d)\n", r.LastSeq(), edges, len(r.Chunks()))
		fmt.Fprintf(out, "  snapshots   %d", len(r.Snapshots()))
		if snaps := r.Snapshots(); len(snaps) > 0 {
			fmt.Fprintf(out, " (latest at seq %d)", snaps[len(snaps)-1].Seq)
		}
		fmt.Fprintln(out)
		if r.Clean() {
			fmt.Fprintf(out, "  state       sealed (summary + footer, seekable)\n")
		} else {
			fmt.Fprintf(out, "  state       torn: recovery keeps %d bytes, drops %d\n", r.DataEnd(), r.Discarded())
		}
	}
	return nil
}

// runVerify scans each log end to end — every chunk and snapshot record
// re-read and CRC-checked, frame sequence contiguity and edge bounds
// enforced — and cross-checks a sealed log's footer index against the
// scan. Torn logs pass by default (a torn tail is exactly what crash
// recovery handles); -strict makes them an error, the mode for logs that
// were sealed by a graceful shutdown and must prove it.
func runVerify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	strict := fs.Bool("strict", false, "fail on torn logs (unsealed tail, discarded bytes)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("verify: no logs given")
	}
	for _, path := range fs.Args() {
		if err := verifyLog(path, *strict, out); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return nil
}

func verifyLog(path string, strict bool, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// The scan path is the ground truth: it trusts no index and re-checks
	// every record.
	sc, err := wal.ScanReader(data)
	if err != nil {
		return err
	}
	edges := 0
	for _, ci := range sc.Chunks() {
		if err := sc.ReadChunk(ci, func(uint64, []core.Edge) error { return nil }); err != nil {
			return fmt.Errorf("chunk at offset %d: %w", ci.Offset, err)
		}
		edges += ci.Edges
	}
	for _, si := range sc.Snapshots() {
		if _, err := sc.ReadSnapshot(si); err != nil {
			return fmt.Errorf("snapshot at offset %d: %w", si.Offset, err)
		}
	}
	if sc.Clean() {
		// A sealed log also opens through its footer; the two paths must
		// index identically or the seek shortcut would lie.
		ft, err := wal.NewReader(data)
		if err != nil {
			return fmt.Errorf("footer path: %w", err)
		}
		if len(ft.Chunks()) != len(sc.Chunks()) || len(ft.Snapshots()) != len(sc.Snapshots()) ||
			ft.LastSeq() != sc.LastSeq() {
			return fmt.Errorf("footer index disagrees with scan: %d/%d chunks, %d/%d snapshots",
				len(ft.Chunks()), len(sc.Chunks()), len(ft.Snapshots()), len(sc.Snapshots()))
		}
		for i, ci := range ft.Chunks() {
			if ci != sc.Chunks()[i] {
				return fmt.Errorf("footer chunk %d disagrees with scan: %+v vs %+v", i, ci, sc.Chunks()[i])
			}
		}
		for i, si := range ft.Snapshots() {
			if si != sc.Snapshots()[i] {
				return fmt.Errorf("footer snapshot %d disagrees with scan: %+v vs %+v", i, si, sc.Snapshots()[i])
			}
		}
	} else if strict {
		return fmt.Errorf("torn log: %d trailing bytes would be discarded on recovery", sc.Discarded())
	}
	state := "sealed"
	if !sc.Clean() {
		state = fmt.Sprintf("torn, %d bytes discarded", sc.Discarded())
	}
	fmt.Fprintf(out, "%s: ok (%d batches, %d edges, %d chunks, %d snapshots, %s)\n",
		path, sc.LastSeq(), edges, len(sc.Chunks()), len(sc.Snapshots()), state)
	return nil
}

// runCat prints one line per indexed record in file order; -edges also
// prints every frame's edge list.
func runCat(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cat", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	withEdges := fs.Bool("edges", false, "print each batch's edges")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("cat: want exactly one log")
	}
	path := fs.Arg(0)
	r, err := wal.OpenReader(path)
	if err != nil {
		return err
	}
	m := r.Meta()
	fmt.Fprintf(out, "header  tenant=%s n=%d kind=%s seed=%#x\n", m.Tenant, m.N, kindName(m.Kind), m.Seed)
	snaps := r.Snapshots()
	si := 0
	for _, ci := range r.Chunks() {
		fmt.Fprintf(out, "chunk   offset=%d seq=%d..%d edges=%d\n", ci.Offset, ci.FirstSeq, ci.LastSeq, ci.Edges)
		if *withEdges {
			err := r.Replay(ci.FirstSeq-1, ci.LastSeq, func(seq uint64, edges []core.Edge) error {
				fmt.Fprintf(out, "  batch seq=%d count=%d", seq, len(edges))
				for _, e := range edges {
					fmt.Fprintf(out, " (%d,%d)", e.X, e.Y)
				}
				fmt.Fprintln(out)
				return nil
			})
			if err != nil {
				return err
			}
		}
		// Snapshots interleave with chunks in sequence order.
		for si < len(snaps) && snaps[si].Seq <= ci.LastSeq {
			fmt.Fprintf(out, "snapshot offset=%d seq=%d\n", snaps[si].Offset, snaps[si].Seq)
			si++
		}
	}
	for ; si < len(snaps); si++ {
		fmt.Fprintf(out, "snapshot offset=%d seq=%d\n", snaps[si].Offset, snaps[si].Seq)
	}
	if r.Clean() {
		fmt.Fprintf(out, "footer  sealed dataEnd=%d\n", r.DataEnd())
	} else {
		fmt.Fprintf(out, "torn    dataEnd=%d discarded=%d\n", r.DataEnd(), r.Discarded())
	}
	return nil
}

// runReplay replays the log through the sequential oracle — the paper's
// algorithm, one unite at a time, under the seed the header records —
// and validates every snapshot record against the oracle's partition at
// that sequence. It is the independent check that the log's history is
// self-consistent: chunked batches and flattened snapshots describe one
// partition evolution. -at stops after the given batch; -labels prints
// the final canonical labelling as JSON (matching the server's /labels
// output for the same history byte for byte).
func runReplay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	at := fs.Uint64("at", 0, "replay up to this batch (0 = whole log)")
	labels := fs.Bool("labels", false, "print the resulting canonical labels as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("replay: want exactly one log")
	}
	r, err := wal.OpenReader(fs.Arg(0))
	if err != nil {
		return err
	}
	m := r.Meta()
	upTo := r.LastSeq()
	if *at > 0 {
		if *at > upTo {
			return fmt.Errorf("replay: log ends at sequence %d, cannot replay to %d", upTo, *at)
		}
		upTo = *at
	}
	// The oracle replays under the logged seed, so random linking makes
	// the same coin flips the tenant's own structure made — and the
	// canonical labelling is seed-independent anyway, which is what makes
	// this an oracle for any backend kind.
	oracle := seqdsu.New(m.N, seqdsu.LinkRandom, seqdsu.CompactSplitting, m.Seed)
	snaps := r.Snapshots()
	si := 0
	var edges int64
	checkSnaps := func(seq uint64) error {
		for si < len(snaps) && snaps[si].Seq <= seq {
			if snaps[si].Seq == seq {
				sr, err := r.ReadSnapshot(snaps[si])
				if err != nil {
					return err
				}
				want := oracle.CanonicalLabels()
				got := seqdsu.CanonicalizeParents(sr.Parents)
				for i := range got {
					if got[i] != want[i] {
						return fmt.Errorf("snapshot at seq %d disagrees with oracle replay at element %d", seq, i)
					}
				}
				if !*labels {
					// -labels output must stay byte-identical to /labels:
					// snapshots are still validated, just silently.
					fmt.Fprintf(out, "snapshot at seq %d: matches oracle\n", seq)
				}
			}
			si++
		}
		return nil
	}
	if err := checkSnaps(0); err != nil { // a snapshot of the empty partition
		return err
	}
	err = r.Replay(0, upTo, func(seq uint64, batch []core.Edge) error {
		for _, e := range batch {
			oracle.Unite(e.X, e.Y)
		}
		edges += int64(len(batch))
		return checkSnaps(seq)
	})
	if err != nil {
		return err
	}
	if *labels {
		// json.Encoder output (one line, trailing newline) matches the
		// server's /labels encoding exactly — CI diffs the two.
		return json.NewEncoder(out).Encode(oracle.CanonicalLabels())
	}
	fmt.Fprintf(out, "replayed %d batches (%d edges): %d sets\n", upTo, edges, oracle.Sets())
	return nil
}
