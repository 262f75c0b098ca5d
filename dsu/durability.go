package dsu

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/wal"
)

// Durable tenants: a Registry built WithDurability gives every universe
// it creates a per-tenant write-ahead log (internal/wal), attached to its
// structure. Every mutation on the structure — batch calls, streams,
// remote RPCs and point Unites, through any handle — takes the batch
// funnel, which appends it to the log and makes it durable (per the sync
// policy) before it is applied, so a batch any caller saw acknowledged is
// a batch recovery will replay; queries are never logged. Create on an
// existing log recovers the tenant first: latest valid snapshot, then the
// tail of batches after it, replayed through the same funnel. Because the
// partition of a union-find forest is determined by the edge sequence
// alone — unites are order-independent and idempotent at the partition
// level — snapshot + tail replay reproduces exactly the partition the
// log's full history would.

// ErrNotDurable reports a durability operation on a universe or registry
// without persistence configured.
var ErrNotDurable = errors.New("dsu: durability is not configured (WithDurability)")

// logSuffix names tenant log files: <dir>/<tenant>.dsulog.
const logSuffix = ".dsulog"

// SyncPolicy selects when a durable tenant's Append reaches its
// durability point — the public face of the log's policy knob.
type SyncPolicy int

const (
	// SyncGroup (the default) fsyncs once per coalesced chunk of
	// concurrent batches — group commit.
	SyncGroup SyncPolicy = iota
	// SyncNone leaves fsync to snapshots, close, and the OS.
	SyncNone
	// SyncAlways fsyncs every batch before it is acknowledged.
	SyncAlways
)

// String names the policy as ParseSyncPolicy spells it.
func (p SyncPolicy) String() string { return p.wal().String() }

func (p SyncPolicy) wal() wal.SyncPolicy {
	switch p {
	case SyncNone:
		return wal.SyncNone
	case SyncAlways:
		return wal.SyncAlways
	default:
		return wal.SyncGroup
	}
}

// ParseSyncPolicy maps a flag-friendly name to its SyncPolicy,
// case-insensitively: "group" (or "", "default"), "none", "always" (or
// "batch"). Each policy's String() round-trips.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "", "default", "group":
		return SyncGroup, nil
	case "none":
		return SyncNone, nil
	case "always", "batch":
		return SyncAlways, nil
	default:
		return 0, fmt.Errorf("dsu: unknown sync policy %q", s)
	}
}

// durabilityConfig is the registry-level persistence configuration.
type durabilityConfig struct {
	dir             string
	sync            SyncPolicy
	checkpointEvery int64
}

// DurabilityOption tunes WithDurability.
type DurabilityOption interface {
	applyDurability(*durabilityConfig)
}

type durabilityOptionFunc func(*durabilityConfig)

func (f durabilityOptionFunc) applyDurability(c *durabilityConfig) { f(c) }

// WithSyncPolicy selects the append durability policy (default
// SyncGroup).
func WithSyncPolicy(p SyncPolicy) DurabilityOption {
	return durabilityOptionFunc(func(c *durabilityConfig) { c.sync = p })
}

// WithCheckpointEvery asks each tenant to snapshot automatically after
// every k logged edges (0, the default, checkpoints only on demand via
// Universe.Checkpoint). Snapshots bound recovery time: recovery replays
// only the tail past the latest snapshot.
func WithCheckpointEvery(k int64) DurabilityOption {
	return durabilityOptionFunc(func(c *durabilityConfig) { c.checkpointEvery = k })
}

// WithDurability makes every universe the registry creates durable:
// tenant logs live in dir (created on first use) as <tenant>.dsulog,
// and Create on a tenant whose log exists recovers it — latest valid
// snapshot plus replay of the tail — before the universe is published.
// Pair with Registry.Close to seal the logs on shutdown.
func WithDurability(dir string, opts ...DurabilityOption) RegistryOption {
	cfg := &durabilityConfig{dir: dir}
	for _, o := range opts {
		o.applyDurability(cfg)
	}
	return registryOptionFunc(func(r *Registry) { r.dur = cfg })
}

// durableState is a durable structure's log writer, the kind byte every
// snapshot echoes, and the mutex that makes "one checkpoint at a time"
// true across the on-demand and automatic triggers.
type durableState struct {
	w    *wal.Writer
	kind uint8
	mu   sync.Mutex
}

// checkpoint quiesces the structure and snapshots it into the log:
// in-flight mutation batches drain, new ones hold at the gate, and the
// snapshot written covers exactly the batches numbered up to the log's
// current sequence. It returns once the snapshot is durable. With wait
// false it is the funnel's post-batch trigger, which skips out when a
// checkpoint is already running (many batches cross the threshold
// together; one snapshot serves them all) and whose failures surface at
// the next append, since a failed snapshot write poisons the log.
//
// The record streams straight from the forest's parent words, with no
// copy, while the gate is held. Query batches do not take the gate, so
// their finds keep splitting paths during the read. That is safe: a find
// only swings a parent to an ancestor in the same tree, and no link can
// land while the gate is held, so every word the record reads, before or
// after any such swing, describes the same partition, and the record is
// a per-word-atomic forest of it.
func (d *DSU) checkpoint(wait bool) error {
	if wait {
		d.dur.mu.Lock()
	} else if !d.dur.mu.TryLock() {
		return nil
	}
	defer d.dur.mu.Unlock()
	d.gate.Lock()
	defer d.gate.Unlock()
	_, err := d.dur.w.WriteSnapshotFrom(d.dur.kind, d.c.PutParents)
	return err
}

// ValidTenantName reports whether name is usable as a tenant name on the
// network front end and as a durable tenant's log filename: 1 to 128
// characters from [a-zA-Z0-9._-]. Registry.Create enforces it for durable
// registries; the front end enforces it for every request path and spec.
func ValidTenantName(name string) bool {
	if name == "" || len(name) > 128 {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

func (r *Registry) logPath(tenant string) string {
	return filepath.Join(r.dur.dir, tenant+logSuffix)
}

// durableMeta phrases a tenant's resolved configuration as the log
// header's Meta. New logs carry kind byte 1 (KindFlat), whatever kind
// name the tenant was created under.
func durableMeta(name string, n int, cfg config) wal.Meta {
	return wal.Meta{
		Tenant: name,
		N:      n,
		Kind:   uint8(KindFlat),
		Find:   uint8(cfg.find),
		Early:  cfg.early,
		Seed:   cfg.seed,
	}
}

// retiredKind reports whether a log header's kind byte belongs to a
// retired kind: 2, the sharded kind, or 3, the lock-free kind. What their
// logs make durable is the partition — chunks of edges, and snapshots of
// the forest — so such a log recovers into the one structure and keeps
// appending under its own header.
func retiredKind(k uint8) bool { return k == 2 || k == uint8(KindLockFree) }

// kindOfLog maps a log header's kind byte to the kind that serves it;
// any other byte comes back as itself, which Create refuses.
func kindOfLog(m wal.Meta) Kind {
	if retiredKind(m.Kind) {
		return KindFlat
	}
	return Kind(m.Kind)
}

// adoptRetiredHeader returns the header of the log at path when a
// retired kind wrote it under want's configuration otherwise, and want
// itself in every other case. A tenant reopening such a log must present
// the log's own header, whose fingerprint folds in the kind byte and the
// shard count, or the log would refuse it.
func adoptRetiredHeader(path string, want wal.Meta) wal.Meta {
	got, err := wal.ReadMeta(path)
	if err != nil || !retiredKind(got.Kind) {
		return want
	}
	if got.Tenant != want.Tenant || got.N != want.N || got.Find != want.Find || got.Early != want.Early || got.Seed != want.Seed {
		return want
	}
	return got
}

// optionsFromMeta reconstructs the option list a log's header describes
// — how RestoreTenants and Rewind rebuild a structure that replays the
// log under the configuration that wrote it.
func optionsFromMeta(m wal.Meta) []Option {
	opts := []Option{WithKind(kindOfLog(m)), WithSeed(m.Seed), WithFind(FindStrategy(m.Find))}
	if m.Early {
		opts = append(opts, WithEarlyTermination())
	}
	return opts
}

// restoreBlock is how many snapshot-derived edges restore batches at a
// time.
const restoreBlock = 1 << 16

// restoreBackend brings a fresh structure to the log's state at
// sequence upTo: apply the latest snapshot not past upTo, replay the
// tail (snapshot, upTo], prime the applied sequence. Runs before the log
// is attached, so nothing here is re-logged, and before instrumentation,
// so recovery work never pollutes tenant metrics.
func restoreBackend(d *DSU, rd *wal.Reader, upTo uint64) error {
	var after uint64
	if si, ok := rd.LatestSnapshotAt(upTo); ok {
		sr, err := rd.ReadSnapshot(si)
		if err != nil {
			return err
		}
		if err := applyParents(d, sr.Parents); err != nil {
			return err
		}
		after = si.Seq
	}
	err := rd.Replay(after, upTo, func(_ uint64, edges []Edge) error {
		_, _, err := d.batch(edges, false, BatchOptions{}, nil, false)
		return err
	})
	if err != nil {
		return err
	}
	d.applied.Store(upTo)
	return nil
}

// applyParents merges a snapshot's flattened forest into the structure:
// every non-root parent edge (i, parents[i]), in blocks. The snapshot
// records a partition, not a forest shape, and unites reproduce exactly
// that partition.
func applyParents(d *DSU, parents []uint32) error {
	buf := make([]Edge, 0, restoreBlock)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		_, _, err := d.batch(buf, false, BatchOptions{}, nil, false)
		buf = buf[:0]
		return err
	}
	for i, p := range parents {
		if uint32(i) == p {
			continue
		}
		buf = append(buf, Edge{X: uint32(i), Y: p})
		if len(buf) == restoreBlock {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// openDurable opens (or recovers) the tenant's log and attaches it to
// the universe. Called by Create under the registry lock, before the
// universe is instrumented or published; on error the universe is never
// registered.
func (r *Registry) openDurable(u *Universe, n int, cfg config) error {
	if !ValidTenantName(u.name) {
		return fmt.Errorf("dsu: tenant name %q is not usable as a log filename (want [a-zA-Z0-9._-], max 128)", u.name)
	}
	if err := os.MkdirAll(r.dur.dir, 0o755); err != nil {
		return err
	}
	path := r.logPath(u.name)
	meta := adoptRetiredHeader(path, durableMeta(u.name, n, cfg))
	w, rd, err := wal.Open(path, meta, wal.Options{
		Sync:            r.dur.sync.wal(),
		CheckpointEvery: r.dur.checkpointEvery,
	})
	if err != nil {
		return err
	}
	if rd != nil {
		if err := restoreBackend(u.b, rd, rd.LastSeq()); err != nil {
			w.Close()
			return fmt.Errorf("dsu: recovering tenant %q: %w", u.name, err)
		}
	}
	u.b.dur = &durableState{w: w, kind: meta.Kind}
	return nil
}

// Durable reports whether the universe persists its mutations to a
// write-ahead log.
func (u *Universe) Durable() bool { return u.b.dur != nil }

// Seq returns the universe's applied-batch sequence number: 0 before
// any mutation batch, and on a durable universe the durable log
// position (primed by recovery, advanced by every logged batch).
// Operators compare it across replicas; TenantInfo and the
// dsu_tenant_seq gauge surface it.
func (u *Universe) Seq() uint64 { return u.b.applied.Load() }

// Checkpoint snapshots the universe into its log, now. It drains
// in-flight mutation batches first (holding new ones briefly at the
// structure's gate), so the snapshot is taken at true quiescence — never
// a torn view of a batch mid-application — and returns once the snapshot
// is durable. Returns ErrNotDurable without persistence.
func (u *Universe) Checkpoint() error {
	if u.b.dur == nil {
		return ErrNotDurable
	}
	return u.b.checkpoint(true)
}

// Close seals every durable tenant's log (summary, footer, fsync) and
// is the graceful-shutdown counterpart of WithDurability: a sealed log
// reopens through its index with no scan. Idempotent; tenants remain
// usable for queries afterwards, but further mutations fail. A registry
// without durability has nothing to close and returns nil.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var errs []error
	for name, u := range r.m {
		if u.b.dur != nil {
			if err := u.b.dur.w.Close(); err != nil {
				errs = append(errs, fmt.Errorf("dsu: sealing tenant %q: %w", name, err))
			}
		}
	}
	return errors.Join(errs...)
}

// RestoreTenants scans the durability directory and re-creates every
// tenant whose log is present but not yet registered, under the exact
// configuration its log header records. It returns the restored names,
// sorted. Servers call it once at startup, before listening — recovery
// finishes before the first request can observe a tenant.
func (r *Registry) RestoreTenants() ([]string, error) {
	if r.dur == nil {
		return nil, ErrNotDurable
	}
	entries, err := os.ReadDir(r.dur.dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil // nothing persisted yet
		}
		return nil, err
	}
	var restored []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), logSuffix) {
			continue
		}
		meta, err := wal.ReadMeta(filepath.Join(r.dur.dir, e.Name()))
		if err != nil {
			return restored, fmt.Errorf("dsu: restoring %s: %w", e.Name(), err)
		}
		if meta.Tenant != strings.TrimSuffix(e.Name(), logSuffix) {
			return restored, fmt.Errorf("dsu: log %s records tenant %q (renamed file?)", e.Name(), meta.Tenant)
		}
		if _, ok := r.Get(meta.Tenant); ok {
			continue
		}
		if _, err := r.Create(meta.Tenant, meta.N, optionsFromMeta(meta)...); err != nil {
			return restored, fmt.Errorf("dsu: restoring tenant %q: %w", meta.Tenant, err)
		}
		restored = append(restored, meta.Tenant)
	}
	sort.Strings(restored)
	return restored, nil
}

// LoggedSeed returns the seed the header of the tenant's log records,
// reporting whether the registry is durable and holds a readable log
// under that name: a dropped tenant's log stays on disk, and a Create
// under its name recovers it only under the configuration it records.
func (r *Registry) LoggedSeed(tenant string) (uint64, bool) {
	if r.dur == nil || !ValidTenantName(tenant) {
		return 0, false
	}
	m, err := wal.ReadMeta(r.logPath(tenant))
	if err != nil {
		return 0, false
	}
	return m.Seed, true
}

// Rewind materializes the tenant's state as of sequence seq — a
// point-in-time read of its history. The returned universe is a fresh,
// unregistered, non-durable structure named "<tenant>@<seq>", built
// under the log's recorded configuration and fed the latest snapshot at
// or before seq plus the replayed tail (snapshot, seq]; its Seq()
// reports seq. The tenant's live universe and log are untouched — the
// log is read from its on-disk state, so batches acknowledged after the
// last fsync-equivalent point may not be visible until the writer
// flushes (rewind of a live SyncNone tenant sees only what the OS has).
// seq 0 is the empty partition; seq past the log's end is an error.
func (r *Registry) Rewind(tenant string, seq uint64) (*Universe, error) {
	if r.dur == nil {
		return nil, ErrNotDurable
	}
	if !ValidTenantName(tenant) {
		return nil, fmt.Errorf("dsu: invalid tenant name %q", tenant)
	}
	rd, err := wal.OpenReader(r.logPath(tenant))
	if err != nil {
		return nil, err
	}
	if seq > rd.LastSeq() {
		return nil, fmt.Errorf("dsu: tenant %q log ends at sequence %d, cannot rewind to %d", tenant, rd.LastSeq(), seq)
	}
	m := rd.Meta()
	opts := optionsFromMeta(m)
	if _, err := checkConfig(m.N, opts); err != nil {
		return nil, fmt.Errorf("dsu: rewinding tenant %q: %w", tenant, err)
	}
	d := New(m.N, opts...)
	if err := restoreBackend(d, rd, seq); err != nil {
		return nil, fmt.Errorf("dsu: rewinding tenant %q to %d: %w", tenant, seq, err)
	}
	return NewUniverse(fmt.Sprintf("%s@%d", tenant, seq), d), nil
}
