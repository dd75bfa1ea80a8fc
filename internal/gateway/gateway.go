// Package gateway turns SEC archives from library objects owned by one
// process into a served, multi-user resource: one long-running Gateway
// owns many archives against a single node cluster, opens or creates them
// on demand, serializes writers per archive behind a bounded admission
// queue (typed store.ErrBusy/store.ErrConflict rejections), and shares
// each archive's decoded-version read cache across every client — so a
// version one client committed is served to all others from memory, and
// cache invalidation on commit is coherent across writers by
// construction (there is exactly one core.Archive per name).
//
// The Gateway implements transport.ArchiveBackend, so it can be served
// over TCP (transport.NewServer(nil, transport.WithArchiveBackend(gw)),
// see cmd/secgw) or embedded in-process behind the same interface
// (secclient.Embed). Manifest durability follows the crash-safe ordering
// the CLI established: mutate the chain, persist the manifest under the
// root and replicate the same bytes to the cluster, and only then reclaim
// superseded codewords (core defers the reclaim while the replication
// misses its write quorum).
package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/transport"
)

// ErrClosed rejects operations on a gateway that has been closed.
var ErrClosed = errors.New("gateway: gateway closed")

// errNoManifestDir marks a gateway with no manifest persistence
// configured; archives then live in memory and on the cluster replicas
// only.
var errNoManifestDir = errors.New("gateway: no manifest root configured")

// DefaultMaxQueuedWriters bounds the per-archive commit admission queue
// (active writer plus waiters) when Config.MaxQueuedWriters is zero.
const DefaultMaxQueuedWriters = 8

// Config configures a Gateway.
type Config struct {
	// Cluster is the storage fleet every archive stripes over. Required.
	Cluster *store.Cluster
	// Root is the directory archive manifests are persisted under, one
	// <name>.json per archive. Empty means no local persistence: archives
	// are reopened from their cluster-replicated manifests instead.
	Root string
	// ManifestPath overrides the manifest location per archive. It exists
	// so an embedded gateway can pin an archive to an exact file (the
	// CLI's -manifest flag); most callers should set Root instead.
	ManifestPath func(name string) string
	// MaxQueuedWriters bounds each archive's commit admission queue: the
	// writer holding the archive plus the writers waiting for it. A
	// commit arriving with the queue full is rejected with a typed
	// store.ErrBusy error instead of waiting unboundedly. Zero means
	// DefaultMaxQueuedWriters.
	MaxQueuedWriters int
}

// Stats is a snapshot of gateway-level counters.
type Stats struct {
	// ArchivesOpen is the number of archives currently resident.
	ArchivesOpen int
	// Commits and Retrieves count successful data-path operations.
	Commits, Retrieves uint64
	// Logs, Infos, Compactions, Scrubs and Repairs count the successful
	// metadata and maintenance operations, so a load profile's op mix is
	// visible end to end.
	Logs, Infos, Compactions, Scrubs, Repairs uint64
	// BusyRejections counts commits refused because an archive's writer
	// queue was full; Conflicts counts failed optimistic preconditions.
	BusyRejections, Conflicts uint64
	// ReplicationFailures counts manifest saves whose cluster replication
	// missed the write quorum (the operation itself still succeeded; the
	// archive keeps superseded codewords until a later save reaches it).
	ReplicationFailures uint64
	// ManifestEncodes sums core.Archive.ManifestEncodes over the resident
	// archives: every manifest save (create, attach, commit, compaction,
	// close) encodes once.
	ManifestEncodes uint64
}

// archiveState is one resident archive: the shared core.Archive every
// client of this name uses (which is what makes the read cache shared and
// coherent), plus the writer-serialization gate.
type archiveState struct {
	name string
	// ready is closed once the load attempt finished; err then reports
	// its outcome. Failed loads are evicted from the map, so a later
	// open retries.
	ready   chan struct{}
	err     error
	archive *core.Archive
	// slot is the single-writer gate; queued counts admitted writers
	// (holder plus waiters), bounded by MaxQueuedWriters.
	slot   chan struct{}
	qmu    sync.Mutex
	queued int
}

func newArchiveState(name string) *archiveState {
	return &archiveState{
		name:  name,
		ready: make(chan struct{}),
		slot:  make(chan struct{}, 1),
	}
}

// acquire admits a writer, waiting for the slot unless the queue is full
// (typed busy rejection) or ctx ends first.
func (st *archiveState) acquire(ctx context.Context, max int) error {
	st.qmu.Lock()
	if st.queued >= max {
		st.qmu.Unlock()
		return fmt.Errorf("gateway: archive %q writer queue full (%d writers): %w", st.name, max, store.ErrBusy)
	}
	st.queued++
	st.qmu.Unlock()
	select {
	case st.slot <- struct{}{}:
		return nil
	case <-ctx.Done():
		st.qmu.Lock()
		st.queued--
		st.qmu.Unlock()
		return fmt.Errorf("gateway: waiting for archive %q writer slot: %w", st.name, context.Cause(ctx))
	}
}

func (st *archiveState) release() {
	<-st.slot
	st.qmu.Lock()
	st.queued--
	st.qmu.Unlock()
}

func (st *archiveState) queuedWriters() int {
	st.qmu.Lock()
	defer st.qmu.Unlock()
	return st.queued
}

// Gateway serves many archives as one multi-user resource. It implements
// transport.ArchiveBackend. Methods are safe for concurrent use.
type Gateway struct {
	cfg Config

	mu       sync.Mutex
	archives map[string]*archiveState
	closed   bool

	commits     atomic.Uint64
	retrieves   atomic.Uint64
	logs        atomic.Uint64
	infos       atomic.Uint64
	compactions atomic.Uint64
	scrubs      atomic.Uint64
	repairs     atomic.Uint64
	busy        atomic.Uint64
	conflicts   atomic.Uint64
	replFails   atomic.Uint64
}

// New returns a gateway over the given cluster.
func New(cfg Config) (*Gateway, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("gateway: config needs a cluster")
	}
	if cfg.MaxQueuedWriters <= 0 {
		cfg.MaxQueuedWriters = DefaultMaxQueuedWriters
	}
	if cfg.Root != "" {
		if err := os.MkdirAll(cfg.Root, 0o755); err != nil {
			return nil, fmt.Errorf("gateway: creating manifest root: %w", err)
		}
	}
	return &Gateway{cfg: cfg, archives: make(map[string]*archiveState)}, nil
}

// Cluster returns the storage fleet behind the gateway (for wire-byte
// accounting via store.Cluster.WireStats).
func (g *Gateway) Cluster() *store.Cluster { return g.cfg.Cluster }

// Stats returns a snapshot of the gateway counters.
func (g *Gateway) Stats() Stats {
	g.mu.Lock()
	open := len(g.archives)
	var encodes uint64
	for _, st := range g.archives {
		select {
		case <-st.ready: // failed loads leave the map before ready closes
			encodes += st.archive.ManifestEncodes()
		default:
		}
	}
	g.mu.Unlock()
	return Stats{
		ArchivesOpen:   open,
		Commits:        g.commits.Load(),
		Retrieves:      g.retrieves.Load(),
		Logs:           g.logs.Load(),
		Infos:          g.infos.Load(),
		Compactions:    g.compactions.Load(),
		Scrubs:         g.scrubs.Load(),
		Repairs:        g.repairs.Load(),
		BusyRejections: g.busy.Load(),
		Conflicts:      g.conflicts.Load(),

		ReplicationFailures: g.replFails.Load(),
		ManifestEncodes:     encodes,
	}
}

// validName guards the default Root-relative manifest layout (and the
// shard object namespace) against path-shaped archive names.
func validName(name string) error {
	if name == "" || len(name) > 255 {
		return fmt.Errorf("gateway: invalid archive name %q", name)
	}
	if strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
		return fmt.Errorf("gateway: invalid archive name %q (path separators and leading dots are reserved)", name)
	}
	return nil
}

// manifestPath returns where the named archive's manifest persists, or
// an errNoManifestDir-wrapping error when persistence is off.
func (g *Gateway) manifestPath(name string) (string, error) {
	if g.cfg.ManifestPath != nil {
		return g.cfg.ManifestPath(name), nil
	}
	if g.cfg.Root == "" {
		return "", fmt.Errorf("gateway: archive %q: %w", name, errNoManifestDir)
	}
	return filepath.Join(g.cfg.Root, name+".json"), nil
}

// open returns the resident state for name, loading it on first use: from
// the persisted manifest if present, else from the cluster-replicated
// manifest (re-persisting it locally, which is how `attach` recovers a
// lost manifest file). Concurrent opens of the same name share one load.
func (g *Gateway) open(ctx context.Context, name string) (*archiveState, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, ErrClosed
	}
	st, ok := g.archives[name]
	if !ok {
		st = newArchiveState(name)
		g.archives[name] = st
	}
	g.mu.Unlock()
	if !ok {
		st.archive, st.err = g.load(ctx, name)
		if st.err != nil {
			g.mu.Lock()
			delete(g.archives, name)
			g.mu.Unlock()
		}
		close(st.ready)
	}
	select {
	case <-st.ready:
	case <-ctx.Done():
		return nil, fmt.Errorf("gateway: opening archive %q: %w", name, context.Cause(ctx))
	}
	if st.err != nil {
		return nil, st.err
	}
	return st, nil
}

// load performs the actual open-by-name.
func (g *Gateway) load(ctx context.Context, name string) (*core.Archive, error) {
	path, pathErr := g.manifestPath(name)
	if pathErr == nil {
		f, err := os.Open(path)
		if err == nil {
			defer f.Close()
			archive, err := core.Load(f, g.cfg.Cluster)
			if err != nil {
				return nil, fmt.Errorf("gateway: opening manifest %s: %w", path, err)
			}
			if archive.Name() != name {
				return nil, fmt.Errorf("gateway: manifest %s names archive %q, not %q: %w", path, archive.Name(), name, store.ErrConflict)
			}
			return archive, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("gateway: reading manifest %s: %w", path, err)
		}
	}
	// No local manifest: fall back to the cluster-replicated copy, then
	// persist it so the next open is local.
	archive, err := core.LoadFromClusterContext(ctx, name, g.cfg.Cluster)
	if err != nil {
		return nil, fmt.Errorf("gateway: unknown archive %q: %w (cluster manifest: %w)", name, store.ErrNotFound, err)
	}
	if pathErr == nil {
		if err := saveLocal(archive, path); err != nil {
			return nil, err
		}
	}
	return archive, nil
}

// saveLocal encodes an archive's manifest and persists it to path.
func saveLocal(archive *core.Archive, path string) error {
	var buf bytes.Buffer
	if err := archive.Save(&buf); err != nil {
		return err
	}
	return writeManifest(path, buf.Bytes())
}

// writeManifest atomically replaces the file at path with data.
func writeManifest(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".manifest-*")
	if err != nil {
		return fmt.Errorf("gateway: persisting manifest: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("gateway: persisting manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("gateway: persisting manifest: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("gateway: persisting manifest: %w", err)
	}
	return nil
}

// persist encodes the archive's manifest once and writes those bytes
// everywhere the manifest lives: to its configured local location (a
// gateway without one relies on the cluster replicas), then to every
// cluster node. A local failure is returned and skips the replication; a
// replication that misses the write quorum is counted in
// Stats.ReplicationFailures, and core then keeps superseded codewords
// queued until a later save reaches the quorum.
func (g *Gateway) persist(ctx context.Context, st *archiveState) error {
	var buf bytes.Buffer
	if err := st.archive.Save(&buf); err != nil {
		return err
	}
	if path, err := g.manifestPath(st.name); err == nil {
		if err := writeManifest(path, buf.Bytes()); err != nil {
			return err
		}
	}
	if err := st.archive.ReplicateManifest(ctx, buf.Bytes()); err != nil {
		g.replFails.Add(1)
	}
	return nil
}

// Create builds a fresh archive under the gateway and persists its
// manifest. An archive that already exists (resident, on disk, or being
// created concurrently) is a typed store.ErrConflict rejection.
func (g *Gateway) Create(ctx context.Context, name string, spec transport.ArchiveSpec) (transport.ArchiveInfo, error) {
	if err := validName(name); err != nil {
		return transport.ArchiveInfo{}, err
	}
	st, err := func() (*archiveState, error) {
		g.mu.Lock()
		defer g.mu.Unlock()
		if g.closed {
			return nil, ErrClosed
		}
		if _, ok := g.archives[name]; ok {
			return nil, fmt.Errorf("gateway: archive %q already exists: %w", name, store.ErrConflict)
		}
		path, pathErr := g.manifestPath(name)
		if pathErr == nil {
			if _, err := os.Stat(path); err == nil {
				return nil, fmt.Errorf("gateway: manifest %s already exists: %w", path, store.ErrConflict)
			}
		}
		archive, err := core.Open(spec.Manifest(name), g.cfg.Cluster)
		if err != nil {
			return nil, err
		}
		if pathErr == nil {
			if err := saveLocal(archive, path); err != nil {
				return nil, err
			}
		}
		st := newArchiveState(name)
		st.archive = archive
		close(st.ready)
		g.archives[name] = st
		return st, nil
	}()
	if err != nil {
		return transport.ArchiveInfo{}, err
	}
	return g.info(ctx, st, false), nil
}

// Commit appends object as the archive's next version, serialized against
// every other writer of the same archive. expect >= 0 demands the archive
// currently hold exactly expect versions (optimistic concurrency); a
// stale expectation is a typed store.ErrConflict rejection. The manifest
// is persisted before superseded codewords are reclaimed, in the same
// crash-safe order the CLI uses.
func (g *Gateway) Commit(ctx context.Context, name string, expect int, object []byte) (core.CommitInfo, error) {
	st, err := g.open(ctx, name)
	if err != nil {
		return core.CommitInfo{}, err
	}
	if err := st.acquire(ctx, g.cfg.MaxQueuedWriters); err != nil {
		if errors.Is(err, store.ErrBusy) {
			g.busy.Add(1)
		}
		return core.CommitInfo{}, err
	}
	defer st.release()
	if expect >= 0 {
		if v := st.archive.Versions(); v != expect {
			g.conflicts.Add(1)
			return core.CommitInfo{}, fmt.Errorf("gateway: archive %q has %d versions, commit expected %d: %w", name, v, expect, store.ErrConflict)
		}
	}
	info, err := st.archive.CommitContext(ctx, object)
	if info.Version == 0 {
		return info, err // nothing was stored; the manifest is unchanged
	}
	// The commit is durable even when err is non-nil (a failed
	// auto-compaction reports the committed version alongside the error),
	// and for Reversed SEC the previous tip's full codeword is already
	// gone from the nodes — so the manifest MUST be persisted now either
	// way, or a reopen would anchor on deleted objects.
	if serr := g.persist(ctx, st); serr != nil {
		err = errors.Join(err, serr)
	} else if info.Compaction != nil {
		// Only after the manifest is safe, reclaim compaction-superseded
		// codewords.
		deleted, _, rerr := st.archive.ReclaimSupersededContext(ctx)
		if rerr == nil {
			info.Compaction.ShardsDeleted += deleted
		}
	}
	if err != nil {
		return info, err
	}
	g.commits.Add(1)
	return info, nil
}

// resolveVersion maps the wire's "0 = latest" onto a concrete version.
func resolveVersion(st *archiveState, version int) (int, error) {
	latest := st.archive.Versions()
	if version == 0 {
		version = latest
	}
	if version < 1 || version > latest {
		return 0, fmt.Errorf("gateway: archive %q has %d versions, not version %d: %w", st.name, latest, version, store.ErrNotFound)
	}
	return version, nil
}

// Retrieve decodes one version (0 = the latest at request time). All
// clients share the archive's decoded-version read cache.
func (g *Gateway) Retrieve(ctx context.Context, name string, version int) (transport.ArchiveVersion, error) {
	st, err := g.open(ctx, name)
	if err != nil {
		return transport.ArchiveVersion{}, err
	}
	v, err := resolveVersion(st, version)
	if err != nil {
		return transport.ArchiveVersion{}, err
	}
	data, stats, err := st.archive.RetrieveContext(ctx, v)
	if err != nil {
		return transport.ArchiveVersion{}, err
	}
	g.retrieves.Add(1)
	return transport.ArchiveVersion{Version: v, Data: data, Stats: stats}, nil
}

// RetrieveAll decodes versions 1..version (0 = through the latest).
func (g *Gateway) RetrieveAll(ctx context.Context, name string, version int) ([][]byte, core.RetrievalStats, error) {
	st, err := g.open(ctx, name)
	if err != nil {
		return nil, core.RetrievalStats{}, err
	}
	v, err := resolveVersion(st, version)
	if err != nil {
		return nil, core.RetrievalStats{}, err
	}
	versions, stats, err := st.archive.RetrieveAllContext(ctx, v)
	if err != nil {
		return nil, core.RetrievalStats{}, err
	}
	g.retrieves.Add(1)
	return versions, stats, nil
}

// Log returns the archive's version history with per-version chain costs.
func (g *Gateway) Log(ctx context.Context, name string) ([]transport.ArchiveLogEntry, error) {
	st, err := g.open(ctx, name)
	if err != nil {
		return nil, err
	}
	m := st.archive.Manifest()
	depths, planned, err := st.archive.ChainStats()
	if err != nil {
		return nil, err
	}
	entries := make([]transport.ArchiveLogEntry, len(m.Entries))
	for i, e := range m.Entries {
		entries[i] = transport.ArchiveLogEntry{
			Version:      e.Version,
			Full:         e.Full,
			Delta:        e.Delta,
			Gamma:        e.Gamma,
			Length:       e.Length,
			Base:         e.Base,
			Checkpoint:   e.Checkpoint,
			Compressed:   e.Compressed,
			Support:      e.Support,
			ChainDepth:   depths[i],
			PlannedReads: planned[i],
		}
	}
	g.logs.Add(1)
	return entries, nil
}

// info snapshots one archive. probe says whether to spend a liveness
// probe per cluster node.
func (g *Gateway) info(ctx context.Context, st *archiveState, probe bool) transport.ArchiveInfo {
	info := transport.ArchiveInfo{
		Manifest:      st.archive.Manifest(),
		Versions:      st.archive.Versions(),
		Capacity:      st.archive.Capacity(),
		QueuedWriters: st.queuedWriters(),
	}
	if cache, ok := st.archive.ReadCacheStats(); ok {
		info.Cache = &cache
	}
	health := g.cfg.Cluster.Health()
	info.Nodes = make([]transport.ArchiveNodeStatus, len(health))
	for i, h := range health {
		up := !probe
		if probe {
			up = g.cfg.Cluster.Available(ctx, h.Node)
		}
		info.Nodes[i] = transport.ArchiveNodeStatus{Health: h, Up: up}
	}
	return info
}

// Info describes the archive and probes the cluster's nodes.
func (g *Gateway) Info(ctx context.Context, name string) (transport.ArchiveInfo, error) {
	st, err := g.open(ctx, name)
	if err != nil {
		return transport.ArchiveInfo{}, err
	}
	g.infos.Add(1)
	return g.info(ctx, st, true), nil
}

// Compact bounds the archive's chain depth to maxChain (0 = the archive's
// configured MaxChainLength), holding the writer slot for the duration.
// Crash-safe ordering: rewrite and swap while keeping the superseded
// codewords, persist the new manifest, and only then reclaim.
func (g *Gateway) Compact(ctx context.Context, name string, maxChain int) (transport.CompactReport, error) {
	st, err := g.open(ctx, name)
	if err != nil {
		return transport.CompactReport{}, err
	}
	if maxChain <= 0 {
		maxChain = st.archive.Config().MaxChainLength
	}
	if maxChain <= 0 {
		return transport.CompactReport{}, fmt.Errorf("gateway: archive %q has no MaxChainLength configured and no bound was given: %w", name, store.ErrConflict)
	}
	if err := st.acquire(ctx, g.cfg.MaxQueuedWriters); err != nil {
		if errors.Is(err, store.ErrBusy) {
			g.busy.Add(1)
		}
		return transport.CompactReport{}, err
	}
	defer st.release()
	info, err := st.archive.CompactKeepSupersededContext(ctx, maxChain)
	if err != nil {
		return transport.CompactReport{}, err
	}
	report := transport.CompactReport{Info: info}
	g.compactions.Add(1)
	if !info.Changed() {
		return report, nil
	}
	if err := g.persist(ctx, st); err != nil {
		return report, err
	}
	report.Deleted, report.Orphans, err = st.archive.ReclaimSupersededContext(ctx)
	if err != nil {
		return report, err
	}
	return report, nil
}

// Scrub verifies every stored shard; repair additionally rewrites damage,
// holding the writer slot so repairs never race a commit.
func (g *Gateway) Scrub(ctx context.Context, name string, repair bool) (core.ScrubReport, error) {
	st, err := g.open(ctx, name)
	if err != nil {
		return core.ScrubReport{}, err
	}
	if repair {
		if err := st.acquire(ctx, g.cfg.MaxQueuedWriters); err != nil {
			if errors.Is(err, store.ErrBusy) {
				g.busy.Add(1)
			}
			return core.ScrubReport{}, err
		}
		defer st.release()
	}
	report, err := st.archive.ScrubContext(ctx, repair)
	if err == nil {
		g.scrubs.Add(1)
	}
	return report, err
}

// Repair reconstructs the archive's shards on one cluster node, holding
// the writer slot so rebuilt shards never race a commit.
func (g *Gateway) Repair(ctx context.Context, name string, node int) (core.RepairReport, error) {
	st, err := g.open(ctx, name)
	if err != nil {
		return core.RepairReport{}, err
	}
	if err := st.acquire(ctx, g.cfg.MaxQueuedWriters); err != nil {
		if errors.Is(err, store.ErrBusy) {
			g.busy.Add(1)
		}
		return core.RepairReport{}, err
	}
	defer st.release()
	report, err := st.archive.RepairNodeContext(ctx, node)
	if err == nil {
		g.repairs.Add(1)
	}
	return report, err
}

// Close drains the gateway: no new operations are admitted, and every
// resident archive's manifest is persisted (best effort across archives;
// the first error is returned after all are attempted). The caller is
// responsible for draining in-flight requests first (transport's
// Server.Shutdown does that for served gateways). ctx bounds the
// cluster-replication writes.
func (g *Gateway) Close(ctx context.Context) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	states := make([]*archiveState, 0, len(g.archives))
	for _, st := range g.archives {
		states = append(states, st)
	}
	g.mu.Unlock()
	var firstErr error
	for _, st := range states {
		// An already-resident archive is persisted even when ctx is dead
		// (the local write needs no context); only waiting on an in-flight
		// load respects the deadline.
		select {
		case <-st.ready:
		default:
			select {
			case <-st.ready:
			case <-ctx.Done():
				return errors.Join(firstErr, context.Cause(ctx))
			}
		}
		if st.err != nil {
			continue
		}
		if err := g.persist(ctx, st); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// The gateway is the canonical ArchiveBackend implementation.
var _ transport.ArchiveBackend = (*Gateway)(nil)
