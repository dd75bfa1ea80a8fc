package core

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/secarchive/sec/internal/delta"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/wide"
)

// planItem/planHeap implement the retrieval planner's priority queue:
// versions ordered by (planned cost, delta hops, version number).
type planItem struct{ v, dist, hops int }

type planHeap []planItem

func (h planHeap) Len() int { return len(h) }
func (h planHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	if h[i].hops != h[j].hops {
		return h[i].hops < h[j].hops
	}
	return h[i].v < h[j].v
}
func (h planHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *planHeap) Push(x any)   { *h = append(*h, x.(planItem)) }
func (h *planHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// Retrieval errors.
var (
	// ErrNoSuchVersion is returned for version numbers outside 1..L.
	ErrNoSuchVersion = errors.New("core: no such version")
	// ErrUnavailable is returned when too few live shards remain to
	// reconstruct a required object.
	ErrUnavailable = errors.New("core: not enough live shards")
)

// errNilCluster rejects archive construction without a cluster.
var errNilCluster = errors.New("core: nil cluster")

// readAttempts bounds the re-plan loop when nodes fail between the liveness
// probe and the shard read.
const readAttempts = 3

// entry records what the archive stores for one version.
type entry struct {
	hasFull  bool
	hasDelta bool
	gamma    int // block sparsity of the delta, valid when hasDelta
	length   int // original object length in bytes
	// base is the version the delta is computed against: x_version =
	// x_base + z_version. Zero means the implicit chain predecessor
	// (version-1); compaction rebases deltas onto nearer anchors, recording
	// the anchor here. Valid when hasDelta.
	base int
	// checkpoint marks a full codeword placed (or retained) by the chain
	// lifecycle - an auto-checkpoint commit, a CheckpointEvery retention,
	// or a compaction promotion - rather than by the storage scheme.
	// Reversed SEC never deletes a checkpointed full when the chain tip
	// moves on.
	checkpoint bool
	// compressed marks a delta stored in CDEC-compacted form: the
	// codeword encodes only the gamma non-zero blocks with a
	// (gamma+N-K, gamma) code, and support records which blocks those are
	// (strictly increasing). Valid when hasDelta.
	compressed bool
	support    []int
}

// codec is the erasure-code surface the archive needs; both the GF(2^8)
// backend (erasure.Code, all four constructions) and the GF(2^16) wide
// backend (wide.Code, non-systematic Cauchy with n+k > 256) satisfy it.
// The Into variants encode/decode into caller-provided buffers; the archive
// hot paths pair them with the erasure package's buffer pool so steady-state
// commits, repairs, and scrubs do not allocate shard buffers.
type codec interface {
	N() int
	K() int
	Systematic() bool
	MaxSparseGamma() int
	Encode(blocks [][]byte) ([][]byte, error)
	EncodeInto(blocks, dst [][]byte) error
	DecodeFull(rows []int, shards [][]byte) ([][]byte, error)
	DecodeFullInto(rows []int, shards, dst [][]byte) error
	DecodeSparse(rows []int, shards [][]byte, gamma int) ([][]byte, error)
	SparseReadRows(live []int, gamma int) []int
}

// Archive is a SEC-encoded chain of versions of one object, stored on a
// cluster. It is safe for concurrent use; commits are serialized.
type Archive struct {
	cfg       Config
	code      codec
	deltaCode codec
	blocking  delta.Blocking
	cluster   *store.Cluster

	mu       sync.RWMutex
	entries  []entry
	cache    [][]byte // blocks of the latest version, for delta computation
	cacheLen int      // byte length of the cached version
	// superseded queues delta codewords replaced by compaction whose
	// deletion is deferred (CompactKeepSupersededContext) or failed
	// (orphans on unreachable nodes), drained by reclaimLocked.
	superseded []gcObject
	// generation counts manifest mutations (commits and compaction swaps);
	// it is persisted so the freshest manifest replica is recognisable.
	generation uint64
	// replicaLag is set while the last ReplicateManifest reached fewer
	// than a write quorum of nodes: stale replicas may still name the
	// superseded codewords, so reclaimLocked leaves them queued.
	replicaLag atomic.Bool
	// manifestEncodes counts Save calls (see ManifestEncodes).
	manifestEncodes atomic.Uint64

	// ccMu guards ccache, the lazily built CDEC codecs keyed by gamma
	// (k' = gamma, n' = gamma + N - K). Retrievals run concurrently under
	// the archive read lock, so codec construction has its own mutex.
	ccMu   sync.Mutex
	ccache map[int]codec

	// rcache, when non-nil, is the decoded-version read cache
	// (Config.ReadCacheBytes); invalidated whenever the chain changes.
	rcache *versionCache
}

// gcObject names one superseded codeword awaiting garbage collection.
type gcObject struct {
	id      string
	version int
	// code is the codec the object was written with (CDEC-compacted
	// deltas have per-gamma shapes); nil means the archive's delta code.
	code codec
}

// CommitInfo reports what a Commit stored.
type CommitInfo struct {
	// Version is the 1-based version number assigned.
	Version int
	// StoredDelta and StoredFull report which codewords were written.
	StoredDelta bool
	StoredFull  bool
	// Checkpoint reports that the commit stored (or, for Reversed SEC,
	// retained) a full codeword as a chain checkpoint under the
	// CheckpointEvery policy, beyond what the storage scheme required.
	Checkpoint bool
	// Compressed reports that the delta was stored in CDEC-compacted form
	// (see Config.CompressDeltas).
	Compressed bool
	// Gamma is the block sparsity of the delta against the previous
	// version (0 for the first version).
	Gamma int
	// ShardWrites counts shards written to nodes.
	ShardWrites int
	// OrphanShards counts shards of a replaced full version that could
	// not be deleted (their nodes were down); they are garbage, not a
	// correctness problem.
	OrphanShards int
	// ReclaimedShards counts shards of codewords superseded by EARLIER
	// compaction passes that this commit garbage-collected (deferred GC
	// drains one operation later, once the caller has had a chance to
	// persist the post-compaction manifest).
	ReclaimedShards int
	// Compaction reports the auto-compaction this commit triggered (nil
	// when MaxChainLength is unset or no chain exceeded it). Its
	// superseded codewords are queued, not yet deleted: the next commit
	// (or an explicit ReclaimSupersededContext / compaction pass) frees
	// them.
	Compaction *CompactionInfo
}

// ObjectRead details the retrieval of one stored object.
type ObjectRead struct {
	// Version is the 1-based version the object belongs to.
	Version int
	// Delta reports whether the object was a delta (vs a full version).
	Delta bool
	// Gamma is the delta sparsity (0 for full objects).
	Gamma int
	// Reads is the number of node reads spent on this object.
	Reads int
	// Sparse reports whether a reduced sparse read was used.
	Sparse bool
	// Compressed reports that the object was a CDEC-compacted delta,
	// decoded from gamma shard reads and expanded via its support.
	Compressed bool
	// Hedges is the number of speculative shard reads issued because a
	// node batch outlived Config.HedgeDelay (0 unless hedging is on and
	// a straggler was hedged). Successful hedged reads are already
	// included in Reads.
	Hedges int
}

// RetrievalStats accounts the node reads of one retrieval.
type RetrievalStats struct {
	// NodeReads is the total number of shard reads (the paper's I/O
	// metric).
	NodeReads int
	// SparseReads and FullReads count objects by decode style.
	SparseReads int
	FullReads   int
	// CompressedReads counts objects decoded from CDEC-compacted
	// codewords (gamma reads each; see Config.CompressDeltas).
	CompressedReads int
	// Hedges totals the speculative reads issued against stragglers
	// (see Config.HedgeDelay); 0 whenever hedging is disabled.
	Hedges int
	// CacheHits counts retrievals served wholly from memory - the
	// decoded-version cache (Config.ReadCacheBytes) or the writer-side
	// latest-version cache - with zero node reads. CacheBytes totals the
	// object bytes those hits served.
	CacheHits  int
	CacheBytes int
	// Objects details every object read, in read order.
	Objects []ObjectRead
}

func (s *RetrievalStats) add(o ObjectRead) {
	s.NodeReads += o.Reads
	s.Hedges += o.Hedges
	if o.Reads == 0 {
		return // zero delta: nothing was read
	}
	switch {
	case o.Compressed:
		s.CompressedReads++
	case o.Sparse:
		s.SparseReads++
	default:
		s.FullReads++
	}
	s.Objects = append(s.Objects, o)
}

// Merge accumulates another retrieval's accounting into s, for callers
// aggregating several retrievals (e.g. a multi-file checkout).
func (s *RetrievalStats) Merge(o RetrievalStats) {
	s.NodeReads += o.NodeReads
	s.SparseReads += o.SparseReads
	s.FullReads += o.FullReads
	s.CompressedReads += o.CompressedReads
	s.Hedges += o.Hedges
	s.CacheHits += o.CacheHits
	s.CacheBytes += o.CacheBytes
	s.Objects = append(s.Objects, o.Objects...)
}

// New creates an empty archive on the cluster. For colocated placement the
// cluster is grown (if growable) to n nodes up front.
func New(cfg Config, cluster *store.Cluster) (*Archive, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cluster == nil {
		return nil, errNilCluster
	}
	code, deltaCode, err := buildCodecs(cfg)
	if err != nil {
		return nil, err
	}
	blocking, err := delta.NewBlocking(cfg.K, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	if err := cluster.EnsureSize(cfg.Placement.NodesRequired(1, cfg.N)); err != nil {
		return nil, err
	}
	a := &Archive{
		cfg:       cfg,
		code:      code,
		deltaCode: deltaCode,
		blocking:  blocking,
		cluster:   cluster,
	}
	if cfg.ReadCacheBytes > 0 {
		a.rcache = newVersionCache(cfg.ReadCacheBytes)
	}
	return a, nil
}

// compressGammaMax is the largest gamma the archive stores compressed
// (Config.CompressGammaMax, defaulting to K-1).
func (a *Archive) compressGammaMax() int {
	if a.cfg.CompressGammaMax > 0 {
		return a.cfg.CompressGammaMax
	}
	return a.cfg.K - 1
}

// compressEligible reports whether a delta of the given sparsity should be
// stored in CDEC-compacted form.
func (a *Archive) compressEligible(gamma int) bool {
	return a.cfg.CompressDeltas && gamma >= 1 && gamma <= a.compressGammaMax()
}

// compressedCode returns the (gamma+N-K, gamma) codec for CDEC-compacted
// deltas of the given sparsity, building and caching it on first use. The
// parity count matches the archive's code, so compressed codewords tolerate
// the same N-K node failures.
func (a *Archive) compressedCode(gamma int) (codec, error) {
	if gamma < 1 || gamma > a.cfg.K-1 {
		return nil, fmt.Errorf("core: no compressed code for gamma %d (k=%d)", gamma, a.cfg.K)
	}
	a.ccMu.Lock()
	defer a.ccMu.Unlock()
	if c, ok := a.ccache[gamma]; ok {
		return c, nil
	}
	n := gamma + a.cfg.N - a.cfg.K
	var (
		c   codec
		err error
	)
	if a.cfg.Field == GF16 {
		c, err = wide.NewCauchy(n, gamma)
	} else {
		c, err = erasure.New(a.cfg.Code, n, gamma)
	}
	if err != nil {
		return nil, fmt.Errorf("core: building compressed (%d,%d) code: %w", n, gamma, err)
	}
	if a.ccache == nil {
		a.ccache = make(map[int]codec)
	}
	a.ccache[gamma] = c
	return c, nil
}

// entryDeltaCode returns the codec a version's stored delta codeword uses:
// the per-gamma compressed code for CDEC entries, the archive's delta code
// otherwise.
func (a *Archive) entryDeltaCode(e entry) (codec, error) {
	if !e.compressed {
		return a.deltaCode, nil
	}
	return a.compressedCode(e.gamma)
}

// invalidateReadCache clears the decoded-version cache (no-op when the
// cache is disabled). Called by every operation that changes what the
// chain stores.
func (a *Archive) invalidateReadCache() {
	if a.rcache != nil {
		a.rcache.invalidate()
	}
}

// ReadCacheStats snapshots the decoded-version read cache counters; ok is
// false when the cache is disabled (Config.ReadCacheBytes == 0).
func (a *Archive) ReadCacheStats() (CacheStats, bool) {
	if a.rcache == nil {
		return CacheStats{}, false
	}
	return a.rcache.stats(), true
}

// Name returns the archive name.
func (a *Archive) Name() string { return a.cfg.Name }

// Scheme returns the storage scheme.
func (a *Archive) Scheme() Scheme { return a.cfg.Scheme }

// Config returns the archive configuration.
func (a *Archive) Config() Config { return a.cfg }

// Capacity returns the maximum object size in bytes.
func (a *Archive) Capacity() int { return a.blocking.Capacity() }

// Versions returns the number of committed versions L.
func (a *Archive) Versions() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.entries)
}

// CommitContext stores object as the next version, under the context's
// deadline and cancellation. The object must fit the configured capacity
// (K*BlockSize bytes); shorter objects are zero-padded, matching the
// paper's fixed-size object model.
func (a *Archive) CommitContext(ctx context.Context, object []byte) (CommitInfo, error) {
	//lint:allow lockheld single-writer archive lock serializes all cluster I/O by design (DESIGN.md section 4)
	a.mu.Lock()
	defer a.mu.Unlock()

	// Codewords superseded by earlier compaction passes have outlived
	// their grace period (the caller has had a full operation in which to
	// persist the post-compaction manifest), so reclaim them first.
	reclaimed := 0
	if len(a.superseded) > 0 {
		reclaimed, _ = a.reclaimLocked(ctx)
	}
	blocks, err := a.blocking.Split(object)
	if err != nil {
		return CommitInfo{ReclaimedShards: reclaimed}, err
	}
	version := len(a.entries) + 1
	if err := a.ensureNodes(version); err != nil {
		return CommitInfo{ReclaimedShards: reclaimed}, err
	}
	if version == 1 {
		info := CommitInfo{Version: 1, StoredFull: true, ReclaimedShards: reclaimed}
		if err := a.writeObject(ctx, a.code, fullID(a.cfg.Name, 1), 1, blocks, &info.ShardWrites); err != nil {
			return CommitInfo{ReclaimedShards: reclaimed}, err
		}
		a.entries = append(a.entries, entry{hasFull: true, length: len(object)})
		a.generation++
		a.invalidateReadCache()
		a.setCache(blocks, len(object))
		return info, nil
	}

	if a.cache == nil {
		if err := a.restoreCacheLocked(ctx); err != nil {
			return CommitInfo{ReclaimedShards: reclaimed}, fmt.Errorf("core: restoring latest-version cache: %w", err)
		}
	}
	d, err := delta.Compute(a.cache, blocks)
	if err != nil {
		return CommitInfo{ReclaimedShards: reclaimed}, err
	}
	gamma := delta.Sparsity(d)
	info := CommitInfo{Version: version, Gamma: gamma, ReclaimedShards: reclaimed}

	storeDelta, storeFull := a.commitPlan(gamma)
	// Auto-checkpoint: when CheckpointEvery is set and the new version
	// would land CheckpointEvery or more versions past the last stored
	// full codeword, store a full codeword alongside the delta so no chain
	// grows unboundedly deep (Reversed SEC checkpoints at deletion time
	// below instead, since it stores a full every commit).
	if !storeFull && a.cfg.CheckpointEvery > 0 && version-a.lastFullBelow(version) >= a.cfg.CheckpointEvery {
		storeFull = true
		info.Checkpoint = true
	}
	var support []int
	if storeDelta {
		if a.compressEligible(gamma) {
			// CDEC path: encode only the gamma non-zero blocks with the
			// (gamma+N-K, gamma) code. The support travels in the manifest
			// entry; the object ID is the same as an uncompressed delta's.
			cd, err := delta.Compact(d)
			if err != nil {
				return CommitInfo{ReclaimedShards: reclaimed}, err
			}
			ccode, err := a.compressedCode(gamma)
			if err != nil {
				return CommitInfo{ReclaimedShards: reclaimed}, err
			}
			if err := a.writeObject(ctx, ccode, deltaID(a.cfg.Name, version), version, cd.Blocks, &info.ShardWrites); err != nil {
				return CommitInfo{ReclaimedShards: reclaimed}, err
			}
			info.Compressed = true
			support = cd.Support
		} else if err := a.writeObject(ctx, a.deltaCode, deltaID(a.cfg.Name, version), version, d, &info.ShardWrites); err != nil {
			return CommitInfo{ReclaimedShards: reclaimed}, err
		}
		info.StoredDelta = true
	}
	if storeFull {
		if err := a.writeObject(ctx, a.code, fullID(a.cfg.Name, version), version, blocks, &info.ShardWrites); err != nil {
			return CommitInfo{ReclaimedShards: reclaimed}, err
		}
		info.StoredFull = true
	}
	a.entries = append(a.entries, entry{
		hasFull:    storeFull,
		hasDelta:   storeDelta,
		gamma:      gamma,
		length:     len(object),
		checkpoint: info.Checkpoint,
		compressed: info.Compressed,
		support:    support,
	})
	a.generation++
	a.invalidateReadCache()
	if a.cfg.Scheme == ReversedSEC {
		// The previous version's full codeword is superseded: the chain
		// now reaches it through the new delta. Checkpoints are the
		// exception - a full retained under CheckpointEvery (or placed by
		// compaction) stays so old versions keep a nearby anchor.
		prev := version - 1
		if pe := &a.entries[prev-1]; pe.hasFull {
			keep := pe.checkpoint
			if !keep && a.cfg.CheckpointEvery > 0 && prev-a.lastFullBelow(prev) >= a.cfg.CheckpointEvery {
				pe.checkpoint = true
				info.Checkpoint = true
				keep = true
			}
			if !keep {
				info.OrphanShards = a.deleteObject(ctx, a.code, fullID(a.cfg.Name, prev), prev)
				pe.hasFull = false
			}
		}
	}
	a.setCache(blocks, len(object))
	if a.cfg.MaxChainLength > 0 {
		if depths, _, err := a.chainDepths(); err == nil && maxDepth(depths) > a.cfg.MaxChainLength {
			// Superseded codewords are kept (queued) rather than deleted:
			// the caller has not persisted the post-compaction manifest
			// yet, so deleting now could strand a crash-recovered manifest.
			// ReclaimSupersededContext (or the next compaction pass) frees
			// them once the caller has saved.
			ci, err := a.compactLocked(ctx, a.cfg.MaxChainLength, true)
			if err != nil {
				// The commit itself is durable and the chain is intact; only
				// the maintenance pass failed. Surface it without undoing
				// the commit - the caller can retry CompactContext.
				return info, fmt.Errorf("core: version %d committed, but auto-compaction failed: %w", version, err)
			}
			info.Compaction = &ci
		}
	}
	return info, nil
}

// lastFullBelow returns the largest version below v whose full codeword is
// stored, or 0 when none is.
func (a *Archive) lastFullBelow(v int) int {
	for j := v - 1; j >= 1; j-- {
		if a.entries[j-1].hasFull {
			return j
		}
	}
	return 0
}

// commitPlan decides what to store for a non-first version.
func (a *Archive) commitPlan(gamma int) (storeDelta, storeFull bool) {
	switch a.cfg.Scheme {
	case BasicSEC:
		return true, false
	case OptimizedSEC:
		if 2*gamma < a.cfg.K {
			return true, false
		}
		return false, true
	case ReversedSEC:
		return true, true
	default: // NonDifferential
		return false, true
	}
}

// RetrieveContext reconstructs version l (1-based) under the context's
// deadline and cancellation, returning its bytes and the read accounting.
// The context bounds the whole retrieval end to end: a chain walk against
// a stalled node returns once the context expires instead of waiting out
// per-operation timeouts link by link.
func (a *Archive) RetrieveContext(ctx context.Context, l int) ([]byte, RetrievalStats, error) {
	//lint:allow lockheld archive read lock held across retrieval by design; writers are rare and reads are concurrent under RLock
	a.mu.RLock()
	defer a.mu.RUnlock()
	var stats RetrievalStats
	if a.rcache != nil && l >= 1 && l <= len(a.entries) {
		if blocks, length, ok := a.rcache.get(l); ok {
			object, err := a.blocking.Join(blocks, length)
			if err == nil {
				stats.CacheHits++
				stats.CacheBytes += len(object)
				return object, stats, nil
			}
			a.rcache.remove(l) // unjoinable entry: stale or damaged, drop it
		}
	}
	blocks, err := a.retrieveBlocksLocked(ctx, l, &stats)
	if err != nil {
		return nil, stats, err
	}
	object, err := a.blocking.Join(blocks, a.entries[l-1].length)
	if err != nil {
		return nil, stats, err
	}
	return object, stats, nil
}

// LatestContext reconstructs the most recent version. When the writer-side
// latest-version cache is in hand (the archive committed or restored it
// this process), the read is served from memory with zero node reads and
// reported as a cache hit; otherwise it falls back to a stored retrieval.
func (a *Archive) LatestContext(ctx context.Context) ([]byte, RetrievalStats, error) {
	a.mu.RLock()
	if len(a.entries) > 0 && a.cache != nil {
		object, err := a.blocking.Join(a.cache, a.cacheLen)
		if err == nil {
			a.mu.RUnlock()
			return object, RetrievalStats{CacheHits: 1, CacheBytes: len(object)}, nil
		}
	}
	a.mu.RUnlock()
	return a.RetrieveContext(ctx, a.Versions())
}

// CachedLatest returns the in-memory copy of the latest version, if the
// archive has one (the cache the paper suggests keeping for delta
// computation). No node reads are performed.
func (a *Archive) CachedLatest() ([]byte, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.cache == nil {
		return nil, false
	}
	object, err := a.blocking.Join(a.cache, a.cacheLen)
	if err != nil {
		return nil, false
	}
	return object, true
}

// RetrieveAllContext reconstructs versions 1..l in order (the whole-
// archive read of formula (4) when l = L), under the context's deadline
// and cancellation. The whole history is one read plan (historyPlan), so
// every shard it needs is prefetched together: one liveness probe round
// and one get batch per node for the entire history.
func (a *Archive) RetrieveAllContext(ctx context.Context, l int) ([][]byte, RetrievalStats, error) {
	//lint:allow lockheld archive read lock held across retrieval by design; writers are rare and reads are concurrent under RLock
	a.mu.RLock()
	defer a.mu.RUnlock()
	var stats RetrievalStats
	steps, err := a.historyPlan(l)
	if err != nil {
		return nil, stats, err
	}
	mat, err := a.materialize(ctx, steps, &stats)
	if err != nil {
		return nil, stats, err
	}
	out := make([][]byte, l)
	for j := 1; j <= l; j++ {
		object, err := a.blocking.Join(mat[j], a.entries[j-1].length)
		if err != nil {
			return nil, stats, err
		}
		out[j-1] = object
	}
	return out, stats, nil
}

// retrieveBlocksLocked reconstructs the blocks of version l, adding reads
// to stats. Caller holds at least a read lock.
func (a *Archive) retrieveBlocksLocked(ctx context.Context, l int, stats *RetrievalStats) ([][]byte, error) {
	plan, err := a.planChain(l)
	if err != nil {
		return nil, err
	}
	mat, err := a.materialize(ctx, plan.steps, stats)
	if err != nil {
		return nil, err
	}
	return mat[l], nil
}

// readStep is one object read of a read plan: the full codeword of a
// version, or a version's delta applied to a version already in hand. XOR
// deltas are self-inverse, so a delta step runs forward (x_base + z_j =
// x_j) or backward (x_j + z_j = x_base) alike.
type readStep struct {
	version int  // version whose object is read
	delta   bool // the version's delta codeword (else its full codeword)
	from    int  // version the delta is applied to (delta steps only)
	to      int  // version the step materializes
	// cache marks a chain-walk step: the version it reaches enters the
	// decoded-version read cache.
	cache bool
}

// stepObjectID names the stored object a read step reads.
func (a *Archive) stepObjectID(s readStep) string {
	if s.delta {
		return a.deltaObjectID(s.version)
	}
	return fullID(a.cfg.Name, s.version)
}

// historyPlan lists the object reads that materialize versions 1..l: the
// chain walk to version 1, then each later version not yet in hand - by
// its delta when the delta's base is in hand, by its full codeword when it
// has one, and otherwise (a compaction rebase onto a later anchor) by its
// own chain walk. Chain-walk steps enter the read cache, as a Retrieve's
// would; versions reached one delta at a time do not, so a whole-history
// read does not flush the cache. RetrieveAllContext executes this plan and
// PlannedReadsAll prices it.
func (a *Archive) historyPlan(l int) ([]readStep, error) {
	if l < 1 || l > len(a.entries) {
		return nil, fmt.Errorf("%w: %d of %d", ErrNoSuchVersion, l, len(a.entries))
	}
	covered := make([]bool, len(a.entries)+1)
	var steps []readStep
	walk := func(v int) error {
		plan, err := a.planChain(v)
		if err != nil {
			return err
		}
		for _, s := range plan.steps {
			covered[s.to] = true
		}
		steps = append(steps, plan.steps...)
		return nil
	}
	if err := walk(1); err != nil {
		return nil, err
	}
	for j := 2; j <= l; j++ {
		if covered[j] {
			continue
		}
		e := a.entries[j-1]
		switch base := a.baseOf(j); {
		case e.hasDelta && covered[base]:
			steps = append(steps, readStep{version: j, delta: true, from: base, to: j})
		case e.hasFull:
			steps = append(steps, readStep{version: j, to: j})
		case e.hasDelta:
			if err := walk(j); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("core: version %d has neither delta nor full object", j)
		}
		covered[j] = true
	}
	return steps, nil
}

// materialize executes a read plan, returning the blocks of every version
// it reaches, indexed by version number. All shard reads of the plan are
// prefetched up front as one batch per node; the per-object readers
// consume the prefetched rows and fetch more only where the prefetch fell
// short. Versions reached by caching steps enter the read cache in plan
// order - the anchor first, then each version as the walk reaches it - so
// identical request sequences leave identical caches.
func (a *Archive) materialize(ctx context.Context, steps []readStep, stats *RetrievalStats) ([][][]byte, error) {
	sets := a.prefetch(ctx, steps)
	mat := make([][][]byte, len(a.entries)+1)
	for _, s := range steps {
		blocks, err := a.applyStep(ctx, s, mat, sets[a.stepObjectID(s)], stats)
		if err != nil {
			return nil, err
		}
		mat[s.to] = blocks
		if s.cache && a.rcache != nil {
			// Cached blocks are shared read-only; decodes and delta
			// application always fresh-allocate.
			a.rcache.put(s.to, blocks, a.entries[s.to-1].length)
		}
	}
	return mat, nil
}

// applyStep performs one read step against the versions already in hand,
// returning the blocks of the version it reaches. A nil set reads the
// object from scratch.
func (a *Archive) applyStep(ctx context.Context, s readStep, mat [][][]byte, set *shardSet, stats *RetrievalStats) ([][]byte, error) {
	if !s.delta {
		blocks, read, err := a.readFull(ctx, s.version, set)
		if err != nil {
			return nil, err
		}
		stats.add(read)
		return blocks, nil
	}
	if mat[s.from] == nil {
		return nil, fmt.Errorf("core: read plan applies delta %d before version %d is in hand", s.version, s.from)
	}
	d, read, err := a.readDelta(ctx, s.version, set)
	if err != nil {
		return nil, err
	}
	stats.add(read)
	return delta.Apply(mat[s.from], d)
}

// chainPlan describes how to reach a version from a fully stored anchor.
type chainPlan struct {
	steps []readStep // the anchor's full read, then each delta applied
	cost  int        // planned node reads (formula (3))
}

// planChain finds the cheapest way to materialize version l. Deltas form a
// graph over versions - each stored delta z_j connects its base to j, and
// XOR deltas are self-inverse, so every edge works in both directions
// (forward: x_base + z_j = x_j; backward: x_j + z_j = x_base). On an
// uncompacted chain (every base the chain predecessor) this reduces to the
// paper's two candidates: forward from the nearest full version at or
// before l, or backward from the nearest full version at or after l
// (Reversed SEC). Compaction rebases deltas onto distant anchors, turning
// the chain into a tree; the planner runs a small Dijkstra pass so those
// shortcut edges are used whenever they are cheaper. Ties prefer fewer
// delta applications (and then the smaller version) so plans are
// deterministic.
func (a *Archive) planChain(l int) (chainPlan, error) {
	if l < 1 || l > len(a.entries) {
		return chainPlan{}, fmt.Errorf("%w: %d of %d", ErrNoSuchVersion, l, len(a.entries))
	}
	dist, hops, via, prev, err := a.planAll(l)
	if err != nil {
		return chainPlan{}, err
	}
	if dist[l] == unreachedCost {
		return chainPlan{}, fmt.Errorf("core: version %d unreachable from any full version", l)
	}
	// Walk the path back from l to its anchor, then reverse it into read
	// order. Every step of a chain walk enters the read cache.
	steps := make([]readStep, 0, hops[l]+1)
	v := l
	for via[v] != 0 {
		steps = append(steps, readStep{version: via[v], delta: true, from: prev[v], to: v, cache: true})
		v = prev[v]
	}
	steps = append(steps, readStep{version: v, to: v, cache: true})
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	return chainPlan{steps: steps, cost: dist[l]}, nil
}

// unreachedCost marks versions the planner could not reach.
const unreachedCost = int(^uint(0) >> 1)

// planAll runs the planner's Dijkstra pass over the whole version graph,
// returning per-version cost, hop count, the delta applied to reach each
// version, and the path predecessor. With target > 0 the pass stops once
// that version settles; target 0 prices every version (one pass instead
// of one per version, for whole-archive summaries).
func (a *Archive) planAll(target int) (dist, hops, via, prev []int, err error) {
	L := len(a.entries)
	type edge struct {
		to, via, w int // neighbor version, delta version applied, read cost
	}
	adj := make([][]edge, L+1)
	for j := 1; j <= L; j++ {
		e := a.entries[j-1]
		if !e.hasDelta {
			continue
		}
		b := a.baseOf(j)
		if b < 1 || b > L || b == j {
			return nil, nil, nil, nil, fmt.Errorf("core: version %d has invalid delta base %d", j, b)
		}
		w := a.plannedEntryReads(e)
		adj[b] = append(adj[b], edge{to: j, via: j, w: w})
		adj[j] = append(adj[j], edge{to: b, via: j, w: w})
	}
	dist = make([]int, L+1)
	hops = make([]int, L+1)
	via = make([]int, L+1)  // delta applied to reach the version (0 at anchors)
	prev = make([]int, L+1) // predecessor version on the best path
	done := make([]bool, L+1)
	for v := 1; v <= L; v++ {
		dist[v] = unreachedCost
	}
	// Lazy-deletion Dijkstra off a heap keyed (cost, hops, version), so a
	// retrieval plans in O(E log L) even on very long archives; stale heap
	// entries are skipped on pop. Anchors enter in ascending version order,
	// so equal-cost ties settle toward forward plans, matching the original
	// nearest-anchor planner.
	h := make(planHeap, 0, L)
	for v := 1; v <= L; v++ {
		if a.entries[v-1].hasFull {
			dist[v] = a.cfg.K
			hops[v] = 0
			h = append(h, planItem{v: v, dist: a.cfg.K})
		}
	}
	heap.Init(&h)
	for h.Len() > 0 && (target == 0 || !done[target]) {
		it := heap.Pop(&h).(planItem)
		u := it.v
		if done[u] || it.dist != dist[u] || it.hops != hops[u] {
			continue // stale entry superseded by a later relaxation
		}
		done[u] = true
		for _, e := range adj[u] {
			nd, nh := dist[u]+e.w, hops[u]+1
			if nd < dist[e.to] || (nd == dist[e.to] && nh < hops[e.to]) {
				dist[e.to], hops[e.to] = nd, nh
				via[e.to], prev[e.to] = e.via, u
				heap.Push(&h, planItem{v: e.to, dist: nd, hops: nh})
			}
		}
	}
	return dist, hops, via, prev, nil
}

// plannedDeltaReads is the paper's eta_j, delegated to the delta package's
// shared cost model so the retrieval planner and the lifecycle planners
// can never drift apart.
func (a *Archive) plannedDeltaReads(gamma int) int {
	return delta.ReadCost(gamma, a.cfg.K, a.deltaCode.MaxSparseGamma())
}

// plannedEntryReads prices one stored delta for the planner, respecting its
// stored form: CDEC-compacted deltas decode from gamma reads, plain deltas
// from min(2*gamma, K) (sparse) or K (full).
func (a *Archive) plannedEntryReads(e entry) int {
	if e.compressed {
		return delta.CompressedReadCost(e.gamma)
	}
	return a.plannedDeltaReads(e.gamma)
}

// PlannedReads returns the number of node reads formula (3) predicts for
// retrieving version l, assuming every node is live.
func (a *Archive) PlannedReads(l int) (int, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	plan, err := a.planChain(l)
	if err != nil {
		return 0, err
	}
	return plan.cost, nil
}

// PlannedReadsAll returns the number of node reads formula (4) predicts for
// retrieving versions 1..l, assuming every node is live: the price of the
// read plan RetrieveAllContext executes.
func (a *Archive) PlannedReadsAll(l int) (int, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	steps, err := a.historyPlan(l)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, s := range steps {
		if s.delta {
			total += a.plannedEntryReads(a.entries[s.version-1])
		} else {
			total += a.cfg.K
		}
	}
	return total, nil
}

// shardSet accumulates fetched shard rows across re-plan attempts, so a
// partial failure re-fetches only the rows that are actually missing
// instead of discarding everything already in hand.
type shardSet struct {
	data map[int][]byte // fetched shard contents by row
	dead map[int]bool   // rows whose fetch failed (skip in later plans)
	// reads counts successful node reads performed so far, the ObjectRead
	// accounting (every fetched shard is eventually used or was needed by
	// a plan at the time, so all of them are real retrieval I/O).
	reads int
	// sparseRows records the sparse rows the read plan's prefetch chose
	// for a delta, so readDelta can decode straight from the prefetched
	// rows without re-probing liveness.
	sparseRows []int
	// hedges counts the speculative reads issued for this object because
	// a node batch outlived the hedge delay.
	hedges int
	// err records the last per-row error of the read plan's prefetch, so a
	// reader that must abort (cancelled context) can surface the failure
	// with its full node/shard provenance instead of a bare ctx error.
	err error
}

func newShardSet() *shardSet {
	return &shardSet{data: make(map[int][]byte), dead: make(map[int]bool)}
}

// fetch reads the listed rows of an object into the set, one batch per
// node, marking permanently lost rows dead. It returns the last per-row
// error (nil when every row arrived).
func (s *shardSet) fetch(ctx context.Context, a *Archive, id string, version int, rows []int) error {
	var lastErr error
	for i, res := range a.readRows(ctx, id, version, rows) {
		if res.Err != nil {
			if rowLost(res.Err) {
				s.dead[rows[i]] = true
			}
			lastErr = fmt.Errorf("core: reading %s#%d: %w", id, rows[i], res.Err)
			continue
		}
		s.data[rows[i]] = res.Data
		s.reads++
	}
	return lastErr
}

// rowLost reports whether a per-row read error is permanent for this
// retrieval: the shard itself is missing or corrupt, so retrying the row
// is pointless. Transient trouble (node down, transport errors) is NOT
// marked dead - the next attempt's liveness probe excludes the node if it
// is really gone and retries the row if it recovered, matching the
// pre-batching re-plan behavior.
func rowLost(err error) bool {
	return errors.Is(err, store.ErrNotFound) || errors.Is(err, store.ErrCorrupt)
}

// missing returns the subset of rows not yet fetched.
func (s *shardSet) missing(rows []int) []int {
	var missing []int
	for _, r := range rows {
		if _, ok := s.data[r]; !ok {
			missing = append(missing, r)
		}
	}
	return missing
}

// take returns up to k fetched rows (sorted) and their shards.
func (s *shardSet) take(k int) ([]int, [][]byte) {
	rows := make([]int, 0, len(s.data))
	for r := range s.data {
		rows = append(rows, r)
	}
	sortInts(rows)
	if len(rows) > k {
		rows = rows[:k]
	}
	shards := make([][]byte, len(rows))
	for i, r := range rows {
		shards[i] = s.data[r]
	}
	return rows, shards
}

// select returns the shards for an exact row plan; ok is false unless every
// row has been fetched.
func (s *shardSet) selectRows(rows []int) ([][]byte, bool) {
	shards := make([][]byte, len(rows))
	for i, r := range rows {
		data, ok := s.data[r]
		if !ok {
			return nil, false
		}
		shards[i] = data
	}
	return shards, true
}

// prefetch plans every shard read of a read plan up front and issues one
// batch per node covering all of its objects: node liveness is probed once
// per node, concurrently (probeNodes), each object's read rows are chosen
// against that snapshot, and a single cluster batch fetches everything.
// The result is one get RPC per node for the whole plan in the healthy
// case - one version's chain walk, a whole history, or compaction's pass
// over every version alike. The shards held in memory are at most the
// plan's planned reads x BlockSize. Prefetching is purely a wire
// optimization: rows that fail are marked dead in their object's shard set
// and the per-object readers top up or re-plan exactly as they would have
// fetched in the first place, so read counts are unchanged. An object a
// plan reads twice shares one shard set.
func (a *Archive) prefetch(ctx context.Context, steps []readStep) map[string]*shardSet {
	if a.cfg.DisableBatchIO {
		return nil
	}
	type objPlan struct {
		id      string
		version int
		code    codec
		gamma   int   // sparsity of a plain delta (0 for fulls and CDEC deltas)
		rows    []int // rows the object's reader would read
		sparse  []int // non-nil when rows is a sparse read plan
	}
	// The distinct objects of the plan, and every node holding one of
	// their rows. Zero deltas read nothing; a delta whose code cannot be
	// built is left to its reader, which surfaces the error.
	var objs []objPlan
	var nodes []int
	seen := make(map[string]bool)
	for _, st := range steps {
		o := objPlan{id: a.stepObjectID(st), version: st.version, code: a.code}
		if seen[o.id] {
			continue
		}
		if st.delta {
			e := a.entries[st.version-1]
			code, err := a.entryDeltaCode(e)
			if e.gamma == 0 || err != nil {
				continue
			}
			o.code = code
			if !e.compressed {
				o.gamma = e.gamma
			}
		}
		seen[o.id] = true
		objs = append(objs, o)
		for row := 0; row < o.code.N(); row++ {
			nodes = append(nodes, a.cfg.Placement.NodeFor(st.version-1, row))
		}
	}
	up := a.probeNodes(ctx, nodes)
	// Choose the rows each object's reader would read: a plain delta's
	// sparse plan when the code admits one, else the first K live rows of
	// the object's code (data rows first on systematic fulls and CDEC
	// deltas, whose K is their gamma). Objects whose live set is too small
	// are skipped here; their reader reports the proper error (or catches
	// a node that came back since the probe).
	var plans []objPlan
	for _, o := range objs {
		live := make([]int, 0, o.code.N())
		for row := 0; row < o.code.N(); row++ {
			if up[a.cfg.Placement.NodeFor(o.version-1, row)] {
				live = append(live, row)
			}
		}
		k := o.code.K()
		if o.gamma > 0 {
			if rows := o.code.SparseReadRows(live, o.gamma); rows != nil {
				o.rows, o.sparse = rows, rows
				plans = append(plans, o)
				continue
			}
		} else if o.code.Systematic() {
			live = preferSystematic(live, k)
		}
		if len(live) >= k {
			o.rows = live[:k]
			plans = append(plans, o)
		}
	}
	if len(plans) == 0 {
		return nil
	}
	var refs []store.ShardRef
	for _, p := range plans {
		for _, row := range p.rows {
			refs = append(refs, store.ShardRef{
				Node: a.cfg.Placement.NodeFor(p.version-1, row),
				ID:   store.ShardID{Object: p.id, Row: row},
			})
		}
	}
	sets := make(map[string]*shardSet, len(plans))
	for _, p := range plans {
		s := newShardSet()
		s.sparseRows = p.sparse
		sets[p.id] = s
	}
	sink := func(ref store.ShardRef, res store.ShardResult) {
		s := sets[ref.ID.Object]
		row := ref.ID.Row
		if res.Err != nil {
			if rowLost(res.Err) {
				s.dead[row] = true
			}
			s.err = fmt.Errorf("core: reading %s#%d: %w", ref.ID.Object, row, res.Err)
			return
		}
		if _, ok := s.data[row]; !ok {
			s.data[row] = res.Data
			s.reads++
		}
	}
	if !a.hedgeEnabled() {
		for i, res := range a.cluster.GetBatch(ctx, refs) {
			sink(refs[i], res)
		}
		return sets
	}
	// Hedged prefetch: each node's batch lands independently; a straggler
	// past the hedge delay triggers speculative fetches of spare parity
	// rows for every not-yet-satisfied object, and the prefetch returns
	// the moment each object can decode (its planned rows arrived, or any
	// K rows are in hand - readers decode full from K even when the
	// sparse plan was hedged away).
	satisfied := func(p objPlan) bool {
		s := sets[p.id]
		if len(s.data) >= p.code.K() {
			return true
		}
		_, ok := s.selectRows(p.rows)
		return ok
	}
	spare := func(straggling map[int]bool) []store.ShardRef {
		var extra []store.ShardRef
		for _, p := range plans {
			if satisfied(p) {
				continue
			}
			s := sets[p.id]
			planned := make(map[int]bool, len(p.rows))
			for _, r := range p.rows {
				planned[r] = true
			}
			need := p.code.K() - len(s.data)
			for row := 0; row < p.code.N() && need > 0; row++ {
				if planned[row] || s.dead[row] {
					continue
				}
				if _, ok := s.data[row]; ok {
					continue
				}
				node := a.cfg.Placement.NodeFor(p.version-1, row)
				if straggling[node] || !up[node] {
					continue
				}
				extra = append(extra, store.ShardRef{Node: node, ID: store.ShardID{Object: p.id, Row: row}})
				s.hedges++
				need--
			}
		}
		return extra
	}
	enough := func() bool {
		for _, p := range plans {
			if !satisfied(p) {
				return false
			}
		}
		return true
	}
	a.hedgedRead(ctx, refs, spare, enough, sink)
	return sets
}

// readFull reads and decodes a fully stored version. Reads are planned per
// node and issued as one batch per node; rows that fail are marked dead
// and only the deficit is re-fetched on the next attempt. A non-nil set
// carries rows the read plan's prefetch already fetched. A done context
// aborts the re-plan loop immediately - cancellation is not a node
// failure, so no further liveness probing or re-planning is worth doing.
func (a *Archive) readFull(ctx context.Context, version int, set *shardSet) ([][]byte, ObjectRead, error) {
	id := fullID(a.cfg.Name, version)
	k := a.cfg.K
	if set == nil {
		set = newShardSet()
	}
	lastErr := set.err
	for attempt := 0; attempt < readAttempts; attempt++ {
		if err := chainAbort(ctx, lastErr); err != nil {
			return nil, ObjectRead{}, err
		}
		if len(set.data) < k {
			candidates := set.missing(a.liveRows(ctx, a.code, version, set.dead))
			if a.code.Systematic() {
				candidates = preferSystematic(candidates, k)
			}
			if len(set.data)+len(candidates) < k {
				if err := chainAbort(ctx, lastErr); err != nil {
					return nil, ObjectRead{}, err
				}
				return nil, ObjectRead{}, fmt.Errorf("%w: %d of %d shards of %s", ErrUnavailable, len(set.data)+len(candidates), k, id)
			}
			deficit := k - len(set.data)
			err := a.fetchPlanned(ctx, set, id, version, candidates[:deficit], candidates[deficit:],
				func() bool { return len(set.data) >= k })
			if err != nil {
				lastErr = err
			}
		}
		if len(set.data) >= k {
			rows, shards := set.take(k)
			blocks, err := a.code.DecodeFull(rows, shards)
			if err != nil {
				return nil, ObjectRead{}, err
			}
			return blocks, ObjectRead{Version: version, Reads: set.reads, Hedges: set.hedges}, nil
		}
	}
	return nil, ObjectRead{}, lastErr
}

// chainAbort decides whether a retrieval loop should stop because its
// context is done (or its deadline has passed, even if the context timer
// has not fired yet - the wire deadlines are copied from it, so further
// reads are pointless). It prefers the last per-row error when that error
// already carries the cancellation (it names the node and shard, so
// errors.As finds the full provenance), falling back to a plain wrap of
// the context's cause.
func chainAbort(ctx context.Context, lastErr error) error {
	cause := ctx.Err()
	if cause == nil {
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			cause = context.DeadlineExceeded
		} else {
			return nil
		}
	}
	if lastErr != nil && errors.Is(lastErr, cause) {
		return lastErr
	}
	return fmt.Errorf("core: retrieval aborted: %w", cause)
}

// readDelta reads and decodes the delta of a version, using a sparse read
// when the code admits one from the live shards. Shards fetched by a
// sparse attempt that could not complete are kept and count toward the
// full read it falls back to. A non-nil set carries rows the read plan's
// prefetch already fetched (and, for sparse plans, which rows they
// are), so the healthy path decodes without any further cluster traffic.
func (a *Archive) readDelta(ctx context.Context, version int, set *shardSet) ([][]byte, ObjectRead, error) {
	e := a.entries[version-1]
	if e.compressed {
		return a.readCompressedDelta(ctx, version, e, set)
	}
	gamma := e.gamma
	if gamma == 0 {
		// Nothing changed: the delta is identically zero, no reads
		// needed.
		zero := make([][]byte, a.cfg.K)
		for i := range zero {
			zero[i] = make([]byte, a.cfg.BlockSize)
		}
		return zero, ObjectRead{Version: version, Delta: true}, nil
	}
	id := a.deltaObjectID(version)
	k := a.cfg.K
	if set == nil {
		set = newShardSet()
	}
	lastErr := set.err
	trySparse := true
	if planned := set.sparseRows; planned != nil {
		if shards, ok := set.selectRows(planned); ok {
			blocks, err := a.deltaCode.DecodeSparse(planned, shards, gamma)
			if err == nil {
				return blocks, ObjectRead{Version: version, Delta: true, Gamma: gamma, Reads: set.reads, Sparse: true, Hedges: set.hedges}, nil
			}
			// Sparse decode failure (e.g. stale manifest gamma): fall
			// through to a full read, reusing the fetched shards.
			trySparse = false
		}
	}
	for attempt := 0; attempt < readAttempts; attempt++ {
		if err := chainAbort(ctx, lastErr); err != nil {
			return nil, ObjectRead{}, err
		}
		live := a.liveRows(ctx, a.deltaCode, version, set.dead)
		if trySparse {
			if rows := a.deltaCode.SparseReadRows(live, gamma); rows != nil {
				sparseDone := func() bool { _, ok := set.selectRows(rows); return ok }
				err := a.fetchPlanned(ctx, set, id, version, set.missing(rows), set.missing(rowsExcluding(live, rows)),
					func() bool { return sparseDone() || len(set.data) >= k })
				switch {
				case sparseDone():
					shards, _ := set.selectRows(rows)
					blocks, derr := a.deltaCode.DecodeSparse(rows, shards, gamma)
					if derr == nil {
						return blocks, ObjectRead{Version: version, Delta: true, Gamma: gamma, Reads: set.reads, Sparse: true, Hedges: set.hedges}, nil
					}
					// Sparse decode failure (e.g. stale manifest gamma):
					// fall through to a full read, reusing the fetched
					// shards.
					trySparse = false
				case set.hedges > 0 && len(set.data) >= k:
					// Hedged spares assembled a full decode's worth before
					// the sparse plan completed; stop chasing the straggler
					// for its sparse rows and decode full below.
					if err != nil {
						lastErr = err
					}
					trySparse = false
				default:
					// Some sparse rows are gone; re-plan against the
					// shrunken live set, keeping what arrived.
					if err != nil {
						lastErr = err
					}
					continue
				}
			}
		}
		if len(set.data) < k {
			candidates := set.missing(live)
			if len(set.data)+len(candidates) < k {
				if err := chainAbort(ctx, lastErr); err != nil {
					return nil, ObjectRead{}, err
				}
				return nil, ObjectRead{}, fmt.Errorf("%w: %d of %d shards of %s", ErrUnavailable, len(set.data)+len(candidates), k, id)
			}
			deficit := k - len(set.data)
			err := a.fetchPlanned(ctx, set, id, version, candidates[:deficit], candidates[deficit:],
				func() bool { return len(set.data) >= k })
			if err != nil {
				lastErr = err
			}
		}
		if len(set.data) >= k {
			rows, shards := set.take(k)
			blocks, err := a.deltaCode.DecodeFull(rows, shards)
			if err != nil {
				return nil, ObjectRead{}, err
			}
			return blocks, ObjectRead{Version: version, Delta: true, Gamma: gamma, Reads: set.reads, Hedges: set.hedges}, nil
		}
	}
	return nil, ObjectRead{}, lastErr
}

// readCompressedDelta reads a CDEC-compacted delta codeword: any gamma of
// its gamma+N-K shards decode the non-zero blocks, which the entry's
// support expands back to the full K-block delta vector. There is no
// separate sparse plan - gamma reads IS the floor, below both the sparse
// read (2*gamma) and the full read (K) of uncompressed deltas.
func (a *Archive) readCompressedDelta(ctx context.Context, version int, e entry, set *shardSet) ([][]byte, ObjectRead, error) {
	code, err := a.compressedCode(e.gamma)
	if err != nil {
		return nil, ObjectRead{}, err
	}
	id := a.deltaObjectID(version)
	k := code.K()
	if set == nil {
		set = newShardSet()
	}
	lastErr := set.err
	for attempt := 0; attempt < readAttempts; attempt++ {
		if err := chainAbort(ctx, lastErr); err != nil {
			return nil, ObjectRead{}, err
		}
		if len(set.data) < k {
			candidates := set.missing(a.liveRows(ctx, code, version, set.dead))
			if code.Systematic() {
				candidates = preferSystematic(candidates, k)
			}
			if len(set.data)+len(candidates) < k {
				if err := chainAbort(ctx, lastErr); err != nil {
					return nil, ObjectRead{}, err
				}
				return nil, ObjectRead{}, fmt.Errorf("%w: %d of %d shards of %s", ErrUnavailable, len(set.data)+len(candidates), k, id)
			}
			deficit := k - len(set.data)
			err := a.fetchPlanned(ctx, set, id, version, candidates[:deficit], candidates[deficit:],
				func() bool { return len(set.data) >= k })
			if err != nil {
				lastErr = err
			}
		}
		if len(set.data) >= k {
			rows, shards := set.take(k)
			nz, err := code.DecodeFull(rows, shards)
			if err != nil {
				return nil, ObjectRead{}, err
			}
			cd := delta.CompactDelta{K: a.cfg.K, BlockSize: a.cfg.BlockSize, Support: e.support, Blocks: nz}
			blocks, err := cd.Expand()
			if err != nil {
				return nil, ObjectRead{}, fmt.Errorf("core: expanding compressed delta of version %d: %w", version, err)
			}
			return blocks, ObjectRead{Version: version, Delta: true, Gamma: e.gamma, Reads: set.reads, Compressed: true, Hedges: set.hedges}, nil
		}
	}
	return nil, ObjectRead{}, lastErr
}

// rowRefs maps shard rows of an object to their placement nodes.
func (a *Archive) rowRefs(id string, version int, rows []int) []store.ShardRef {
	refs := make([]store.ShardRef, len(rows))
	for i, row := range rows {
		refs[i] = store.ShardRef{
			Node: a.cfg.Placement.NodeFor(version-1, row),
			ID:   store.ShardID{Object: id, Row: row},
		}
	}
	return refs
}

// readRows fetches the given shard rows of an object, grouped into one
// batch per placement node (per-shard cluster operations when
// Config.DisableBatchIO is set). Results are aligned with rows; each row
// fails or succeeds independently.
func (a *Archive) readRows(ctx context.Context, id string, version int, rows []int) []store.ShardResult {
	refs := a.rowRefs(id, version, rows)
	if a.cfg.DisableBatchIO {
		return a.readRefsPerShard(ctx, refs)
	}
	return a.cluster.GetBatch(ctx, refs)
}

// readRefsPerShard is the pre-batching read path: one cluster Get per
// shard, in parallel when ReadConcurrency > 1.
func (a *Archive) readRefsPerShard(ctx context.Context, refs []store.ShardRef) []store.ShardResult {
	results := make([]store.ShardResult, len(refs))
	if a.cfg.ReadConcurrency > 1 && len(refs) > 1 {
		sem := make(chan struct{}, a.cfg.ReadConcurrency)
		var wg sync.WaitGroup
		for i, ref := range refs {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, ref store.ShardRef) {
				defer wg.Done()
				defer func() { <-sem }()
				data, err := a.cluster.Get(ctx, ref.Node, ref.ID)
				results[i] = store.ShardResult{Data: data, Err: err}
			}(i, ref)
		}
		wg.Wait()
		return results
	}
	for i, ref := range refs {
		data, err := a.cluster.Get(ctx, ref.Node, ref.ID)
		results[i] = store.ShardResult{Data: data, Err: err}
	}
	return results
}

// writeRows stores data[i] under row rows[i] of an object, grouped into
// one batch per placement node. The returned errors are aligned with rows.
func (a *Archive) writeRows(ctx context.Context, id string, version int, rows []int, data [][]byte) []error {
	refs := a.rowRefs(id, version, rows)
	if a.cfg.DisableBatchIO {
		errs := make([]error, len(refs))
		for i, ref := range refs {
			errs[i] = a.cluster.Put(ctx, ref.Node, ref.ID, data[i])
		}
		return errs
	}
	return a.cluster.PutBatch(ctx, refs, data)
}

// liveRows returns the shard rows of an object whose nodes are available,
// skipping rows already known dead this retrieval. It is the readers'
// re-plan probe: one probeNodes round over the object's placement nodes.
func (a *Archive) liveRows(ctx context.Context, code codec, version int, dead map[int]bool) []int {
	rows := make([]int, 0, code.N())
	nodes := make([]int, 0, code.N())
	for row := 0; row < code.N(); row++ {
		if !dead[row] {
			rows = append(rows, row)
			nodes = append(nodes, a.cfg.Placement.NodeFor(version-1, row))
		}
	}
	up := a.probeNodes(ctx, nodes)
	live := rows[:0]
	for i, row := range rows {
		if up[nodes[i]] {
			live = append(live, row)
		}
	}
	return live
}

// probeNodes probes each distinct node of nodes once, concurrently,
// returning which answered. It is the read path's one liveness probe: a
// plan's prefetch and the readers' re-plans (liveRows) both go through
// it, so a probe round costs one ping per node and the slowest node's
// latency, not their sum.
func (a *Archive) probeNodes(ctx context.Context, nodes []int) map[int]bool {
	up := make(map[int]bool, len(nodes))
	var distinct []int
	for _, nd := range nodes {
		if _, ok := up[nd]; !ok {
			up[nd] = false
			distinct = append(distinct, nd)
		}
	}
	avail := make([]bool, len(distinct))
	var wg sync.WaitGroup
	for i, nd := range distinct {
		wg.Add(1)
		go func() {
			defer wg.Done()
			avail[i] = a.cluster.Available(ctx, nd)
		}()
	}
	wg.Wait()
	for i, nd := range distinct {
		up[nd] = avail[i]
	}
	return up
}

// writeObject encodes blocks with the given code and stores every shard,
// one batch per node. Shard buffers are pooled: the encode allocates
// nothing in steady state (cluster nodes copy shard contents on Put).
// Every shard is attempted even when one fails, so a commit interrupted by
// one dead node leaves as few holes as possible; the first failure is
// returned.
func (a *Archive) writeObject(ctx context.Context, code codec, id string, version int, blocks [][]byte, writes *int) error {
	bufs := erasure.GetBuffers(code.N(), blockLenOf(blocks))
	defer bufs.Release()
	if err := code.EncodeInto(blocks, bufs.Blocks); err != nil {
		return err
	}
	rows := make([]int, code.N())
	for row := range rows {
		rows[row] = row
	}
	var firstErr error
	for row, err := range a.writeRows(ctx, id, version, rows, bufs.Blocks) {
		if err == nil {
			*writes++
			continue
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("core: writing %s#%d to node %d: %w", id, row, a.cfg.Placement.NodeFor(version-1, row), err)
		}
	}
	return firstErr
}

// deleteObject removes an object's shards best-effort, one delete batch
// per placement node, returning how many could not be deleted. A shard
// already absent (ErrNotFound) counts as deleted: the goal is that the
// shard is gone, not that this call removed it.
func (a *Archive) deleteObject(ctx context.Context, code codec, id string, version int) (orphans int) {
	rows := make([]int, code.N())
	for row := range rows {
		rows[row] = row
	}
	refs := a.rowRefs(id, version, rows)
	var errs []error
	if a.cfg.DisableBatchIO {
		errs = make([]error, len(refs))
		for i, ref := range refs {
			n, err := a.cluster.Node(ref.Node)
			if err != nil {
				errs[i] = err
				continue
			}
			errs[i] = n.Delete(ctx, ref.ID)
		}
	} else {
		errs = a.cluster.DeleteBatch(ctx, refs)
	}
	for _, err := range errs {
		if err != nil && !errors.Is(err, store.ErrNotFound) {
			orphans++
		}
	}
	return orphans
}

// ensureNodes grows the cluster for the placement's needs before a commit.
func (a *Archive) ensureNodes(version int) error {
	return a.cluster.EnsureSize(a.cfg.Placement.NodesRequired(version, a.cfg.N))
}

// restoreCacheLocked rebuilds the latest-version cache from storage after
// the archive was reopened from a manifest.
func (a *Archive) restoreCacheLocked(ctx context.Context) error {
	var stats RetrievalStats
	blocks, err := a.retrieveBlocksLocked(ctx, len(a.entries), &stats)
	if err != nil {
		return err
	}
	a.cache = blocks
	a.cacheLen = a.entries[len(a.entries)-1].length
	return nil
}

func (a *Archive) setCache(blocks [][]byte, length int) {
	a.cache = delta.Clone(blocks)
	a.cacheLen = length
}

// preferSystematic reorders live rows so identity rows come first,
// preserving relative order within each class: systematic decodes are then
// plain copies whenever enough data shards are alive.
func preferSystematic(rows []int, k int) []int {
	ordered := make([]int, 0, len(rows))
	for _, r := range rows {
		if r < k {
			ordered = append(ordered, r)
		}
	}
	for _, r := range rows {
		if r >= k {
			ordered = append(ordered, r)
		}
	}
	return ordered
}

// blockLenOf returns the uniform block length of a non-empty block vector
// (codecs validate uniformity; k is always positive).
func blockLenOf(blocks [][]byte) int {
	if len(blocks) == 0 {
		return 0
	}
	return len(blocks[0])
}

func fullID(name string, version int) string {
	return fmt.Sprintf("%s/v%d-full", name, version)
}

func deltaID(name string, version int) string {
	return fmt.Sprintf("%s/v%d-delta", name, version)
}

// rebasedDeltaID names a delta object whose base is not the chain
// predecessor. The base is part of the object name so a compaction that
// rebases a version writes a fresh object: until the manifest swap, the
// old chain remains fully readable, and afterwards the old object is
// garbage-collected by name.
func rebasedDeltaID(name string, version, base int) string {
	return fmt.Sprintf("%s/v%d-delta-b%d", name, version, base)
}

// baseOf returns the version the given version's delta applies to:
// entry.base when set, the chain predecessor otherwise.
func (a *Archive) baseOf(version int) int {
	if b := a.entries[version-1].base; b != 0 {
		return b
	}
	return version - 1
}

// deltaObjectID returns the stored object name of a version's delta,
// accounting for compaction rebases.
func (a *Archive) deltaObjectID(version int) string {
	if b := a.entries[version-1].base; b != 0 && b != version-1 {
		return rebasedDeltaID(a.cfg.Name, version, b)
	}
	return deltaID(a.cfg.Name, version)
}
