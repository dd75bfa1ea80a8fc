package core

import (
	"context"
	"fmt"

	"github.com/secarchive/sec/internal/delta"
)

// This file implements the chain-lifecycle subsystem: bounding how deep
// any version sits in the delta chain. Unbounded chains make both the
// paper's retrieval cost (formula (3)) and repair traffic grow linearly
// with every commit; Section IV-D leaves merging delta codewords as future
// work, and this is that mechanism. Compaction rebases over-deep versions
// onto their nearest full anchor with a merged (XOR-composed) delta whose
// sparsity is recomputed, promotes merged deltas too dense to sparse-read
// into full checkpoints, swaps the manifest atomically, and
// garbage-collects the superseded delta codewords from the cluster.

// CompactionInfo reports what a compaction pass changed.
type CompactionInfo struct {
	// MaxChainLength is the chain-depth bound the pass enforced.
	MaxChainLength int
	// Rebased lists the versions whose deltas were replaced by a merged
	// delta against a full anchor (ascending).
	Rebased []int
	// Promoted lists the versions whose merged delta was dense enough to
	// be promoted to a full checkpoint instead (ascending).
	Promoted []int
	// ShardWrites counts shards written for merged deltas and checkpoints.
	ShardWrites int
	// ShardsDeleted counts superseded shards confirmed gone from their
	// nodes (deleted by this pass, or already absent).
	ShardsDeleted int
	// OrphanShards counts superseded shards that could not be deleted
	// (their nodes were down); they are garbage, not a correctness
	// problem, and a later pass or scrub can reclaim them.
	OrphanShards int
	// SupersededShards counts shards of superseded codewords queued for a
	// later ReclaimSupersededContext instead of deleted by this pass (the
	// CompactKeepSupersededContext flow, which lets the caller persist the
	// new manifest before anything the old manifest references is removed).
	SupersededShards int
	// NodeReads counts the shard reads spent materializing versions for
	// merging, the maintenance cost of the pass.
	NodeReads int
	// PlannedReadGain sums, over every rewritten version, how many planned
	// node reads one retrieval of it saves versus the old chain (the
	// delta.MergeGain of each merge; promotions count their whole old
	// delta walk as saved).
	PlannedReadGain int
}

// Changed reports whether the pass rewrote anything.
func (i CompactionInfo) Changed() bool {
	return len(i.Rebased)+len(i.Promoted) > 0
}

// CompactContext bounds every version's chain depth to the configured
// MaxChainLength; see CompactToContext. It fails if Config.MaxChainLength
// is unset.
func (a *Archive) CompactContext(ctx context.Context) (CompactionInfo, error) {
	if a.cfg.MaxChainLength <= 0 {
		return CompactionInfo{}, fmt.Errorf("core: CompactContext needs Config.MaxChainLength > 0 (or use CompactToContext)")
	}
	return a.CompactToContext(ctx, a.cfg.MaxChainLength)
}

// CompactKeepSupersededContext runs the same pass as CompactToContext but
// leaves the superseded delta codewords on the nodes, queued on the
// archive for a later ReclaimSupersededContext. Until the reclaim, the
// pre-compaction manifest and the new one BOTH describe fully readable
// chains, so a caller that must persist its manifest between the swap and
// the garbage collection (seccli does) is crash-safe at every step: a
// crash before the reclaim costs only orphan shards, never a manifest
// referencing deleted objects.
func (a *Archive) CompactKeepSupersededContext(ctx context.Context, maxLen int) (CompactionInfo, error) {
	if maxLen < 1 {
		return CompactionInfo{}, fmt.Errorf("core: max chain length %d must be positive", maxLen)
	}
	//lint:allow lockheld compaction mutates the version chain; the archive write lock must cover the whole rewrite
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.compactLocked(ctx, maxLen, true)
}

// ReclaimSupersededContext deletes the codewords superseded by earlier
// CompactKeepSupersededContext passes (and any deletions a previous
// reclaim could not complete), one delete batch per node. Call it after
// the post-compaction manifest is safely persisted. It returns how many
// shards were confirmed gone and how many remain orphaned on unreachable
// nodes; objects with orphans stay queued for the next reclaim. While the
// last ReplicateManifest missed its write quorum, reclaim deletes nothing
// and the queue waits for a replication that reaches one.
func (a *Archive) ReclaimSupersededContext(ctx context.Context) (deleted, orphans int, err error) {
	//lint:allow lockheld reclaim deletes superseded shards; the archive write lock must cover the whole sweep
	a.mu.Lock()
	defer a.mu.Unlock()
	deleted, orphans = a.reclaimLocked(ctx)
	if err := ctx.Err(); err != nil && orphans > 0 {
		return deleted, orphans, fmt.Errorf("core: reclaim interrupted: %w", err)
	}
	return deleted, orphans, nil
}

// unqueueSuperseded drops any pending garbage-collection entry for the
// given object name: the name has just been rewritten with live content.
// Caller holds the write lock.
func (a *Archive) unqueueSuperseded(id string) {
	out := a.superseded[:0]
	for _, g := range a.superseded {
		if g.id != id {
			out = append(out, g)
		}
	}
	a.superseded = out
}

// reclaimLocked drains the superseded-object queue best effort; objects
// whose deletion left orphans are re-queued. It waits (deletes nothing)
// while a stale manifest replica may still name the queued objects.
// Caller holds the write lock.
func (a *Archive) reclaimLocked(ctx context.Context) (deleted, orphans int) {
	if a.replicaLag.Load() {
		return 0, 0
	}
	pending := a.superseded
	a.superseded = nil
	for _, g := range pending {
		code := g.code
		if code == nil {
			code = a.deltaCode
		}
		o := a.deleteObject(ctx, code, g.id, g.version)
		orphans += o
		deleted += code.N() - o
		if o > 0 {
			a.superseded = append(a.superseded, g)
		}
	}
	return deleted, orphans
}

// CompactToContext rewrites the chain so that no version's retrieval needs
// more than maxLen delta applications, under the context's deadline and
// cancellation. Versions deeper than maxLen are rebased: the deltas
// between the version and its nearest full anchor are merged into one
// anchor-relative delta (stored as a fresh codeword), or - when the merged
// delta's recomputed sparsity exceeds the promotion limit (see
// Config.CompactGammaLimit) - the version is promoted to a full
// checkpoint. Every version remains retrievable byte-identically
// throughout.
//
// New codewords are written under fresh object names first and the
// in-memory manifest is swapped atomically (a concurrent Save or
// SaveToCluster sees either the old chain or the new one, both fully
// readable); a pass interrupted before the swap leaves the old chain
// untouched plus some orphan shards that the next successful pass
// overwrites. Only after the swap are the superseded delta codewords
// deleted from the cluster, one delete batch per node - which means a
// caller whose manifest persistence happens AFTER CompactToContext
// returns has a window where a crash leaves its persisted manifest
// naming deleted objects. Callers that need persistence ordered between
// the swap and the garbage collection should use
// CompactKeepSupersededContext followed by ReclaimSupersededContext.
//
// Compaction holds the archive lock for the whole pass (it materializes
// every version it rebases), so it is a maintenance operation to schedule
// like scrub and repair, not a hot-path call.
func (a *Archive) CompactToContext(ctx context.Context, maxLen int) (CompactionInfo, error) {
	if maxLen < 1 {
		return CompactionInfo{}, fmt.Errorf("core: max chain length %d must be positive", maxLen)
	}
	//lint:allow lockheld compaction mutates the version chain; the archive write lock must cover the whole rewrite
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.compactLocked(ctx, maxLen, false)
}

// compactLocked runs one compaction pass. With keepSuperseded the
// replaced codewords are queued for a later reclaim instead of deleted.
// Caller holds the write lock.
func (a *Archive) compactLocked(ctx context.Context, maxLen int, keepSuperseded bool) (CompactionInfo, error) {
	info := CompactionInfo{MaxChainLength: maxLen}
	depths, _, err := a.chainDepths()
	if err != nil {
		return info, err
	}
	var targets []int
	for v := 1; v <= len(a.entries); v++ {
		if depths[v] > maxLen {
			targets = append(targets, v)
		}
	}
	if len(targets) == 0 {
		// Nothing to rewrite - but a reclaiming pass still drains objects
		// queued by earlier keep-superseded passes, so "run compaction
		// again" always frees what previous passes left behind.
		if !keepSuperseded {
			info.ShardsDeleted, info.OrphanShards = a.reclaimLocked(ctx)
		}
		return info, nil
	}

	var stats RetrievalStats
	mat, err := a.materialize(ctx, a.compactionPlan(), &stats)
	if err != nil {
		return info, fmt.Errorf("core: compaction aborted while materializing the chain: %w", err)
	}
	info.NodeReads = stats.NodeReads

	limit := a.cfg.CompactGammaLimit
	if limit == 0 {
		limit = a.deltaCode.MaxSparseGamma()
	}

	// Plan and write against a working copy; a.entries stays untouched (and
	// every version readable from the old objects) until everything new is
	// durably stored.
	next := append([]entry(nil), a.entries...)
	var superseded []gcObject
	for _, v := range targets {
		// Every version that violated the bound is pinned at depth <= 1: a
		// merged delta straight off an anchor, or a checkpoint. Re-derive
		// the nearest anchor against the working chain - a checkpoint
		// promoted earlier in this pass may be closer now, giving a sparser
		// merge. Rebasing all violators (rather than the minimal set) is
		// what leaves their old chain deltas unreferenced, so the pass can
		// reclaim them.
		_, anchorOf, err := chainDepthsOf(next)
		if err != nil {
			return info, err
		}
		anchor := anchorOf[v]
		if next[v-1].hasDelta && entryBase(next, v) == anchor {
			continue // already based exactly at its nearest anchor
		}
		merged, err := delta.Compute(mat[anchor], mat[v])
		if err != nil {
			return info, err
		}
		gamma := delta.Sparsity(merged)
		// Price the rewrite with the shared cost model: the old chain walk
		// to v (planned against the still-unswapped entries, pricing each
		// stored form - compressed deltas cost gamma, plain ones
		// min(2*gamma, k) or k) versus one read of the rewritten entry
		// (zero for a promotion, which anchors v outright). On chains
		// without compression this is exactly delta.MergeGain of the walk's
		// gammas.
		if oldPlan, err := a.planChain(v); err == nil {
			newCost := 0
			if gamma <= limit {
				if a.compressEligible(gamma) {
					newCost = delta.CompressedReadCost(gamma)
				} else {
					newCost = a.plannedDeltaReads(gamma)
				}
			}
			info.PlannedReadGain += (oldPlan.cost - a.cfg.K) - newCost
		}
		oldID := ""
		var oldCode codec
		if next[v-1].hasDelta {
			oldID = a.deltaObjectID(v)
			if c, cerr := a.entryDeltaCode(a.entries[v-1]); cerr == nil {
				oldCode = c
			}
		}
		if gamma > limit {
			// Dense merged delta: a sparse read could not serve it, so a
			// full checkpoint costs the same k reads while restoring full
			// resilience - promote.
			if err := a.writeObject(ctx, a.code, fullID(a.cfg.Name, v), v, mat[v], &info.ShardWrites); err != nil {
				return info, err
			}
			next[v-1].hasFull = true
			next[v-1].checkpoint = true
			next[v-1].hasDelta = false
			next[v-1].gamma = 0
			next[v-1].base = 0
			next[v-1].compressed = false
			next[v-1].support = nil
			info.Promoted = append(info.Promoted, v)
		} else {
			newID := rebasedDeltaID(a.cfg.Name, v, anchor)
			if anchor == v-1 {
				// A promotion above turned the chain predecessor into the
				// nearest anchor: the merged delta IS the original chain
				// delta, stored under its original name.
				newID = deltaID(a.cfg.Name, v)
			}
			if a.compressEligible(gamma) {
				// Re-compress the merged delta: compaction preserves the
				// archive's storage policy, so a compressed chain stays
				// compressed through rebases.
				cd, err := delta.Compact(merged)
				if err != nil {
					return info, err
				}
				ccode, err := a.compressedCode(gamma)
				if err != nil {
					return info, err
				}
				if err := a.writeObject(ctx, ccode, newID, v, cd.Blocks, &info.ShardWrites); err != nil {
					return info, err
				}
				next[v-1].compressed = true
				next[v-1].support = cd.Support
			} else {
				if err := a.writeObject(ctx, a.deltaCode, newID, v, merged, &info.ShardWrites); err != nil {
					return info, err
				}
				next[v-1].compressed = false
				next[v-1].support = nil
			}
			// The name just written is live again: if an earlier
			// keep-superseded pass queued the same name for reclaim (a
			// re-rebase back onto a previously used base), deleting it now
			// would destroy the object the new manifest references.
			a.unqueueSuperseded(newID)
			next[v-1].hasDelta = true
			next[v-1].gamma = gamma
			next[v-1].base = anchor
			info.Rebased = append(info.Rebased, v)
		}
		if oldID != "" {
			superseded = append(superseded, gcObject{id: oldID, version: v, code: oldCode})
		}
	}

	// Every compacted chain still reaches every version? Refuse to swap a
	// manifest that would strand one - this cannot happen for the rebase
	// moves above, but the invariant is cheap to hold on to.
	if _, _, err := chainDepthsOf(next); err != nil {
		return info, fmt.Errorf("core: compaction would strand a version: %w", err)
	}

	// The manifest swap: one assignment under the write lock. From here on
	// retrievals plan against the compacted chain only.
	a.entries = next
	a.generation++
	a.invalidateReadCache()

	// Garbage-collect the superseded delta codewords - nothing in the new
	// manifest points at them anymore. With keepSuperseded they are queued
	// for ReclaimSupersededContext instead, so the caller can persist the
	// new manifest while the old chain is still whole; otherwise deletion
	// failures leave orphans queued for a later reclaim, never dangling
	// references.
	a.superseded = append(a.superseded, superseded...)
	if keepSuperseded {
		for _, g := range superseded {
			if g.code != nil {
				info.SupersededShards += g.code.N()
			} else {
				info.SupersededShards += a.deltaCode.N()
			}
		}
		return info, nil
	}
	info.ShardsDeleted, info.OrphanShards = a.reclaimLocked(ctx)
	return info, nil
}

// entryBase returns the version entries[v-1]'s delta applies to (the
// chain predecessor when unset).
func entryBase(entries []entry, v int) int {
	if b := entries[v-1].base; b != 0 {
		return b
	}
	return v - 1
}

// chainDepths maps every version to its minimum delta-hop distance from a
// full codeword under the current manifest.
func (a *Archive) chainDepths() (depths, anchorOf []int, err error) {
	return chainDepthsOf(a.entries)
}

// chainDepthsOf runs a breadth-first search from every version with a full
// codeword across the delta edges (each stored delta connects its base and
// its version, usable in both directions). depths[v] is the number of
// delta applications the shallowest retrieval of v needs; anchorOf[v] is
// the anchor it starts from (ties resolved toward the smaller anchor, then
// the smaller intermediate version, so results are deterministic). An
// unreachable version is an error: it would be unretrievable.
func chainDepthsOf(entries []entry) (depths, anchorOf []int, err error) {
	L := len(entries)
	adj := make([][]int, L+1)
	for j := 1; j <= L; j++ {
		e := entries[j-1]
		if !e.hasDelta {
			continue
		}
		b := e.base
		if b == 0 {
			b = j - 1
		}
		if b < 1 || b > L || b == j {
			return nil, nil, fmt.Errorf("core: version %d has invalid delta base %d", j, b)
		}
		adj[b] = append(adj[b], j)
		adj[j] = append(adj[j], b)
	}
	depths = make([]int, L+1)
	anchorOf = make([]int, L+1)
	for v := range depths {
		depths[v] = -1
	}
	var queue []int
	for v := 1; v <= L; v++ {
		if entries[v-1].hasFull {
			depths[v] = 0
			anchorOf[v] = v
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range adj[u] {
			if depths[w] != -1 {
				continue
			}
			depths[w] = depths[u] + 1
			anchorOf[w] = anchorOf[u]
			queue = append(queue, w)
		}
	}
	for v := 1; v <= L; v++ {
		if depths[v] == -1 {
			return nil, nil, fmt.Errorf("core: version %d unreachable from any full version", v)
		}
	}
	return depths, anchorOf, nil
}

// maxDepth returns the deepest chain position (0 for an empty archive).
func maxDepth(depths []int) int {
	deepest := 0
	for _, d := range depths[1:] {
		if d > deepest {
			deepest = d
		}
	}
	return deepest
}

// ChainDepth returns how many delta applications the shallowest retrieval
// of version l needs (0 when its full codeword is stored). It is the
// quantity MaxChainLength bounds.
func (a *Archive) ChainDepth(l int) (int, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if l < 1 || l > len(a.entries) {
		return 0, fmt.Errorf("%w: %d of %d", ErrNoSuchVersion, l, len(a.entries))
	}
	depths, _, err := a.chainDepths()
	if err != nil {
		return 0, err
	}
	return depths[l], nil
}

// ChainStats reports every version's chain depth and planned read cost
// (formula (3)) in one BFS plus one Dijkstra pass, for callers
// summarizing whole archives (seccli info); element i describes version
// i+1. Calling ChainDepth and PlannedReads per version would redo the
// graph work L times over.
func (a *Archive) ChainStats() (depths, plannedReads []int, err error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	L := len(a.entries)
	if L == 0 {
		return nil, nil, nil
	}
	allDepths, _, err := a.chainDepths()
	if err != nil {
		return nil, nil, err
	}
	dist, _, _, _, err := a.planAll(0) // exhaustive: prices every version
	if err != nil {
		return nil, nil, err
	}
	for v := 1; v <= L; v++ {
		if dist[v] == unreachedCost {
			return nil, nil, fmt.Errorf("core: version %d unreachable from any full version", v)
		}
	}
	return allDepths[1:], dist[1 : L+1], nil
}

// compactionPlan lists the reads that materialize every version with the
// fewest reads a single pass can manage: each full codeword is read once,
// then versions spread outward from the anchors one delta application per
// step (a breadth-first walk over the delta edges), so the total cost is
// one full read per anchor plus one delta read per stored delta. Caller
// has checked that every version is reachable (chainDepths).
func (a *Archive) compactionPlan() []readStep {
	L := len(a.entries)
	type edge struct{ to, via int }
	adj := make([][]edge, L+1)
	for j := 1; j <= L; j++ {
		if !a.entries[j-1].hasDelta {
			continue
		}
		b := a.baseOf(j)
		adj[b] = append(adj[b], edge{to: j, via: j})
		adj[j] = append(adj[j], edge{to: b, via: j})
	}
	reached := make([]bool, L+1)
	var steps []readStep
	var queue []int
	for v := 1; v <= L; v++ {
		if a.entries[v-1].hasFull {
			steps = append(steps, readStep{version: v, to: v})
			reached[v] = true
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range adj[u] {
			if reached[e.to] {
				continue
			}
			steps = append(steps, readStep{version: e.via, delta: true, from: u, to: e.to})
			reached[e.to] = true
			queue = append(queue, e.to)
		}
	}
	return steps
}
