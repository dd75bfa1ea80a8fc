package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// Manifest is the serializable description of an archive: everything needed
// to reopen it against the same cluster. The manifest is the client-side
// metadata the paper assumes (version count and per-delta sparsity levels
// gamma_j, which retrieval needs to size its sparse reads).
type Manifest struct {
	Name           string `json:"name"`
	Scheme         string `json:"scheme"`
	Code           string `json:"code"`
	Field          string `json:"field,omitempty"`
	N              int    `json:"n"`
	K              int    `json:"k"`
	BlockSize      int    `json:"block_size"`
	PunctureDeltas int    `json:"puncture_deltas,omitempty"`
	Placement      string `json:"placement"`
	// MaxChainLength, CheckpointEvery, and CompactGammaLimit persist the
	// chain-lifecycle policy (see Config) so an archive reopened from its
	// manifest keeps compacting the way it was created to.
	MaxChainLength    int `json:"max_chain_length,omitempty"`
	CheckpointEvery   int `json:"checkpoint_every,omitempty"`
	CompactGammaLimit int `json:"compact_gamma_limit,omitempty"`
	// CompressDeltas, CompressGammaMax, and ReadCacheBytes persist the CDEC
	// compression policy and the decoded-version cache budget (see Config)
	// so a reopened archive keeps storing and serving the way it was
	// created to. All three are absent from pre-compression manifests,
	// which unmarshal to the defaults (both features off).
	CompressDeltas   bool `json:"compress_deltas,omitempty"`
	CompressGammaMax int  `json:"compress_gamma_max,omitempty"`
	ReadCacheBytes   int  `json:"read_cache_bytes,omitempty"`

	// Generation counts the archive's manifest mutations (commits and
	// compaction swaps), so a reload can tell the freshest replica from a
	// stale one even when both list the same number of entries. Manifests
	// written before generations existed unmarshal to 0.
	Generation uint64          `json:"generation,omitempty"`
	Entries    []ManifestEntry `json:"entries"`
}

// ManifestEntry describes one version's stored objects.
type ManifestEntry struct {
	Version int  `json:"version"`
	Full    bool `json:"full"`
	Delta   bool `json:"delta"`
	Gamma   int  `json:"gamma"`
	Length  int  `json:"length"`
	// Base is the version the delta applies to; 0 means the chain
	// predecessor (version-1). Compaction rebases deltas onto anchors and
	// records the anchor here.
	Base int `json:"base,omitempty"`
	// Checkpoint marks a lifecycle-placed full codeword that Reversed SEC
	// must not delete when the chain tip moves on.
	Checkpoint bool `json:"checkpoint,omitempty"`
	// Compressed marks a delta stored in CDEC-compacted form: the
	// codeword encodes only the Gamma non-zero blocks with a
	// (Gamma+N-K, Gamma) code. Support lists those blocks' indices
	// (strictly increasing), the client-side metadata retrieval needs to
	// expand the decoded vector. Both fields are absent for uncompressed
	// entries, so manifests written before compression existed reopen
	// unchanged.
	Compressed bool  `json:"compressed,omitempty"`
	Support    []int `json:"support,omitempty"`
}

// Manifest captures the archive's current state.
func (a *Archive) Manifest() Manifest {
	a.mu.RLock()
	defer a.mu.RUnlock()
	m := Manifest{
		Name:              a.cfg.Name,
		Scheme:            a.cfg.Scheme.String(),
		Code:              a.cfg.Code.String(),
		Field:             a.cfg.Field.String(),
		N:                 a.cfg.N,
		K:                 a.cfg.K,
		BlockSize:         a.cfg.BlockSize,
		PunctureDeltas:    a.cfg.PunctureDeltas,
		Placement:         a.cfg.Placement.Name(),
		MaxChainLength:    a.cfg.MaxChainLength,
		CheckpointEvery:   a.cfg.CheckpointEvery,
		CompactGammaLimit: a.cfg.CompactGammaLimit,
		CompressDeltas:    a.cfg.CompressDeltas,
		CompressGammaMax:  a.cfg.CompressGammaMax,
		ReadCacheBytes:    a.cfg.ReadCacheBytes,
		Generation:        a.generation,
		Entries:           make([]ManifestEntry, len(a.entries)),
	}
	for i, e := range a.entries {
		base := 0
		if e.hasDelta && e.base != 0 && e.base != i {
			base = e.base // i is version-1: only non-default bases persist
		}
		m.Entries[i] = ManifestEntry{
			Version:    i + 1,
			Full:       e.hasFull,
			Delta:      e.hasDelta,
			Gamma:      e.gamma,
			Length:     e.length,
			Base:       base,
			Checkpoint: e.checkpoint,
			Compressed: e.compressed,
			Support:    append([]int(nil), e.support...),
		}
	}
	return m
}

// Save writes the manifest as one line of compact JSON. Load also
// accepts the indented form earlier versions wrote.
func (a *Archive) Save(w io.Writer) error {
	a.manifestEncodes.Add(1)
	if err := json.NewEncoder(w).Encode(a.Manifest()); err != nil {
		return fmt.Errorf("core: encoding manifest: %w", err)
	}
	return nil
}

// ManifestEncodes reports how many times the archive's manifest has been
// encoded (Save calls, including SaveToClusterContext's) since it was
// opened.
func (a *Archive) ManifestEncodes() uint64 { return a.manifestEncodes.Load() }

// Open reconstructs an archive from its manifest against a cluster holding
// its shards. The latest-version cache is restored lazily on the next
// Commit.
func Open(m Manifest, cluster *store.Cluster) (*Archive, error) {
	scheme, err := ParseScheme(m.Scheme)
	if err != nil {
		return nil, err
	}
	kind, err := erasure.ParseKind(m.Code)
	if err != nil {
		return nil, err
	}
	field, err := ParseField(m.Field)
	if err != nil {
		return nil, err
	}
	placement, err := parsePlacement(m.Placement, m.N)
	if err != nil {
		return nil, err
	}
	cfg := Config{
		Name:              m.Name,
		Scheme:            scheme,
		Code:              kind,
		Field:             field,
		N:                 m.N,
		K:                 m.K,
		BlockSize:         m.BlockSize,
		Placement:         placement,
		PunctureDeltas:    m.PunctureDeltas,
		MaxChainLength:    m.MaxChainLength,
		CheckpointEvery:   m.CheckpointEvery,
		CompactGammaLimit: m.CompactGammaLimit,
		CompressDeltas:    m.CompressDeltas,
		CompressGammaMax:  m.CompressGammaMax,
		ReadCacheBytes:    m.ReadCacheBytes,
	}
	a, err := New(cfg, cluster)
	if err != nil {
		return nil, err
	}
	a.generation = m.Generation
	a.entries = make([]entry, len(m.Entries))
	for i, me := range m.Entries {
		if me.Version != i+1 {
			return nil, fmt.Errorf("core: manifest entry %d has version %d", i, me.Version)
		}
		if me.Gamma < 0 || me.Gamma > m.K {
			return nil, fmt.Errorf("core: manifest version %d has invalid gamma %d", me.Version, me.Gamma)
		}
		if me.Length < 0 || me.Length > m.K*m.BlockSize {
			return nil, fmt.Errorf("core: manifest version %d has invalid length %d", me.Version, me.Length)
		}
		if me.Base != 0 {
			if !me.Delta {
				return nil, fmt.Errorf("core: manifest version %d has a delta base but no delta", me.Version)
			}
			if me.Base < 1 || me.Base > len(m.Entries) || me.Base == me.Version {
				return nil, fmt.Errorf("core: manifest version %d has invalid delta base %d", me.Version, me.Base)
			}
		}
		if me.Compressed {
			if !me.Delta {
				return nil, fmt.Errorf("core: manifest version %d is compressed but stores no delta", me.Version)
			}
			if me.Gamma < 1 || me.Gamma > m.K-1 {
				return nil, fmt.Errorf("core: manifest version %d compressed with invalid gamma %d", me.Version, me.Gamma)
			}
			if len(me.Support) != me.Gamma {
				return nil, fmt.Errorf("core: manifest version %d has %d support indices for gamma %d", me.Version, len(me.Support), me.Gamma)
			}
			prev := -1
			for _, s := range me.Support {
				if s < 0 || s >= m.K || s <= prev {
					return nil, fmt.Errorf("core: manifest version %d has invalid support %v", me.Version, me.Support)
				}
				prev = s
			}
		} else if len(me.Support) != 0 {
			return nil, fmt.Errorf("core: manifest version %d has a support list but is not compressed", me.Version)
		}
		a.entries[i] = entry{
			hasFull:    me.Full,
			hasDelta:   me.Delta,
			gamma:      me.Gamma,
			length:     me.Length,
			base:       me.Base,
			checkpoint: me.Checkpoint,
			compressed: me.Compressed,
			support:    append([]int(nil), me.Support...),
		}
	}
	// A version may store neither a full nor its own delta (Reversed SEC
	// reaches version 1 through version 2's delta), but every version must
	// be reachable from some full codeword along the delta graph.
	if len(a.entries) > 0 {
		if _, _, err := a.chainDepths(); err != nil {
			return nil, fmt.Errorf("core: manifest describes an unretrievable chain: %w", err)
		}
	}
	if err := cluster.EnsureSize(placement.NodesRequired(max(len(m.Entries), 1), m.N)); err != nil {
		return nil, err
	}
	return a, nil
}

// Load reads a JSON manifest and opens the archive.
func Load(r io.Reader, cluster *store.Cluster) (*Archive, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("core: decoding manifest: %w", err)
	}
	return Open(m, cluster)
}

// manifestID returns the reserved object name for cluster-stored
// manifests.
func manifestID(name string) string { return name + "/manifest" }

// SaveToClusterContext encodes the manifest and replicates it with
// ReplicateManifest, making the archive self-contained: a client holding
// only the archive name and node addresses can reopen it with
// LoadFromClusterContext.
func (a *Archive) SaveToClusterContext(ctx context.Context) error {
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		return err
	}
	return a.ReplicateManifest(ctx, buf.Bytes())
}

// ReplicateManifest writes data, the archive's manifest as Save encoded
// it, to every cluster node in one concurrent batch (one ref per node,
// with the cluster's retry policy and health accounting). The manifest is
// tiny metadata, so plain replication (not erasure coding) maximizes its
// availability. It fails unless a write quorum of N-K+1 nodes accepted
// the bytes - enough that some replica of this generation outlives any
// N-K node faults - and until a later call reaches a quorum, reclaim
// leaves superseded codewords queued, since the stale replicas may still
// name them.
func (a *Archive) ReplicateManifest(ctx context.Context, data []byte) error {
	id := store.ShardID{Object: manifestID(a.cfg.Name)}
	refs := make([]store.ShardRef, a.cluster.Size())
	payloads := make([][]byte, len(refs))
	for node := range refs {
		refs[node] = store.ShardRef{Node: node, ID: id}
		payloads[node] = data
	}
	written := 0
	var failed error
	for _, err := range a.cluster.PutBatch(ctx, refs, payloads) {
		if err == nil {
			written++
		} else {
			failed = err
		}
	}
	quorum := a.cfg.N - a.cfg.K + 1
	a.replicaLag.Store(written < quorum)
	if written < quorum {
		return fmt.Errorf("core: manifest for %q reached %d of %d nodes, below the write quorum of %d: %w",
			a.cfg.Name, written, len(refs), quorum, failed)
	}
	return nil
}

// LoadFromClusterContext reopens the named archive from manifest replicas
// stored with SaveToClusterContext, reading every node's replica in one
// concurrent batch. It opens the highest generation; replicas without one
// (written before generations existed) fall back to the most entries.
// Replicas on nodes that missed a save lag behind, and damaged ones are
// skipped.
func LoadFromClusterContext(ctx context.Context, name string, cluster *store.Cluster) (*Archive, error) {
	id := store.ShardID{Object: manifestID(name)}
	refs := make([]store.ShardRef, cluster.Size())
	for node := range refs {
		refs[node] = store.ShardRef{Node: node, ID: id}
	}
	var best *Manifest
	for _, res := range cluster.GetBatch(ctx, refs) {
		if res.Err != nil {
			continue
		}
		var m Manifest
		if err := json.Unmarshal(res.Data, &m); err != nil {
			continue // damaged replica
		}
		if best == nil || m.Generation > best.Generation ||
			m.Generation == best.Generation && len(m.Entries) > len(best.Entries) {
			best = &m
		}
	}
	if best == nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: loading manifest for %q: %w", name, err)
		}
		return nil, fmt.Errorf("core: no manifest replica for %q found on %d nodes", name, cluster.Size())
	}
	return Open(*best, cluster)
}

func parsePlacement(name string, n int) (store.Placement, error) {
	switch name {
	case "", store.ColocatedPlacement{}.Name():
		return store.ColocatedPlacement{}, nil
	case (store.DispersedPlacement{}).Name():
		return store.DispersedPlacement{N: n}, nil
	default:
		return nil, fmt.Errorf("core: unknown placement %q", name)
	}
}
