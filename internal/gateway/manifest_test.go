package gateway

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/testutil"
	"github.com/secarchive/sec/internal/transport"
)

// manifestNode is an in-memory node that counts the put calls carrying an
// archive's replicated manifest and, while reject is set, refuses them as
// if it were down (its other shards are served normally).
type manifestNode struct {
	*store.MemNode
	puts   atomic.Int64
	reject atomic.Bool
}

func isManifest(id store.ShardID) bool { return strings.HasSuffix(id.Object, "/manifest") }

func (n *manifestNode) Put(ctx context.Context, id store.ShardID, data []byte) error {
	return n.PutBatch(ctx, []store.ShardID{id}, [][]byte{data})[0]
}

func (n *manifestNode) PutBatch(ctx context.Context, ids []store.ShardID, data [][]byte) []error {
	if !slices.ContainsFunc(ids, isManifest) {
		return n.MemNode.PutBatch(ctx, ids, data)
	}
	n.puts.Add(1)
	if n.reject.Load() {
		errs := make([]error, len(ids))
		for i := range errs {
			errs[i] = fmt.Errorf("manifest put rejected on %s: %w", n.ID(), store.ErrNodeDown)
		}
		return errs
	}
	return n.MemNode.PutBatch(ctx, ids, data)
}

func newManifestNodes(n int) []*manifestNode {
	nodes := make([]*manifestNode, n)
	for i := range nodes {
		nodes[i] = &manifestNode{MemNode: store.NewMemNode(fmt.Sprintf("mem-%d", i))}
	}
	return nodes
}

// manifestCluster puts the nodes into one in-process cluster.
func manifestCluster(nodes []*manifestNode) *store.Cluster {
	members := make([]store.Node, len(nodes))
	for i, n := range nodes {
		members[i] = n
	}
	return store.NewCluster(members)
}

// replica reads the archive's manifest replica straight off a node.
func replica(t *testing.T, n *manifestNode, name string) []byte {
	t.Helper()
	data, err := n.MemNode.Get(t.Context(), store.ShardID{Object: name + "/manifest"})
	if err != nil {
		t.Fatalf("%s: reading the manifest replica: %v", n.ID(), err)
	}
	return data
}

// TestCommitSavesManifestOnceOverTCP pins the per-commit metadata path of
// a gateway over twelve loopback TCP nodes: the manifest is encoded once,
// sent to every node in exactly one put RPC, and the local file and every
// replica hold the same single-line bytes.
func TestCommitSavesManifestOnceOverTCP(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	nodes := newManifestNodes(12)
	remotes := make([]store.Node, len(nodes))
	for i, n := range nodes {
		srv := transport.NewServer(n)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		remote := transport.NewRemoteNode(fmt.Sprintf("remote-%d", i), addr.String())
		t.Cleanup(func() {
			_ = remote.Close()
			_ = srv.Close()
		})
		remotes[i] = remote
	}
	root := t.TempDir()
	g, err := New(Config{Cluster: store.NewCluster(remotes), Root: root})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close(context.Background()) })
	ctx := t.Context()
	spec := transport.ArchiveSpec{N: 12, K: 10, BlockSize: 64, CompressDeltas: true}
	if _, err := g.Create(ctx, "doc", spec); err != nil {
		t.Fatal(err)
	}
	v1 := payloadFor(640, 1)
	if _, err := g.Commit(ctx, "doc", -1, v1); err != nil {
		t.Fatal(err)
	}
	putsBefore := make([]int64, len(nodes))
	for i, n := range nodes {
		putsBefore[i] = n.puts.Load()
	}
	encodesBefore := g.Stats().ManifestEncodes
	v2 := slices.Clone(v1)
	v2[70] ^= 0xff // one block: a gamma=1 compressed delta
	if _, err := g.Commit(ctx, "doc", -1, v2); err != nil {
		t.Fatal(err)
	}
	if got := g.Stats().ManifestEncodes - encodesBefore; got != 1 {
		t.Errorf("commit encoded the manifest %d times, want 1", got)
	}
	local, err := os.ReadFile(filepath.Join(root, "doc.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(local, []byte("\n")) != 1 || !bytes.HasSuffix(local, []byte("\n")) {
		t.Errorf("local manifest is not one line of JSON:\n%s", local)
	}
	for i, n := range nodes {
		if got := n.puts.Load() - putsBefore[i]; got != 1 {
			t.Errorf("node %d served %d manifest put RPCs for one commit, want 1", i, got)
		}
		if !bytes.Equal(replica(t, n, "doc"), local) {
			t.Errorf("node %d's manifest replica differs from the local file", i)
		}
	}
	if st := g.Stats(); st.ReplicationFailures != 0 {
		t.Errorf("ReplicationFailures = %d on a healthy cluster", st.ReplicationFailures)
	}
}

// TestReplicationBelowQuorumDefersReclaim covers a compaction whose
// manifest replication misses the write quorum: the operation succeeds,
// the failure is counted, and the superseded codewords stay on the nodes,
// so a restart that lost the local manifest while the nodes holding the
// fresh replicas are down still reads every version from the stale
// replicas. Once a save reaches the quorum, the queue drains.
func TestReplicationBelowQuorumDefersReclaim(t *testing.T) {
	nodes := newManifestNodes(6)
	cluster := manifestCluster(nodes)
	g := newTestGateway(t, Config{Cluster: cluster})
	ctx := t.Context()
	if _, err := g.Create(ctx, "a", testSpec()); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 4; v++ {
		if _, err := g.Commit(ctx, "a", -1, payloadFor(32, v)); err != nil {
			t.Fatal(err)
		}
	}
	// Nodes 0-3 stop taking manifest puts: saves reach 2 nodes, below the
	// (6,4) code's quorum of 3. Their replicas keep naming the deltas of
	// versions 3 and 4, which the compaction below supersedes.
	for _, n := range nodes[:4] {
		n.reject.Store(true)
	}
	report, err := g.Compact(ctx, "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Info.Changed() || report.Info.SupersededShards == 0 {
		t.Fatalf("compaction to depth 1 superseded nothing: %+v", report.Info)
	}
	if report.Deleted != 0 {
		t.Errorf("reclaim deleted %d shards after a replication below quorum", report.Deleted)
	}
	if got := g.Stats().ReplicationFailures; got != 1 {
		t.Errorf("ReplicationFailures = %d, want 1", got)
	}

	// Nodes 4 and 5 (the only fresh replicas) fail; a gateway with an empty
	// root reopens from the stale replicas on nodes 0-3.
	if err := cluster.Fail(4, 5); err != nil {
		t.Fatal(err)
	}
	stale := newTestGateway(t, Config{Cluster: cluster})
	for v := 1; v <= 4; v++ {
		got, err := stale.Retrieve(ctx, "a", v)
		if err != nil {
			t.Fatalf("version %d from the stale replicas: %v", v, err)
		}
		if !bytes.Equal(got.Data, payloadFor(32, v)) {
			t.Errorf("version %d from the stale replicas differs", v)
		}
	}
	if err := stale.Close(ctx); err != nil {
		t.Fatal(err)
	}
	cluster.HealAll()
	for _, n := range nodes {
		n.reject.Store(false)
	}

	// The next commit still starts lagging, so it reclaims nothing; its
	// save reaches the quorum, and the commit after it drains the queue.
	ci, err := g.Commit(ctx, "a", -1, payloadFor(32, 5))
	if err != nil {
		t.Fatal(err)
	}
	if ci.ReclaimedShards != 0 {
		t.Errorf("commit reclaimed %d shards before a save reached the quorum", ci.ReclaimedShards)
	}
	ci, err = g.Commit(ctx, "a", -1, payloadFor(32, 6))
	if err != nil {
		t.Fatal(err)
	}
	if ci.ReclaimedShards != report.Info.SupersededShards {
		t.Errorf("commit after a quorum save reclaimed %d shards, want the %d superseded", ci.ReclaimedShards, report.Info.SupersededShards)
	}
	fresh := newTestGateway(t, Config{Cluster: cluster})
	for v := 1; v <= 6; v++ {
		got, err := fresh.Retrieve(ctx, "a", v)
		if err != nil {
			t.Fatalf("version %d from the cluster replicas: %v", v, err)
		}
		if !bytes.Equal(got.Data, payloadFor(32, v)) {
			t.Errorf("version %d from the cluster replicas differs", v)
		}
	}
}

// TestAttachAfterCompactionOneNodeMissed: node 0 misses the
// post-compaction manifest save while the other five reach the quorum, so
// the superseded codewords are reclaimed. A gateway restarted without its
// manifest file must reopen the fresh generation, not node 0's stale
// replica listing as many versions, and read every version.
func TestAttachAfterCompactionOneNodeMissed(t *testing.T) {
	nodes := newManifestNodes(6)
	cluster := manifestCluster(nodes)
	root := t.TempDir()
	g := newTestGateway(t, Config{Cluster: cluster, Root: root})
	ctx := t.Context()
	if _, err := g.Create(ctx, "a", testSpec()); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 4; v++ {
		if _, err := g.Commit(ctx, "a", -1, payloadFor(32, v)); err != nil {
			t.Fatal(err)
		}
	}
	nodes[0].reject.Store(true)
	report, err := g.Compact(ctx, "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if report.Deleted == 0 {
		t.Fatalf("compaction reclaimed nothing: %+v", report)
	}
	if err := os.Remove(filepath.Join(root, "a.json")); err != nil {
		t.Fatal(err)
	}
	restarted := newTestGateway(t, Config{Cluster: cluster, Root: root})
	for v := 1; v <= 4; v++ {
		got, err := restarted.Retrieve(ctx, "a", v)
		if err != nil {
			t.Fatalf("version %d after the restart: %v", v, err)
		}
		if !bytes.Equal(got.Data, payloadFor(32, v)) {
			t.Errorf("version %d after the restart differs", v)
		}
	}
}

// TestStatsDuringOpens reads Stats while commits run and archive loads
// fail concurrently (meaningful under -race): every commit's manifest is
// encoded exactly once, plus the one Create encoded.
func TestStatsDuringOpens(t *testing.T) {
	g := newTestGateway(t, Config{})
	ctx := t.Context()
	if _, err := g.Create(ctx, "a", testSpec()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := g.Retrieve(ctx, fmt.Sprintf("missing-%d-%d", i, j), 1); err == nil {
					t.Error("retrieve from an unknown archive succeeded")
				}
				if _, err := g.Commit(ctx, "a", -1, payloadFor(32, j)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for j := 0; j < 50; j++ {
		_ = g.Stats()
	}
	wg.Wait()
	if st := g.Stats(); st.Commits != 40 || st.ManifestEncodes != st.Commits+1 {
		t.Errorf("%d commits, %d manifest encodes; want 40 and 41", st.Commits, st.ManifestEncodes)
	}
}

// legacyHistory is the archive testdata/legacy-manifest.json describes:
// four versions of a CDEC (6,4) archive, each editing one block, then a
// compaction to depth 1. The fixture was written by the gateway before
// manifests carried a generation, in the indented form it used then.
func legacyHistory(t *testing.T, g *Gateway) [][]byte {
	t.Helper()
	ctx := t.Context()
	spec := testSpec()
	spec.CompressDeltas = true
	if _, err := g.Create(ctx, "legacy", spec); err != nil {
		t.Fatal(err)
	}
	versions := [][]byte{payloadFor(32, 1)}
	for v := 2; v <= 4; v++ {
		next := slices.Clone(versions[len(versions)-1])
		next[(v%4)*8] ^= byte(v)
		versions = append(versions, next)
	}
	for _, object := range versions {
		if _, err := g.Commit(ctx, "legacy", -1, object); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Compact(ctx, "legacy", 1); err != nil {
		t.Fatal(err)
	}
	return versions
}

// TestLegacyManifestReopens: a manifest written before this format change
// (indented JSON, no generation) reopens both from the local root and,
// with the root lost, from cluster replicas holding the same bytes.
func TestLegacyManifestReopens(t *testing.T) {
	ctx := t.Context()
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy-manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	cluster := store.NewMemCluster(6)
	versions := legacyHistory(t, newTestGateway(t, Config{Cluster: cluster}))
	check := func(g *Gateway, from string) {
		t.Helper()
		info, err := g.Info(ctx, "legacy")
		if err != nil {
			t.Fatalf("opening the legacy manifest from %s: %v", from, err)
		}
		if info.Versions != len(versions) || info.Manifest.Generation != 0 {
			t.Errorf("legacy manifest from %s: %d versions at generation %d, want %d at 0",
				from, info.Versions, info.Manifest.Generation, len(versions))
		}
		for v, want := range versions {
			got, err := g.Retrieve(ctx, "legacy", v+1)
			if err != nil || !bytes.Equal(got.Data, want) {
				t.Errorf("version %d via the legacy manifest from %s: %v", v+1, from, err)
			}
		}
	}

	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "legacy.json"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	check(newTestGateway(t, Config{Cluster: cluster, Root: root}), "the local root")

	for node := 0; node < cluster.Size(); node++ {
		if err := cluster.Put(ctx, node, store.ShardID{Object: "legacy/manifest"}, legacy); err != nil {
			t.Fatal(err)
		}
	}
	check(newTestGateway(t, Config{Cluster: cluster}), "the cluster replicas")
}
