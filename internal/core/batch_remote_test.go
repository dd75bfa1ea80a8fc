// These tests drive archives over real transport servers, so they live in
// an external test package: transport imports core for the gateway
// protocol, and an internal test package may not close that import cycle.
package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/transport"
)

var (
	testConfig   = core.TestConfigForExternal
	mustCommit   = core.MustCommitForExternal
	mustRetrieve = core.MustRetrieveForExternal
	editBlocks   = core.EditBlocksForExternal
	fullID       = core.FullIDForExternal
	deltaID      = core.DeltaIDForExternal
)

// remoteCluster starts one transport server per backing node and returns a
// cluster of RemoteNode clients plus the servers for RPC accounting.
func remoteCluster(t *testing.T, backing []store.Node) (*store.Cluster, []*transport.Server) {
	t.Helper()
	nodes := make([]store.Node, len(backing))
	servers := make([]*transport.Server, len(backing))
	for i, b := range backing {
		srv := transport.NewServer(b)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		client := transport.NewRemoteNode(fmt.Sprintf("remote-%d", i), addr.String(),
			transport.WithTimeout(5*time.Second))
		t.Cleanup(func() { _ = client.Close() })
		nodes[i] = client
		servers[i] = srv
	}
	return store.NewCluster(nodes), servers
}

func sumRequests(servers []*transport.Server) transport.RequestStats {
	var total transport.RequestStats
	for _, s := range servers {
		st := s.RequestStats()
		total.Puts += st.Puts
		total.Gets += st.Gets
		total.GetBatches += st.GetBatches
		total.GetBatchShards += st.GetBatchShards
		total.PutBatches += st.PutBatches
		total.PutBatchShards += st.PutBatchShards
	}
	return total
}

// TestRemoteRetrieveOneRPCPerNode is the wire-cost contract end to end: a
// retrieval over TCP nodes must issue one get RPC per node touched, not
// one per shard, while the per-shard fallback path issues one per shard.
func TestRemoteRetrieveOneRPCPerNode(t *testing.T) {
	backing := make([]store.Node, 6)
	for i := range backing {
		backing[i] = store.NewMemNode(fmt.Sprintf("mem-%d", i))
	}
	cluster, servers := remoteCluster(t, backing)
	a, err := core.New(testConfig(core.NonDifferential, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{3}, a.Capacity())
	mustCommit(t, a, v1)
	before := sumRequests(servers)
	if before.PutBatches != 6 || before.Puts != 0 {
		t.Errorf("commit used %d batch / %d per-shard puts, want 6 batches (one per node)", before.PutBatches, before.Puts)
	}
	got, stats := mustRetrieve(t, a, 1)
	if !bytes.Equal(got, v1) {
		t.Error("content mismatch over TCP")
	}
	after := sumRequests(servers)
	k := a.Config().K
	if stats.NodeReads != k {
		t.Errorf("NodeReads = %d, want %d", stats.NodeReads, k)
	}
	if gets := after.Gets - before.Gets; gets != 0 {
		t.Errorf("%d per-shard get RPCs issued, want 0", gets)
	}
	if batches := after.GetBatches - before.GetBatches; batches != uint64(k) {
		// Colocated placement: each touched node holds one row, so one
		// batch RPC per node = k RPCs carrying k shards total.
		t.Errorf("get-batch RPCs = %d, want %d (one per node)", batches, k)
	}
	if shards := after.GetBatchShards - before.GetBatchShards; shards != uint64(k) {
		t.Errorf("batched shards = %d, want %d", shards, k)
	}

	// The same retrieval with batching disabled pays one RPC per shard.
	cfgPer := testConfig(core.NonDifferential, erasure.NonSystematicCauchy)
	cfgPer.DisableBatchIO = true
	aPer, err := core.New(cfgPer, cluster)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, aPer, v1)
	before = sumRequests(servers)
	mustRetrieve(t, aPer, 1)
	after = sumRequests(servers)
	if gets := after.Gets - before.Gets; gets != uint64(k) {
		t.Errorf("per-shard path issued %d get RPCs, want %d", gets, k)
	}
	if batches := after.GetBatches - before.GetBatches; batches != 0 {
		t.Errorf("per-shard path issued %d batch RPCs, want 0", batches)
	}
}

// opaqueNode hides every optional capability of a node, so the cluster
// must fall back to per-shard operations for it.
type opaqueNode struct{ inner store.Node }

func (o opaqueNode) ID() string { return o.inner.ID() }
func (o opaqueNode) Put(ctx context.Context, id store.ShardID, d []byte) error {
	return o.inner.Put(ctx, id, d)
}
func (o opaqueNode) Get(ctx context.Context, id store.ShardID) ([]byte, error) {
	return o.inner.Get(ctx, id)
}
func (o opaqueNode) Delete(ctx context.Context, id store.ShardID) error {
	return o.inner.Delete(ctx, id)
}
func (o opaqueNode) Available(ctx context.Context) bool { return o.inner.Available(ctx) }
func (o opaqueNode) Stats() store.NodeStats             { return o.inner.Stats() }
func (o opaqueNode) ResetStats()                        { o.inner.ResetStats() }

// TestMixedClusterBatchedArchive runs a full commit/retrieve/damage/scrub
// cycle on a cluster mixing MemNode, DiskNode, a plain (batch-incapable)
// node, and RemoteNodes behind real TCP servers.
func TestMixedClusterBatchedArchive(t *testing.T) {
	disk0, err := store.NewDiskNode("disk-0", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	remoteMem := store.NewMemNode("remote-mem")
	remoteDisk, err := store.NewDiskNode("remote-disk", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	remotes, servers := remoteCluster(t, []store.Node{remoteMem, remoteDisk})
	r0, _ := remotes.Node(0)
	r1, _ := remotes.Node(1)
	nodes := []store.Node{
		store.NewMemNode("mem-0"),
		disk0,
		opaqueNode{store.NewMemNode("plain")},
		store.NewMemNode("mem-1"),
		r0,
		r1,
	}
	cluster := store.NewCluster(nodes)
	a, err := core.New(testConfig(core.BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{9}, a.Capacity())
	v2 := editBlocks(v1, a.Config().BlockSize, 1)
	mustCommit(t, a, v1)
	mustCommit(t, a, v2)
	got, stats := mustRetrieve(t, a, 2)
	if !bytes.Equal(got, v2) {
		t.Error("mixed-cluster retrieval mismatch")
	}
	if stats.NodeReads != 5 { // k + 2*gamma
		t.Errorf("NodeReads = %d, want 5", stats.NodeReads)
	}
	// Damage the shard on the plain node and one remote-backed shard; scrub
	// must heal both through their respective paths.
	if err := nodes[2].Delete(t.Context(), store.ShardID{Object: fullID(a.Config().Name, 1), Row: 2}); err != nil {
		t.Fatal(err)
	}
	if err := remoteMem.Delete(t.Context(), store.ShardID{Object: deltaID(a.Config().Name, 2), Row: 4}); err != nil {
		t.Fatal(err)
	}
	report, err := a.Scrub(true)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsMissing != 2 || report.Repaired != 2 {
		t.Errorf("scrub report = %+v, want 2 missing and 2 repaired", report)
	}
	got, _ = mustRetrieve(t, a, 2)
	if !bytes.Equal(got, v2) {
		t.Error("post-scrub retrieval mismatch")
	}
	_ = servers
}

// historyOverTCP commits a 16-version (12,10) BasicSEC history to an
// archive over twelve loopback TCP nodes, each delta touching 1-3 blocks.
// It returns the archive, the committed versions, the backing nodes and
// their servers.
func historyOverTCP(t *testing.T) (*core.Archive, [][]byte, []*store.MemNode, []*transport.Server) {
	t.Helper()
	mems := make([]*store.MemNode, 12)
	backing := make([]store.Node, len(mems))
	for i := range mems {
		mems[i] = store.NewMemNode(fmt.Sprintf("mem-%d", i))
		backing[i] = mems[i]
	}
	cluster, servers := remoteCluster(t, backing)
	cfg := testConfig(core.BasicSEC, erasure.NonSystematicCauchy)
	cfg.N, cfg.K, cfg.BlockSize = 12, 10, 64
	a, err := core.New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	object := make([]byte, a.Capacity())
	rng.Read(object)
	var history [][]byte
	for v := 1; v <= 16; v++ {
		if v > 1 {
			object = editBlocks(object, cfg.BlockSize, rng.Perm(cfg.K)[:1+rng.Intn(3)]...)
		}
		mustCommit(t, a, object)
		history = append(history, object)
	}
	return a, history, mems, servers
}

// retrieveAllAccounted runs RetrieveAll over the whole history and checks
// it byte for byte against the committed versions, and the retrieval's
// read accounting against the node servers' own shard-read counts. It
// returns the stats and each server's request counts for the call.
func retrieveAllAccounted(t *testing.T, a *core.Archive, history [][]byte, mems []*store.MemNode, servers []*transport.Server) (core.RetrievalStats, []transport.RequestStats) {
	t.Helper()
	before := make([]transport.RequestStats, len(servers))
	readsBefore := uint64(0)
	for i, s := range servers {
		before[i] = s.RequestStats()
		readsBefore += mems[i].Stats().Reads
	}
	got, stats, err := a.RetrieveAllContext(t.Context(), len(history))
	if err != nil {
		t.Fatal(err)
	}
	for i := range history {
		if !bytes.Equal(got[i], history[i]) {
			t.Errorf("version %d differs from the committed bytes", i+1)
		}
	}
	delta := make([]transport.RequestStats, len(servers))
	readsAfter := uint64(0)
	for i, s := range servers {
		st := s.RequestStats()
		delta[i] = transport.RequestStats{
			Gets:       st.Gets - before[i].Gets,
			Pings:      st.Pings - before[i].Pings,
			GetBatches: st.GetBatches - before[i].GetBatches,
		}
		readsAfter += mems[i].Stats().Reads
	}
	if nodeReads := readsAfter - readsBefore; nodeReads != uint64(stats.NodeReads) {
		t.Errorf("nodes served %d shard reads, RetrievalStats.NodeReads = %d", nodeReads, stats.NodeReads)
	}
	return stats, delta
}

// checkOneRoundTrip asserts the whole-history read cost one liveness ping
// and at most one get batch per node, and no single-shard gets.
func checkOneRoundTrip(t *testing.T, reqs []transport.RequestStats) {
	t.Helper()
	touched := 0
	for i, r := range reqs {
		if r.GetBatches > 1 || r.Pings > 1 || r.Gets != 0 {
			t.Errorf("node %d served %d get batches, %d pings, %d single gets; want at most one batch and one ping",
				i, r.GetBatches, r.Pings, r.Gets)
		}
		touched += int(r.GetBatches)
	}
	if touched == 0 {
		t.Error("no node served a get batch")
	}
}

// TestRemoteRetrieveAllOneRoundTrip is the whole-history wire contract:
// RetrieveAll of a 16-version (12,10) history over TCP fetches every
// object it needs in one prefetch - one ping and at most one get batch per
// node - while reading exactly the shards formula (4) plans.
func TestRemoteRetrieveAllOneRoundTrip(t *testing.T) {
	a, history, mems, servers := historyOverTCP(t)
	stats, reqs := retrieveAllAccounted(t, a, history, mems, servers)
	checkOneRoundTrip(t, reqs)
	planned, err := a.PlannedReadsAll(len(history))
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodeReads != planned {
		t.Errorf("NodeReads = %d, PlannedReadsAll = %d", stats.NodeReads, planned)
	}
	if stats.SparseReads != len(history)-1 || stats.FullReads != 1 {
		t.Errorf("stats = %+v, want one full read and %d sparse deltas", stats, len(history)-1)
	}
}

// TestRemoteRetrieveAllDegraded reads the history with one node down and
// one shard of a planned sparse read deleted: the prefetch plans around
// the dead node, the delta's reader re-plans around the lost row, and the
// history still comes back byte-identical with the nodes' read counts
// matching the retrieval's.
func TestRemoteRetrieveAllDegraded(t *testing.T) {
	a, history, mems, servers := historyOverTCP(t)
	mems[0].SetFailed(true)
	// With row 0 down, the sparse plan of a non-systematic Cauchy delta
	// is its first 2*gamma live rows, so row 1 is always in it.
	if err := mems[1].Delete(t.Context(), store.ShardID{Object: deltaID(a.Config().Name, 9), Row: 1}); err != nil {
		t.Fatal(err)
	}
	stats, reqs := retrieveAllAccounted(t, a, history, mems, servers)
	// The dead node is probed but sent nothing. The lost row costs one
	// re-plan of its delta: one more probe round over that delta's nodes
	// and one top-up batch, so some node serves a second batch.
	topUps := 0
	for i, r := range reqs {
		if r.Pings > 2 || r.GetBatches > 2 || r.Gets != 0 {
			t.Errorf("node %d served %d get batches, %d pings, %d single gets", i, r.GetBatches, r.Pings, r.Gets)
		}
		if r.GetBatches == 2 {
			topUps++
		}
	}
	if reqs[0].GetBatches != 0 {
		t.Errorf("failed node 0 was sent %d get batches", reqs[0].GetBatches)
	}
	if topUps == 0 {
		t.Error("no node served a top-up batch: the deleted row was never planned")
	}
	planned, err := a.PlannedReadsAll(len(history))
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodeReads != planned {
		t.Errorf("NodeReads = %d, want the planned %d (the lost row is replaced, not double-read)", stats.NodeReads, planned)
	}
}

// TestRemoteRetrieveAllCompacted reads the history of a compacted archive,
// whose versions hang off several anchors (promoted checkpoints and deltas
// rebased onto them): still one round trip, formula (4)'s reads, and
// byte-identical versions.
func TestRemoteRetrieveAllCompacted(t *testing.T) {
	a, history, mems, servers := historyOverTCP(t)
	if _, err := a.CompactToContext(t.Context(), 2); err != nil {
		t.Fatal(err)
	}
	stats, reqs := retrieveAllAccounted(t, a, history, mems, servers)
	checkOneRoundTrip(t, reqs)
	if stats.FullReads < 2 {
		t.Errorf("stats = %+v, want reads from several anchors", stats)
	}
	planned, err := a.PlannedReadsAll(len(history))
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodeReads != planned {
		t.Errorf("NodeReads = %d, PlannedReadsAll = %d", stats.NodeReads, planned)
	}
}
