package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/faults"
	"github.com/secarchive/sec/internal/store"
)

// chaosCluster builds an n-node Mem cluster whose first node is wrapped in
// a ChaosNode, initially injecting nothing.
func chaosCluster(n int) (*store.Cluster, *faults.ChaosNode) {
	nodes := make([]store.Node, n)
	chaos := faults.NewChaosNode(store.NewMemNode("node-0"), faults.Schedule{})
	nodes[0] = chaos
	for i := 1; i < n; i++ {
		nodes[i] = store.NewMemNode("node-" + string(rune('0'+i)))
	}
	return store.NewCluster(nodes), chaos
}

// slowReads makes every Get/GetBatch on the node take the given latency.
func slowReads(chaos *faults.ChaosNode, latency time.Duration) {
	chaos.SetSchedule(faults.Schedule{
		Rules: []faults.Rule{{Kind: faults.FaultLatency, Ops: faults.OpGet, Latency: latency}},
	})
}

func TestHedgedRetrieveDoesNotWaitOnStraggler(t *testing.T) {
	cfg := testConfig(BasicSEC, erasure.SystematicCauchy)
	cfg.HedgeDelay = 15 * time.Millisecond
	cluster, chaos := chaosCluster(cfg.N)
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	object := make([]byte, a.Capacity())
	rand.New(rand.NewSource(1)).Read(object)
	mustCommit(t, a, object)

	const straggle = 500 * time.Millisecond
	slowReads(chaos, straggle)
	start := time.Now()
	got, stats := mustRetrieve(t, a, 1)
	elapsed := time.Since(start)

	if !bytes.Equal(got, object) {
		t.Error("hedged retrieval returned wrong bytes")
	}
	if stats.Hedges == 0 {
		t.Error("straggling node produced no hedged reads")
	}
	if elapsed >= straggle {
		t.Errorf("retrieval took %v, waited on the %v straggler", elapsed, straggle)
	}
	h, err := cluster.NodeHealth(0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Hedges == 0 {
		t.Error("straggler demotion not recorded in node health")
	}
}

func TestHedgedChainRetrievalByteIdentical(t *testing.T) {
	cfg := testConfig(OptimizedSEC, erasure.SystematicCauchy)
	cfg.HedgeDelay = 10 * time.Millisecond
	cluster, chaos := chaosCluster(cfg.N)
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := make([]byte, a.Capacity())
	rand.New(rand.NewSource(2)).Read(v1)
	v2 := editBlocks(v1, cfg.BlockSize, 0)
	v3 := editBlocks(v2, cfg.BlockSize, 1)
	versions := [][]byte{v1, v2, v3}
	for _, v := range versions {
		mustCommit(t, a, v)
	}

	slowReads(chaos, 300*time.Millisecond)
	hedges := 0
	for l, want := range versions {
		start := time.Now()
		got, stats := mustRetrieve(t, a, l+1)
		if !bytes.Equal(got, want) {
			t.Errorf("version %d: wrong bytes under hedging", l+1)
		}
		if elapsed := time.Since(start); elapsed >= 300*time.Millisecond {
			t.Errorf("version %d: retrieval took %v, waited on the straggler", l+1, elapsed)
		}
		hedges += stats.Hedges
	}
	if hedges == 0 {
		t.Error("no hedged reads across the chain retrievals")
	}
}

// TestHedgedRetrieveAllByteIdentical reads a whole history while node 0
// straggles: the history's one prefetch is hedged as a whole, so every
// object decodes from spare rows without waiting on the straggler.
func TestHedgedRetrieveAllByteIdentical(t *testing.T) {
	cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy)
	cfg.HedgeDelay = 10 * time.Millisecond
	cluster, chaos := chaosCluster(cfg.N)
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	object := make([]byte, a.Capacity())
	rand.New(rand.NewSource(4)).Read(object)
	var history [][]byte
	for v := 0; v < 6; v++ {
		if v > 0 {
			object = editBlocks(object, cfg.BlockSize, v%cfg.K)
		}
		mustCommit(t, a, object)
		history = append(history, object)
	}

	const straggle = 500 * time.Millisecond
	slowReads(chaos, straggle)
	start := time.Now()
	got, stats, err := a.RetrieveAll(len(history))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= straggle {
		t.Errorf("RetrieveAll took %v, waited on the %v straggler", elapsed, straggle)
	}
	for i := range history {
		if !bytes.Equal(got[i], history[i]) {
			t.Errorf("version %d: wrong bytes under hedging", i+1)
		}
	}
	if stats.Hedges == 0 {
		t.Error("straggling node produced no hedged reads")
	}
}

func TestHedgingIdleOnHealthyCluster(t *testing.T) {
	// With hedging enabled but no straggler, the read accounting is
	// identical to a plain archive: hedging must not change the paper's
	// read counts on the healthy path.
	commitAndRetrieve := func(cfg Config) RetrievalStats {
		a, err := New(cfg, store.NewMemCluster(0))
		if err != nil {
			t.Fatal(err)
		}
		v1 := make([]byte, a.Capacity())
		rand.New(rand.NewSource(3)).Read(v1)
		mustCommit(t, a, v1)
		mustCommit(t, a, editBlocks(v1, cfg.BlockSize, 0))
		_, stats := mustRetrieve(t, a, 2)
		return stats
	}
	plain := commitAndRetrieve(testConfig(OptimizedSEC, erasure.SystematicCauchy))
	hedgedCfg := testConfig(OptimizedSEC, erasure.SystematicCauchy)
	hedgedCfg.HedgeDelay = time.Hour
	hedged := commitAndRetrieve(hedgedCfg)
	if hedged.Hedges != 0 {
		t.Errorf("healthy cluster produced %d hedges", hedged.Hedges)
	}
	if hedged.NodeReads != plain.NodeReads || hedged.SparseReads != plain.SparseReads {
		t.Errorf("hedging changed healthy accounting: %+v vs %+v", hedged, plain)
	}
}

func TestHedgeDelayValidation(t *testing.T) {
	cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy)
	cfg.HedgeDelay = -time.Second
	if _, err := New(cfg, store.NewMemCluster(0)); err == nil {
		t.Error("negative hedge delay accepted")
	}
}
