package core

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// cacheRun commits a 16-version chain to a fresh archive whose read cache
// holds about three versions, then replays a seeded mix of Retrieve and
// RetrieveAll requests, returning the cache counters and every node's read
// count.
func cacheRun(t *testing.T, scheme Scheme, seed int64) (CacheStats, []store.NodeStats) {
	t.Helper()
	cluster := store.NewMemCluster(0)
	cfg := testConfig(scheme, erasure.NonSystematicCauchy)
	cfg.ReadCacheBytes = 3 * cfg.K * cfg.BlockSize
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	const versions = 16
	rng := rand.New(rand.NewSource(seed))
	object := make([]byte, a.Capacity())
	rng.Read(object)
	history := make([][]byte, 0, versions)
	for v := 1; v <= versions; v++ {
		if v > 1 {
			object = editBlocks(object, cfg.BlockSize, rng.Intn(cfg.K))
		}
		mustCommit(t, a, object)
		history = append(history, object)
	}
	for op := 0; op < 200; op++ {
		if rng.Intn(4) == 0 {
			all, _, err := a.RetrieveAll(versions)
			if err != nil {
				t.Fatal(err)
			}
			for i := range all {
				if !bytes.Equal(all[i], history[i]) {
					t.Fatalf("RetrieveAll: version %d mismatch", i+1)
				}
			}
			continue
		}
		v := 1 + rng.Intn(versions)
		if got, _ := mustRetrieve(t, a, v); !bytes.Equal(got, history[v-1]) {
			t.Fatalf("Retrieve(%d) mismatch", v)
		}
	}
	cs, _ := a.ReadCacheStats()
	nodes := make([]store.NodeStats, cluster.Size())
	for i := range nodes {
		n, err := cluster.Node(i)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n.Stats()
	}
	return cs, nodes
}

// TestReadCacheFillIsDeterministic replays one request sequence against
// pairs of fresh archives: a chain walk fills the cache in walk order, so
// identical requests must evict identically and cost identical node reads.
// Several seeds and schemes (forward walks and Reversed SEC's backward
// ones) give eviction-order drift many chances to show.
func TestReadCacheFillIsDeterministic(t *testing.T) {
	for _, scheme := range []Scheme{BasicSEC, ReversedSEC} {
		for seed := int64(1); seed <= 4; seed++ {
			first, firstNodes := cacheRun(t, scheme, seed)
			second, secondNodes := cacheRun(t, scheme, seed)
			if first != second {
				t.Errorf("%v seed %d: cache stats %+v, then %+v", scheme, seed, first, second)
			}
			if first.Evictions == 0 || first.Hits == 0 {
				t.Errorf("%v seed %d: cache stats %+v; want hits and evictions", scheme, seed, first)
			}
			for i := range firstNodes {
				if firstNodes[i].Reads != secondNodes[i].Reads {
					t.Errorf("%v seed %d: node %d read %d shards, then %d", scheme, seed, i, firstNodes[i].Reads, secondNodes[i].Reads)
				}
			}
		}
	}
}
