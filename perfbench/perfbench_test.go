package main

import (
	"context"
	"math"
	"net"
	"os"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/transport"
	"github.com/secarchive/sec/secclient"
)

// testDir returns a per-test data directory, on tmpfs when there is one
// (set-up commits fsync every shard).
func testDir(t *testing.T) string {
	t.Helper()
	if info, err := os.Stat("/dev/shm"); err == nil && info.IsDir() {
		dir, err := os.MkdirTemp("/dev/shm", "perfbench-test-")
		if err == nil {
			t.Cleanup(func() { os.RemoveAll(dir) })
			return dir
		}
	}
	return t.TempDir()
}

func TestPlanDigestRepeatsPerSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, err := planDigest(w, 5, 2000)
		if err != nil {
			t.Fatal(err)
		}
		b, err := planDigest(w, 5, 2000)
		if err != nil {
			t.Fatal(err)
		}
		c, err := planDigest(w, 6, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: seed 5 planned two different traces: %s, %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 5 and 6 planned the same trace %s", w.name, a)
		}
	}
}

// rpcCounts is the per-node request accounting the traced run must not
// change.
type rpcCounts struct {
	gets, puts, deletes, pings                        uint64
	getBatches, putBatches, deleteBatches             uint64
	getBatchShards, putBatchShards, deleteBatchShards uint64
}

func countsOf(s transport.RequestStats) rpcCounts {
	return rpcCounts{s.Gets, s.Puts, s.Deletes, s.Pings, s.GetBatches, s.PutBatches, s.DeleteBatches,
		s.GetBatchShards, s.PutBatchShards, s.DeleteBatchShards}
}

// readCounts is the read accounting history-cold must repeat exactly.
type readCounts struct {
	attempted, versions, nodeReads, sparse, full, compressed, cacheHits int
	diskReads                                                           uint64
}

func historyCold(t *testing.T) *workloadSpec {
	t.Helper()
	w, err := lookupWorkload("history-cold")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// runCapped sets w up and runs a fixed number of ops, returning the node
// servers' request counts and the read accounting.
func runCapped(t *testing.T, w *workloadSpec, traced bool) ([]rpcCounts, readCounts) {
	t.Helper()
	cfg := config{workload: w, seed: 3, ops: 150, limit: time.Hour}
	seeded, err := seedArchives(w, cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	ctx := context.Background()
	p, err := startPhase(ctx, cfg, seeded, testDir(t), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.f.close()
	out, err := p.measurePhase(ctx, cfg, cfg.ops, cfg.limit, tr)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.attempted != cfg.ops {
		t.Fatalf("%d of %d ops failed, want 0 of %d", out.failed, out.attempted, cfg.ops)
	}
	if traced && out.unattributed != 0 {
		t.Errorf("%d node RPCs reached the cluster without an op record", out.unattributed)
	}
	var rpcs []rpcCounts
	for _, s := range p.f.servers {
		rpcs = append(rpcs, countsOf(s.RequestStats()))
	}
	r := out.reads
	return rpcs, readCounts{out.attempted, out.versions, r.NodeReads, r.SparseReads, r.FullReads, r.CompressedReads,
		r.CacheHits, out.diskReads}
}

// TestTracingKeepsNodeRequests runs history-cold without a read cache,
// untraced and traced, from one seed: with nothing left to eviction
// order, every node server must see the same requests (batches, shards
// and pings) both times, reads must stay batched (the decorators keep
// store.BatchNode), and the read accounting must repeat exactly.
func TestTracingKeepsNodeRequests(t *testing.T) {
	w := *historyCold(t)
	w.spec = withCache(w.spec, 0)
	plainRPCs, plainReads := runCapped(t, &w, false)
	tracedRPCs, tracedReads := runCapped(t, &w, true)
	for i := range plainRPCs {
		if tracedRPCs[i] != plainRPCs[i] {
			t.Errorf("node %d: traced run issued %+v, untraced %+v", i, tracedRPCs[i], plainRPCs[i])
		}
		if plainRPCs[i].gets != 0 || plainRPCs[i].pings == 0 {
			t.Errorf("node %d: %+v; reads must stay batched and liveness probed", i, plainRPCs[i])
		}
	}
	if plainRPCs[0].getBatches == 0 {
		t.Errorf("node 0 served no get batches: %+v", plainRPCs[0])
	}
	if tracedReads != plainReads {
		t.Errorf("read accounting differs: untraced %+v, traced %+v", plainReads, tracedReads)
	}
	if plainReads.sparse == 0 || plainReads.cacheHits != 0 {
		t.Errorf("cache-less history-cold: %+v; want sparse decodes and no cache hits", plainReads)
	}
}

// TestTracedRunIsTheSameProgram runs history-cold untraced, traced, and
// untraced again from one seed: every node server must see the same
// requests (batches, shards and pings), and the paper's read counts must
// repeat exactly. Exact repetition needs a deterministic read cache: core
// caches the versions of one chain walk by ranging over a map
// (materializeChain), so the LRU order, and with it which versions a
// 256 KiB cache evicts, can differ between identical request sequences.
// With ReadCacheBytes 0 the three runs agree exactly.
func TestTracedRunIsTheSameProgram(t *testing.T) {
	w := historyCold(t)
	plainRPCs, plainReads := runCapped(t, w, false)
	tracedRPCs, tracedReads := runCapped(t, w, true)
	againRPCs, againReads := runCapped(t, w, false)
	for i := range plainRPCs {
		if tracedRPCs[i] != plainRPCs[i] {
			t.Errorf("node %d: traced run issued %+v, untraced %+v", i, tracedRPCs[i], plainRPCs[i])
		}
		if againRPCs[i] != plainRPCs[i] {
			t.Errorf("node %d: untraced runs issued %+v and %+v", i, plainRPCs[i], againRPCs[i])
		}
	}
	if plainRPCs[0].getBatches == 0 || plainRPCs[0].gets != 0 {
		t.Errorf("node 0 served %d get batches and %d single gets; reads must stay batched", plainRPCs[0].getBatches, plainRPCs[0].gets)
	}
	if tracedReads != plainReads || againReads != plainReads {
		t.Errorf("read accounting differs across runs: %+v, traced %+v, again %+v", plainReads, tracedReads, againReads)
	}
	if plainReads.sparse == 0 {
		t.Errorf("history-cold decoded no sparse deltas: %+v", plainReads)
	}
}

// TestFailedOpFailsTheRun sends a read to a gateway that is gone: the op
// must count as failed, leave no latency sample, and make the run
// incorrect.
func TestFailedOpFailsTheRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	c := secclient.Dial(addr, secclient.WithTimeout(time.Second))
	defer c.Close()
	reg := newRegistry(1)
	if err := reg.expect(0, 1, payloadSum(make([]byte, objectLen))); err != nil {
		t.Fatal(err)
	}
	reg.ack(0, 1)
	var tl tally
	if tl.do(context.Background(), c, reg, op{kind: opRetrieve, archive: 0, version: 1}) {
		t.Fatal("a read from a closed address succeeded")
	}
	if tl.attempted != 1 || tl.failed != 1 || len(tl.lat[opRetrieve]) != 0 {
		t.Errorf("attempted %d, failed %d, %d latency samples; want 1, 1, 0", tl.attempted, tl.failed, len(tl.lat[opRetrieve]))
	}
	if rep := newReport(&outcome{tally: &tl}); rep.Correct || rep.Failed != 1 {
		t.Errorf("report %+v; want incorrect with 1 failed op", rep)
	}
}

func TestQuantileIsExact(t *testing.T) {
	var samples []time.Duration
	for i := 100; i >= 1; i-- {
		samples = append(samples, time.Duration(i)*time.Millisecond)
	}
	if got := quantileMs(samples, 0.5); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("p50 of 1..100 ms = %v, want 50.5", got)
	}
	if got := quantileMs(samples, 0.99); math.Abs(got-99.01) > 1e-9 {
		t.Errorf("p99 of 1..100 ms = %v, want 99.01", got)
	}
}

func TestUnionCoversOverlapOnce(t *testing.T) {
	spans := []span{{start: 10, end: 20}, {start: 0, end: 5}, {start: 15, end: 30}, {start: 40, end: 41}}
	if got := union(spans); got != 5+20+1 {
		t.Errorf("union = %d, want 26", got)
	}
}
