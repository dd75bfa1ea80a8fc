package core

import (
	"bytes"
	"strings"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

func TestManifestSaveLoadRoundTrip(t *testing.T) {
	cluster := store.NewMemCluster(0)
	a, err := New(testConfig(OptimizedSEC, erasure.SystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{1}, a.Capacity())
	v2 := editBlocks(v1, a.Config().BlockSize, 0)
	v3 := editBlocks(v2, a.Config().BlockSize, 0, 1, 2) // dense: stored full
	mustCommit(t, a, v1)
	mustCommit(t, a, v2)
	mustCommit(t, a, v3)

	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// Reopen against the same cluster.
	b, err := Load(&buf, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if b.Versions() != 3 || b.Scheme() != OptimizedSEC {
		t.Fatalf("reopened: versions=%d scheme=%v", b.Versions(), b.Scheme())
	}
	for l, want := range [][]byte{v1, v2, v3} {
		got, _, err := b.Retrieve(l + 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("version %d mismatch after reopen", l+1)
		}
	}

	// Committing after reopen restores the latest-version cache from
	// storage and continues the chain.
	v4 := editBlocks(v3, b.Config().BlockSize, 2)
	info, err := b.Commit(v4)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 4 || info.Gamma != 1 {
		t.Errorf("commit after reopen: %+v", info)
	}
	got, _, err := b.Retrieve(4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v4) {
		t.Error("version 4 mismatch")
	}
}

func TestManifestFields(t *testing.T) {
	cluster := store.NewMemCluster(0)
	cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy)
	cfg.PunctureDeltas = 2
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{1}, a.Capacity())
	mustCommit(t, a, v1)
	mustCommit(t, a, editBlocks(v1, 4, 1))
	m := a.Manifest()
	if m.N != 6 || m.K != 3 || m.BlockSize != 4 || m.PunctureDeltas != 2 {
		t.Errorf("manifest config = %+v", m)
	}
	if m.Scheme != "basic-sec" || m.Code != "non-systematic-cauchy" || m.Placement != "colocated" {
		t.Errorf("manifest names = %q %q %q", m.Scheme, m.Code, m.Placement)
	}
	if len(m.Entries) != 2 {
		t.Fatalf("entries = %d", len(m.Entries))
	}
	if !m.Entries[0].Full || m.Entries[0].Delta {
		t.Errorf("entry 1 = %+v", m.Entries[0])
	}
	if m.Entries[1].Full || !m.Entries[1].Delta || m.Entries[1].Gamma != 1 {
		t.Errorf("entry 2 = %+v", m.Entries[1])
	}
}

func TestOpenValidatesManifest(t *testing.T) {
	cluster := store.NewMemCluster(0)
	base := Manifest{
		Name: "m", Scheme: "basic-sec", Code: "non-systematic-cauchy",
		N: 6, K: 3, BlockSize: 4, Placement: "colocated",
		Entries: []ManifestEntry{{Version: 1, Full: true, Length: 4}},
	}
	tests := []struct {
		name string
		mut  func(*Manifest)
	}{
		{"bad scheme", func(m *Manifest) { m.Scheme = "zorp" }},
		{"bad code", func(m *Manifest) { m.Code = "zorp" }},
		{"bad placement", func(m *Manifest) { m.Placement = "zorp" }},
		{"bad version order", func(m *Manifest) { m.Entries[0].Version = 2 }},
		{"neither full nor delta", func(m *Manifest) { m.Entries[0].Full = false }},
		{"negative gamma", func(m *Manifest) { m.Entries[0].Gamma = -1 }},
		{"gamma beyond k", func(m *Manifest) { m.Entries[0].Gamma = 4 }},
		{"negative length", func(m *Manifest) { m.Entries[0].Length = -1 }},
		{"length beyond capacity", func(m *Manifest) { m.Entries[0].Length = 13 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := base
			m.Entries = append([]ManifestEntry(nil), base.Entries...)
			tt.mut(&m)
			if _, err := Open(m, cluster); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json"), store.NewMemCluster(0)); err == nil {
		t.Error("want error, got nil")
	}
}

func TestSaveToClusterAndLoadFromCluster(t *testing.T) {
	cluster := store.NewMemCluster(0)
	a, err := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{4}, a.Capacity())
	mustCommit(t, a, v1)
	if err := a.SaveToCluster(); err != nil {
		t.Fatal(err)
	}
	v2 := editBlocks(v1, 4, 0)
	mustCommit(t, a, v2)
	if err := a.SaveToCluster(); err != nil {
		t.Fatal(err)
	}

	b, err := LoadFromCluster("t", cluster)
	if err != nil {
		t.Fatal(err)
	}
	if b.Versions() != 2 {
		t.Fatalf("reopened versions = %d, want 2", b.Versions())
	}
	got, _, err := b.Retrieve(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Error("cluster-manifest reopen mismatch")
	}
}

func TestLoadFromClusterPicksFreshestReplica(t *testing.T) {
	cluster := store.NewMemCluster(0)
	a, err := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{4}, a.Capacity())
	mustCommit(t, a, v1)
	if err := a.SaveToCluster(); err != nil {
		t.Fatal(err)
	}
	// Node 0 is down during the second save, so its replica goes stale.
	mustCommit(t, a, editBlocks(v1, 4, 1))
	if err := cluster.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := a.SaveToCluster(); err != nil {
		t.Fatal(err)
	}
	cluster.HealAll()
	b, err := LoadFromCluster("t", cluster)
	if err != nil {
		t.Fatal(err)
	}
	if b.Versions() != 2 {
		t.Errorf("loaded stale replica: versions = %d, want 2", b.Versions())
	}
}

// TestLoadFromClusterSkipsStaleCompactionReplica is the regression test
// for a lost-version bug: compaction changes a manifest's entries but not
// how many there are, so a replica that missed the post-compaction save
// looked as fresh as the current one. Reloaded after the reclaim, it
// pointed versions at deleted codewords. The generation tells them apart.
func TestLoadFromClusterSkipsStaleCompactionReplica(t *testing.T) {
	ctx := t.Context()
	cluster := store.NewMemCluster(20)
	a, versions := chain20x10(t, cluster)
	if err := a.SaveToClusterContext(ctx); err != nil {
		t.Fatal(err)
	}
	if info, err := a.CompactKeepSupersededContext(ctx, 4); err != nil || !info.Changed() {
		t.Fatalf("compaction to 4: %+v, %v", info, err)
	}
	// Node 0 misses the post-compaction save and keeps the old replica.
	if err := cluster.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := a.SaveToClusterContext(ctx); err != nil {
		t.Fatal(err)
	}
	cluster.HealAll()
	if deleted, _, err := a.ReclaimSupersededContext(ctx); err != nil || deleted == 0 {
		t.Fatalf("reclaim deleted %d shards (%v), want the superseded codewords gone", deleted, err)
	}
	b, err := LoadFromClusterContext(ctx, "t", cluster)
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range versions {
		got, _, err := b.RetrieveContext(ctx, v+1)
		if err != nil {
			t.Fatalf("v%d after reload: %v", v+1, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("v%d differs after reload", v+1)
		}
	}
}

// TestReplicateManifestQuorum: a replication reaching fewer than N-K+1
// nodes fails and holds back reclaim, so the superseded codewords the
// stale replicas name survive until a save reaches the quorum.
func TestReplicateManifestQuorum(t *testing.T) {
	ctx := t.Context()
	cluster := store.NewMemCluster(20)
	a, versions := chain20x10(t, cluster)
	if err := a.SaveToClusterContext(ctx); err != nil {
		t.Fatal(err)
	}
	info, err := a.CompactKeepSupersededContext(ctx, 4)
	if err != nil || info.SupersededShards == 0 {
		t.Fatalf("compaction to 4: %+v, %v", info, err)
	}
	// Ten nodes down: the save reaches 10 of 20, one short of (20,10)'s
	// quorum of 11.
	down := []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	if err := cluster.Fail(down...); err != nil {
		t.Fatal(err)
	}
	if err := a.SaveToClusterContext(ctx); err == nil {
		t.Fatal("save reaching 10 of 20 nodes: want a quorum error")
	}
	cluster.HealAll()
	before := shardCount(t, cluster)
	if deleted, orphans, err := a.ReclaimSupersededContext(ctx); err != nil || deleted != 0 || orphans != 0 {
		t.Fatalf("reclaim below quorum = %d deleted, %d orphans, %v; want nothing deleted", deleted, orphans, err)
	}
	if after := shardCount(t, cluster); after != before {
		t.Fatalf("reclaim below quorum removed %d shards", before-after)
	}
	// The only fresh replicas sit on nodes 0-9; losing those leaves the
	// stale ones on 10-19, which must still read every version.
	fresh := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if err := cluster.Fail(fresh...); err != nil {
		t.Fatal(err)
	}
	stale, err := LoadFromClusterContext(ctx, "t", cluster)
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range versions {
		if got, _, err := stale.RetrieveContext(ctx, v+1); err != nil || !bytes.Equal(got, want) {
			t.Errorf("v%d from the stale replicas: %v", v+1, err)
		}
	}
	cluster.HealAll()
	if err := a.SaveToClusterContext(ctx); err != nil {
		t.Fatal(err)
	}
	if deleted, _, err := a.ReclaimSupersededContext(ctx); err != nil || deleted != info.SupersededShards {
		t.Errorf("reclaim after a quorum save deleted %d shards (%v), want %d", deleted, err, info.SupersededShards)
	}
}

// TestManifestGenerationCountsMutations: every commit and compaction swap
// bumps the generation, Save persists it on one line of JSON, and a
// reopened archive carries on counting from it.
func TestManifestGenerationCountsMutations(t *testing.T) {
	cluster := store.NewMemCluster(20)
	a, versions := chain20x10(t, cluster)
	if got := a.Manifest().Generation; got != uint64(len(versions)) {
		t.Errorf("generation after %d commits = %d", len(versions), got)
	}
	if _, err := a.CompactToContext(t.Context(), 4); err != nil {
		t.Fatal(err)
	}
	gen := a.Manifest().Generation
	if gen != uint64(len(versions))+1 {
		t.Errorf("generation after the compaction swap = %d, want %d", gen, len(versions)+1)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != 1 {
		t.Errorf("Save wrote %d lines, want one", n)
	}
	b, err := Load(&buf, cluster)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, b, editBlocks(versions[len(versions)-1], 8, 1))
	if got := b.Manifest().Generation; got != gen+1 {
		t.Errorf("reopened archive's next commit has generation %d, want %d", got, gen+1)
	}
	if got := a.ManifestEncodes(); got != 1 {
		t.Errorf("ManifestEncodes = %d after one Save, want 1", got)
	}
}

func TestLoadFromClusterMissing(t *testing.T) {
	if _, err := LoadFromCluster("ghost", store.NewMemCluster(3)); err == nil {
		t.Error("want error, got nil")
	}
}

func TestSaveToClusterAllNodesDown(t *testing.T) {
	cluster := store.NewMemCluster(0)
	a, err := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, a, []byte{1})
	if err := cluster.Fail(0, 1, 2, 3, 4, 5); err != nil {
		t.Fatal(err)
	}
	if err := a.SaveToCluster(); err == nil {
		t.Error("want error with every node down")
	}
}

func TestOpenDispersedPlacement(t *testing.T) {
	cluster := store.NewMemCluster(0)
	cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy)
	cfg.Placement = store.DispersedPlacement{N: 6}
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{1}, a.Capacity())
	mustCommit(t, a, v1)
	mustCommit(t, a, editBlocks(v1, 4, 0))

	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Load(&buf, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if b.Config().Placement.Name() != "dispersed" {
		t.Errorf("placement = %q", b.Config().Placement.Name())
	}
	got, _, err := b.Retrieve(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, editBlocks(v1, 4, 0)) {
		t.Error("dispersed reopen retrieval mismatch")
	}
}
