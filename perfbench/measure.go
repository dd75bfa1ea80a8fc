package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/secarchive/sec/secclient"
)

// registry holds the checksum of every version committed to every
// archive, so each reply can be checked in band.
type registry struct {
	mu    sync.Mutex
	sums  [][]uint64 // sums[a][v-1]; a commit's entry is added before it is sent
	acked []int      // versions the gateway has acknowledged, per archive
}

func newRegistry(archives int) *registry {
	return &registry{sums: make([][]uint64, archives), acked: make([]int, archives)}
}

// expect registers the payload of the version a commit is about to
// create, before the commit is sent: a concurrent reader may see the
// version as soon as the gateway has stored it.
func (r *registry) expect(a, version int, sum uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if version != len(r.sums[a])+1 {
		return fmt.Errorf("%s: planned version %d after %d", archiveName(a), version, len(r.sums[a]))
	}
	r.sums[a] = append(r.sums[a], sum)
	return nil
}

func (r *registry) ack(a, version int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.acked[a] = max(r.acked[a], version)
}

func (r *registry) ackedVersions(a int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.acked[a]
}

func (r *registry) total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, v := range r.acked {
		n += v
	}
	return n
}

// matches reports whether data is version v of archive a.
func (r *registry) matches(a, v int, data []byte) bool {
	sum := payloadSum(data)
	r.mu.Lock()
	defer r.mu.Unlock()
	return v >= 1 && v <= len(r.sums[a]) && r.sums[a][v-1] == sum
}

// tally is what one closed-loop client observed; tallies are merged after
// the measured phase, so the loop itself shares nothing.
type tally struct {
	lat       [numOps][]time.Duration // latencies of the ops that succeeded
	attempted int
	failed    int       // errors (busy and conflict rejections included) and byte mismatches
	mismatch  int       // byte mismatches alone
	end       time.Time // when the client's last op returned

	reads    secclient.RetrievalStats // summed over every read; Objects stays empty
	versions int                      // versions returned by reads
	single   int                      // single-version reads (Retrieve and Latest)

	commits, shardWrites, gammaSum, compressedCommits int
}

func (t *tally) merge(o *tally) {
	for k := range t.lat {
		t.lat[k] = append(t.lat[k], o.lat[k]...)
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatch += o.mismatch
	if o.end.After(t.end) {
		t.end = o.end
	}
	t.addStats(o.reads)
	t.versions += o.versions
	t.single += o.single
	t.commits += o.commits
	t.shardWrites += o.shardWrites
	t.gammaSum += o.gammaSum
	t.compressedCommits += o.compressedCommits
}

// addStats adds one read's accounting, without its per-object details.
func (t *tally) addStats(s secclient.RetrievalStats) {
	s.Objects = nil
	t.reads.Merge(s)
}

// do issues one planned op through c and checks the reply. It returns
// false when the op failed or returned wrong bytes.
func (t *tally) do(ctx context.Context, c *secclient.Client, reg *registry, o op) bool {
	name := archiveName(o.archive)
	t.attempted++
	// A read must return at least the versions acknowledged before it.
	floor := reg.ackedVersions(o.archive)
	want := o.version
	if o.kind == opRetrieve && want == 0 {
		want = max(1, floor-o.back)
	}
	if o.kind == opCommit {
		if err := reg.expect(o.archive, o.version, o.sum); err != nil {
			t.failed++
			return false
		}
	}
	var (
		info    secclient.CommitInfo
		v       secclient.Version
		all     [][]byte
		stats   secclient.RetrievalStats
		entries []secclient.LogEntry
		err     error
	)
	start := time.Now()
	switch o.kind {
	case opCommit:
		info, err = c.Commit(ctx, name, o.payload)
	case opRetrieve:
		v, err = c.Retrieve(ctx, name, want)
	case opLatest:
		v, err = c.Latest(ctx, name)
	case opHistory:
		all, stats, err = c.RetrieveAll(ctx, name, 0)
	case opLog:
		entries, err = c.Log(ctx, name)
	}
	took := time.Since(start)
	if err != nil {
		t.failed++
		return false
	}
	ok := true
	switch o.kind {
	case opCommit:
		ok = info.Version == o.version
		reg.ack(o.archive, info.Version)
		t.commits++
		t.shardWrites += info.ShardWrites
		t.gammaSum += info.Gamma
		if info.Compressed {
			t.compressedCommits++
		}
	case opRetrieve, opLatest:
		if o.kind == opLatest {
			ok = v.Version >= floor
		} else {
			ok = v.Version == want
		}
		ok = ok && reg.matches(o.archive, v.Version, v.Data)
		t.addStats(v.Stats)
		t.versions++
		t.single++
	case opHistory:
		ok = len(all) >= floor
		for i, data := range all {
			ok = ok && reg.matches(o.archive, i+1, data)
		}
		t.addStats(stats)
		t.versions += len(all)
	case opLog:
		ok = len(entries) >= floor
		for i, e := range entries {
			ok = ok && e.Version == i+1 && e.Length == objectLen
		}
	}
	if !ok {
		t.failed++
		t.mismatch++
		return false
	}
	t.lat[o.kind] = append(t.lat[o.kind], took)
	return true
}

// setUp creates and seeds the workload's archives through the clients,
// which split the archives between them, and for warm workloads reads
// every version once.
func setUp(ctx context.Context, f *fixture, w *workloadSpec, seeded [][][]byte, reg *registry) error {
	errs := make([]error, len(f.clients))
	var wg sync.WaitGroup
	for c, client := range f.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := c; a < w.archives; a += len(f.clients) {
				errs[c] = seedArchive(ctx, client, w, a, seeded[a], reg)
				if errs[c] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil || !w.warm {
		return err
	}
	var warm tally
	for a := range seeded {
		for v := range seeded[a] {
			if !warm.do(ctx, f.clients[0], reg, op{kind: opRetrieve, archive: a, version: v + 1}) {
				return fmt.Errorf("warm-up read of %s version %d failed", archiveName(a), v+1)
			}
		}
	}
	return nil
}

func seedArchive(ctx context.Context, c *secclient.Client, w *workloadSpec, a int, versions [][]byte, reg *registry) error {
	name := archiveName(a)
	if _, err := c.Create(ctx, name, w.spec); err != nil {
		return fmt.Errorf("creating %s: %w", name, err)
	}
	for i, payload := range versions {
		if err := reg.expect(a, i+1, payloadSum(payload)); err != nil {
			return err
		}
		info, err := c.Commit(ctx, name, payload)
		if err != nil {
			return fmt.Errorf("seeding %s version %d: %w", name, i+1, err)
		}
		if info.Version != i+1 {
			return fmt.Errorf("seeding %s: committed version %d, want %d", name, info.Version, i+1)
		}
		reg.ack(a, info.Version)
	}
	return nil
}

// measure runs the closed loop: every client issues ops planned ops one
// at a time, each after the previous reply, and stops early only once
// limit has passed.
func measure(ctx context.Context, f *fixture, planners []*planner, reg *registry, ops int, limit time.Duration) (*tally, time.Duration, error) {
	tallies := make([]tally, len(f.clients))
	errs := make([]error, len(f.clients))
	start := time.Now()
	deadline := start.Add(limit)
	var wg sync.WaitGroup
	for c, client := range f.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tallies[c]
			for i := 0; i < ops && time.Now().Before(deadline); i++ {
				o, err := planners[c].next()
				if err != nil {
					errs[c] = err
					return
				}
				t.do(ctx, client, reg, o)
				t.end = time.Now()
			}
		}()
	}
	wg.Wait()
	total := &tally{}
	for i := range tallies {
		total.merge(&tallies[i])
	}
	return total, total.end.Sub(start), errors.Join(errs...)
}

// sweep re-reads every archive's whole history and checks every version
// against the registry; it returns the number of archives whose history
// does not match.
func sweep(ctx context.Context, c *secclient.Client, w *workloadSpec, reg *registry) (int, error) {
	bad := 0
	for a := 0; a < w.archives; a++ {
		all, _, err := c.RetrieveAll(ctx, archiveName(a), 0)
		if err != nil {
			return bad, fmt.Errorf("final sweep of %s: %w", archiveName(a), err)
		}
		ok := len(all) == reg.ackedVersions(a)
		for i, data := range all {
			ok = ok && reg.matches(a, i+1, data)
		}
		if !ok {
			bad++
		}
	}
	return bad, nil
}
