package main

import (
	"cmp"
	"context"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/transport"
)

// The traced run decorates three boundaries of the served system from
// outside, without touching the program:
//
//   - tracedBackend wraps the gateway's ArchiveBackend and puts an
//     opRecord into each request's context;
//   - tracedRemote wraps each RemoteNode of the gateway's cluster and
//     appends one span per node RPC to the op record it finds in ctx;
//   - tracedDisk wraps each DiskNode behind a node server and times the
//     handler calls.
//
// Both node wrappers keep the store.BatchNode capability, so the cluster
// and the node servers issue exactly the batches they issue untraced.

// callKind is one kind of node call.
type callKind int

const (
	callGetBatch callKind = iota
	callPutBatch
	callDeleteBatch
	callPut
	callGet
	callDelete
	callAvailable
	numCalls
)

var callNames = [numCalls]string{"get_batch", "put_batch", "delete_batch", "put", "get", "delete", "available"}

// opOther buckets backend calls outside the measured op kinds (Create,
// Info, Compact, Scrub, Repair), which only set-up issues.
const opOther = numOps

// span is one node RPC issued on behalf of an op, in ns since the tracer
// epoch.
type span struct {
	start, end int64
	call       callKind
	manifest   bool
}

// opRecord collects the spans of one backend call. The cluster fans an
// op's batches out concurrently, hence the lock.
type opRecord struct {
	kind  opKind
	start int64
	mu    sync.Mutex
	spans []span
}

type recordKey struct{}

// opTotals aggregates the backend calls of one op kind.
type opTotals struct {
	n            int64
	backendNs    int64 // gateway + core + cluster: the backend call's duration
	wallNs       int64 // union of each op's RPC intervals
	rpcNs        int64 // summed RPC durations
	rpcs         int64 // data RPCs (everything but liveness probes)
	probes       int64 // Available probes
	manifestPuts int64 // puts of the replicated manifest
	manifestNs   int64 // union of each op's manifest put intervals
}

func (o *opTotals) add(b opTotals) {
	o.n += b.n
	o.backendNs += b.backendNs
	o.wallNs += b.wallNs
	o.rpcNs += b.rpcNs
	o.rpcs += b.rpcs
	o.probes += b.probes
	o.manifestPuts += b.manifestPuts
	o.manifestNs += b.manifestNs
}

// callTotals aggregates one node call kind on both sides of the wire.
type callTotals struct {
	n, ns               int64 // RemoteNode calls as the gateway's cluster saw them
	handlerN, handlerNs int64 // DiskNode calls inside the node servers
}

// tracer holds the per-layer aggregates of a traced run in memory.
type tracer struct {
	epoch time.Time

	mu           sync.Mutex
	ops          [numOps + 1]opTotals
	calls        [numCalls]callTotals
	unattributed int64 // node RPCs that reached the cluster with no op record
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// reset zeroes the aggregates, so set-up traffic stays out of them.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops = [numOps + 1]opTotals{}
	t.calls = [numCalls]callTotals{}
	t.unattributed = 0
}

// snapshot copies the aggregates.
func (t *tracer) snapshot() (ops [numOps + 1]opTotals, calls [numCalls]callTotals, unattributed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ops, t.calls, t.unattributed
}

func (t *tracer) begin(ctx context.Context, kind opKind) (context.Context, *opRecord) {
	rec := &opRecord{kind: kind, start: t.now()}
	return context.WithValue(ctx, recordKey{}, rec), rec
}

// finish folds a completed backend call into the op totals.
func (t *tracer) finish(rec *opRecord) {
	end := t.now()
	rec.mu.Lock()
	spans := slices.Clone(rec.spans)
	rec.mu.Unlock()
	var manifest []span
	tot := opTotals{n: 1, backendNs: end - rec.start, wallNs: union(spans)}
	for _, s := range spans {
		tot.rpcNs += s.end - s.start
		if s.call == callAvailable {
			tot.probes++
		} else {
			tot.rpcs++
		}
		if s.manifest {
			tot.manifestPuts++
			manifest = append(manifest, s)
		}
	}
	tot.manifestNs = union(manifest)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops[rec.kind].add(tot)
}

// rpc records one node RPC that started at start and has just ended.
func (t *tracer) rpc(ctx context.Context, call callKind, start int64, manifest bool) {
	s := span{start: start, end: t.now(), call: call, manifest: manifest}
	t.mu.Lock()
	t.calls[call].n++
	t.calls[call].ns += s.end - s.start
	rec, _ := ctx.Value(recordKey{}).(*opRecord)
	if rec == nil {
		t.unattributed++
	}
	t.mu.Unlock()
	if rec != nil {
		rec.mu.Lock()
		rec.spans = append(rec.spans, s)
		rec.mu.Unlock()
	}
}

// handler records one DiskNode call that started at start and has just
// ended.
func (t *tracer) handler(call callKind, start int64) {
	d := t.now() - start
	t.mu.Lock()
	t.calls[call].handlerN++
	t.calls[call].handlerNs += d
	t.mu.Unlock()
}

// union returns the total length covered by the spans' intervals.
func union(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	spans = slices.Clone(spans)
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	var total int64
	lo, hi := spans[0].start, spans[0].end
	for _, s := range spans[1:] {
		if s.start > hi {
			total += hi - lo
			lo, hi = s.start, s.end
			continue
		}
		hi = max(hi, s.end)
	}
	return total + hi - lo
}

// isManifest reports whether a shard is an archive's replicated manifest
// (core stores it under the object "<archive>/manifest").
func isManifest(id store.ShardID) bool { return strings.HasSuffix(id.Object, "/manifest") }

// tracedBackend times every gateway call and gives it an op record.
type tracedBackend struct {
	inner transport.ArchiveBackend
	tr    *tracer
}

var _ transport.ArchiveBackend = (*tracedBackend)(nil)

func (b *tracedBackend) Create(ctx context.Context, name string, spec transport.ArchiveSpec) (transport.ArchiveInfo, error) {
	ctx, rec := b.tr.begin(ctx, opOther)
	defer b.tr.finish(rec)
	return b.inner.Create(ctx, name, spec)
}

func (b *tracedBackend) Commit(ctx context.Context, name string, expect int, object []byte) (core.CommitInfo, error) {
	ctx, rec := b.tr.begin(ctx, opCommit)
	defer b.tr.finish(rec)
	return b.inner.Commit(ctx, name, expect, object)
}

func (b *tracedBackend) Retrieve(ctx context.Context, name string, version int) (transport.ArchiveVersion, error) {
	kind := opRetrieve
	if version == 0 {
		kind = opLatest // secclient's Latest is Retrieve(0)
	}
	ctx, rec := b.tr.begin(ctx, kind)
	defer b.tr.finish(rec)
	return b.inner.Retrieve(ctx, name, version)
}

func (b *tracedBackend) RetrieveAll(ctx context.Context, name string, version int) ([][]byte, core.RetrievalStats, error) {
	ctx, rec := b.tr.begin(ctx, opHistory)
	defer b.tr.finish(rec)
	return b.inner.RetrieveAll(ctx, name, version)
}

func (b *tracedBackend) Log(ctx context.Context, name string) ([]transport.ArchiveLogEntry, error) {
	ctx, rec := b.tr.begin(ctx, opLog)
	defer b.tr.finish(rec)
	return b.inner.Log(ctx, name)
}

func (b *tracedBackend) Info(ctx context.Context, name string) (transport.ArchiveInfo, error) {
	ctx, rec := b.tr.begin(ctx, opOther)
	defer b.tr.finish(rec)
	return b.inner.Info(ctx, name)
}

func (b *tracedBackend) Compact(ctx context.Context, name string, maxChain int) (transport.CompactReport, error) {
	ctx, rec := b.tr.begin(ctx, opOther)
	defer b.tr.finish(rec)
	return b.inner.Compact(ctx, name, maxChain)
}

func (b *tracedBackend) Scrub(ctx context.Context, name string, repair bool) (core.ScrubReport, error) {
	ctx, rec := b.tr.begin(ctx, opOther)
	defer b.tr.finish(rec)
	return b.inner.Scrub(ctx, name, repair)
}

func (b *tracedBackend) Repair(ctx context.Context, name string, node int) (core.RepairReport, error) {
	ctx, rec := b.tr.begin(ctx, opOther)
	defer b.tr.finish(rec)
	return b.inner.Repair(ctx, name, node)
}

// tracedRemote records a span for every RPC the gateway's cluster issues
// to one node.
type tracedRemote struct {
	node *transport.RemoteNode
	tr   *tracer
}

var (
	_ store.Node          = (*tracedRemote)(nil)
	_ store.BatchNode     = (*tracedRemote)(nil)
	_ store.StatsReporter = (*tracedRemote)(nil)
)

func (n *tracedRemote) ID() string { return n.node.ID() }

func (n *tracedRemote) Put(ctx context.Context, id store.ShardID, data []byte) error {
	start := n.tr.now()
	err := n.node.Put(ctx, id, data)
	n.tr.rpc(ctx, callPut, start, isManifest(id))
	return err
}

func (n *tracedRemote) Get(ctx context.Context, id store.ShardID) ([]byte, error) {
	start := n.tr.now()
	data, err := n.node.Get(ctx, id)
	n.tr.rpc(ctx, callGet, start, false)
	return data, err
}

func (n *tracedRemote) Delete(ctx context.Context, id store.ShardID) error {
	start := n.tr.now()
	err := n.node.Delete(ctx, id)
	n.tr.rpc(ctx, callDelete, start, false)
	return err
}

func (n *tracedRemote) GetBatch(ctx context.Context, ids []store.ShardID) []store.ShardResult {
	start := n.tr.now()
	res := n.node.GetBatch(ctx, ids)
	n.tr.rpc(ctx, callGetBatch, start, false)
	return res
}

func (n *tracedRemote) PutBatch(ctx context.Context, ids []store.ShardID, data [][]byte) []error {
	start := n.tr.now()
	errs := n.node.PutBatch(ctx, ids, data)
	n.tr.rpc(ctx, callPutBatch, start, slices.ContainsFunc(ids, isManifest))
	return errs
}

func (n *tracedRemote) DeleteBatch(ctx context.Context, ids []store.ShardID) []error {
	start := n.tr.now()
	errs := n.node.DeleteBatch(ctx, ids)
	n.tr.rpc(ctx, callDeleteBatch, start, false)
	return errs
}

func (n *tracedRemote) Available(ctx context.Context) bool {
	start := n.tr.now()
	up := n.node.Available(ctx)
	n.tr.rpc(ctx, callAvailable, start, false)
	return up
}

func (n *tracedRemote) Stats() store.NodeStats { return n.node.Stats() }
func (n *tracedRemote) ResetStats()            { n.node.ResetStats() }
func (n *tracedRemote) StatsErr(ctx context.Context) (store.NodeStats, error) {
	return n.node.StatsErr(ctx)
}

// tracedDisk times the DiskNode calls a node server makes.
type tracedDisk struct {
	node *store.DiskNode
	tr   *tracer
}

var (
	_ store.Node      = (*tracedDisk)(nil)
	_ store.BatchNode = (*tracedDisk)(nil)
)

func (n *tracedDisk) ID() string { return n.node.ID() }

func (n *tracedDisk) Put(ctx context.Context, id store.ShardID, data []byte) error {
	defer n.tr.handler(callPut, n.tr.now())
	return n.node.Put(ctx, id, data)
}

func (n *tracedDisk) Get(ctx context.Context, id store.ShardID) ([]byte, error) {
	defer n.tr.handler(callGet, n.tr.now())
	return n.node.Get(ctx, id)
}

func (n *tracedDisk) Delete(ctx context.Context, id store.ShardID) error {
	defer n.tr.handler(callDelete, n.tr.now())
	return n.node.Delete(ctx, id)
}

func (n *tracedDisk) GetBatch(ctx context.Context, ids []store.ShardID) []store.ShardResult {
	defer n.tr.handler(callGetBatch, n.tr.now())
	return n.node.GetBatch(ctx, ids)
}

func (n *tracedDisk) PutBatch(ctx context.Context, ids []store.ShardID, data [][]byte) []error {
	defer n.tr.handler(callPutBatch, n.tr.now())
	return n.node.PutBatch(ctx, ids, data)
}

func (n *tracedDisk) DeleteBatch(ctx context.Context, ids []store.ShardID) []error {
	defer n.tr.handler(callDeleteBatch, n.tr.now())
	return n.node.DeleteBatch(ctx, ids)
}

func (n *tracedDisk) Available(ctx context.Context) bool {
	defer n.tr.handler(callAvailable, n.tr.now())
	return n.node.Available(ctx)
}

func (n *tracedDisk) Stats() store.NodeStats { return n.node.Stats() }
func (n *tracedDisk) ResetStats()            { n.node.ResetStats() }
