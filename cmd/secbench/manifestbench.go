package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	sec "github.com/secarchive/sec"
	"github.com/secarchive/sec/internal/gateway"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/transport"
)

// manifestCounter counts the put RPCs a cluster sends one node that carry
// an archive's replicated manifest (core stores it as "<archive>/manifest"),
// and their payload bytes.
type manifestCounter struct {
	*transport.RemoteNode
	rpcs, bytes atomic.Int64
}

func (n *manifestCounter) count(ids []store.ShardID, data [][]byte) {
	counted := false
	for i, id := range ids {
		if strings.HasSuffix(id.Object, "/manifest") {
			n.bytes.Add(int64(len(data[i])))
			counted = true
		}
	}
	if counted {
		n.rpcs.Add(1)
	}
}

func (n *manifestCounter) Put(ctx context.Context, id store.ShardID, data []byte) error {
	n.count([]store.ShardID{id}, [][]byte{data})
	return n.RemoteNode.Put(ctx, id, data)
}

func (n *manifestCounter) PutBatch(ctx context.Context, ids []store.ShardID, data [][]byte) []error {
	n.count(ids, data)
	return n.RemoteNode.PutBatch(ctx, ids, data)
}

// benchManifest measures the per-commit metadata path of a gateway as the
// manifest grows: one (12,10) CDEC archive over twelve loopback TCP nodes
// takes 1-sparse commits up to 512 versions, and the eight commits ending
// at each of 16, 128 and 512 versions are accounted. Per commit: the bytes
// of the local manifest file, the manifest bytes replicated to the nodes,
// the put RPCs carrying them, and the manifest encodes. All four are
// deterministic; the commit wall time is not.
func benchManifest(ctx context.Context) (benchReport, error) {
	report := benchReport{
		Bench:       "manifest",
		Description: "gateway commit metadata path vs chain length: (12,10) CDEC archive, 1-sparse commits over 12 loopback TCP nodes, manifest bytes/put RPCs/encodes per commit",
		GoMaxProcs:  gomaxprocs(),
	}
	const (
		n         = 12
		k         = 10
		blockSize = 64
		window    = 8
		name      = "bench-manifest"
	)
	nodes := make([]sec.StorageNode, n)
	counters := make([]*manifestCounter, n)
	for i := 0; i < n; i++ {
		srv := transport.NewServer(store.NewMemNode(fmt.Sprintf("mem-%d", i)))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return report, err
		}
		defer srv.Close()
		counters[i] = &manifestCounter{RemoteNode: transport.NewRemoteNode(fmt.Sprintf("remote-%d", i), addr.String())}
		defer counters[i].Close()
		nodes[i] = counters[i]
	}
	root, err := os.MkdirTemp("", "secbench-manifest")
	if err != nil {
		return report, err
	}
	defer os.RemoveAll(root)
	gw, err := gateway.New(gateway.Config{Cluster: sec.NewCluster(nodes), Root: root})
	if err != nil {
		return report, err
	}
	defer gw.Close(context.Background())
	info, err := gw.Create(ctx, name, transport.ArchiveSpec{N: n, K: k, BlockSize: blockSize, CompressDeltas: true})
	if err != nil {
		return report, err
	}
	rng := rand.New(rand.NewSource(6))
	v := make([]byte, info.Capacity)
	rng.Read(v)
	versions := 0
	commit := func() error {
		next := v
		if versions > 0 {
			var err error
			if next, err = sec.SparseEdit(rng, v, blockSize, 1); err != nil {
				return err
			}
		}
		if _, err := gw.Commit(ctx, name, -1, next); err != nil {
			return err
		}
		v = next
		versions++
		return nil
	}
	totals := func() (rpcs, bytes int64) {
		for _, c := range counters {
			rpcs += c.rpcs.Load()
			bytes += c.bytes.Load()
		}
		return rpcs, bytes
	}
	for _, length := range []int{16, 128, 512} {
		for versions < length-window {
			if err := commit(); err != nil {
				return report, err
			}
		}
		rpcsBefore, bytesBefore := totals()
		encodesBefore := gw.Stats().ManifestEncodes
		var local int64
		var elapsed time.Duration
		for i := 0; i < window; i++ {
			start := time.Now()
			if err := commit(); err != nil {
				return report, err
			}
			elapsed += time.Since(start)
			st, err := os.Stat(filepath.Join(root, name+".json"))
			if err != nil {
				return report, err
			}
			local += st.Size()
		}
		rpcs, bytes := totals()
		report.Results = append(report.Results, benchResult{
			Name:                      fmt.Sprintf("chain-%d", length),
			Iterations:                window,
			NsPerOp:                   float64(elapsed.Nanoseconds()) / window,
			ManifestBytesPerOp:        float64(local) / window,
			ManifestReplicaBytesPerOp: float64(bytes-bytesBefore) / window,
			ManifestPutRPCsPerOp:      float64(rpcs-rpcsBefore) / window,
			ManifestEncodesPerOp:      float64(gw.Stats().ManifestEncodes-encodesBefore) / window,
		})
	}
	return report, nil
}
