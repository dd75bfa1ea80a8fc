package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/secarchive/sec/internal/gateway"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/transport"
	"github.com/secarchive/sec/secclient"
)

// fixture is the served system, run in this process the way the daemons
// run it:
//
//	secclient -> loopback TCP -> transport.Server(gateway, manifest Root)
//	          -> core -> store.Cluster of transport.RemoteNodes
//	          -> loopback TCP -> transport.Server(store.DiskNode)
//
// The node side mirrors `secnode -data`: one DiskNode per server. The
// gateway side mirrors `secgw`: plain RemoteNodes with a per-RPC timeout
// and no retry policy or circuit breaker. Flushing is the program's own
// and is not changed here: a DiskNode writes a temp file, fsyncs it,
// renames it and fsyncs the directory; the gateway writes its manifest to
// a temp file and renames it over the old one, without an fsync.
type fixture struct {
	dir      string
	disks    []*store.DiskNode
	servers  []*transport.Server
	remotes  []*transport.RemoteNode
	gw       *gateway.Gateway
	gwServer *transport.Server
	clients  []*secclient.Client
}

// nodeRPCTimeout is secgw's default -timeout.
const nodeRPCTimeout = 5 * time.Second

// startFixture starts nodeCount node servers over DiskNodes under dir, a
// gateway over them with its manifest root under dir, and one secclient
// per caller. A non-nil tracer decorates the gateway backend, the
// gateway's cluster nodes and the node servers' DiskNodes.
func startFixture(dir string, callers int, tr *tracer) (_ *fixture, err error) {
	f := &fixture{dir: dir}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	nodes := make([]store.Node, nodeCount)
	for i := range nodes {
		disk, err := store.NewDiskNode(fmt.Sprintf("node-%d", i), filepath.Join(dir, "nodes", fmt.Sprintf("node-%d", i)))
		if err != nil {
			return nil, err
		}
		f.disks = append(f.disks, disk)
		var served store.Node = disk
		if tr != nil {
			served = &tracedDisk{node: disk, tr: tr}
		}
		srv := transport.NewServer(served)
		f.servers = append(f.servers, srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		remote := transport.NewRemoteNode(fmt.Sprintf("node-%d", i), addr.String(), transport.WithTimeout(nodeRPCTimeout))
		f.remotes = append(f.remotes, remote)
		nodes[i] = remote
		if tr != nil {
			nodes[i] = &tracedRemote{node: remote, tr: tr}
		}
	}
	f.gw, err = gateway.New(gateway.Config{Cluster: store.NewCluster(nodes), Root: filepath.Join(dir, "gateway")})
	if err != nil {
		return nil, err
	}
	var backend transport.ArchiveBackend = f.gw
	if tr != nil {
		backend = &tracedBackend{inner: f.gw, tr: tr}
	}
	f.gwServer = transport.NewServer(nil, transport.WithArchiveBackend(backend))
	addr, err := f.gwServer.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for i := 0; i < callers; i++ {
		f.clients = append(f.clients, secclient.Dial(addr.String()))
	}
	return f, nil
}

// close stops everything the fixture started, clients first, and waits
// for the servers' connections to end.
func (f *fixture) close() error {
	var errs []error
	for _, c := range f.clients {
		errs = append(errs, c.Close())
	}
	if f.gwServer != nil {
		errs = append(errs, f.gwServer.Close())
	}
	if f.gw != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, f.gw.Close(ctx))
		cancel()
	}
	for _, r := range f.remotes {
		errs = append(errs, r.Close())
	}
	for _, s := range f.servers {
		errs = append(errs, s.Close())
	}
	for _, d := range f.disks {
		errs = append(errs, d.Close())
	}
	return errors.Join(errs...)
}

// diskStats totals the DiskNodes' I/O counters.
func (f *fixture) diskStats() store.NodeStats {
	var s store.NodeStats
	for _, d := range f.disks {
		s = s.Add(d.Stats())
	}
	return s
}

// nodeDirBytes sums the sizes of the regular files under the node
// directories: what the cluster stores on disk.
func (f *fixture) nodeDirBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(filepath.Join(f.dir, "nodes"), func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
