package main

import (
	"fmt"
	"io"
	"time"
)

// minP99Samples is the fewest samples an op needs for its p99 to be
// reported: ten samples beyond the quantile.
const minP99Samples = 1000

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sumNs(samples []time.Duration) int64 {
	var s int64
	for _, d := range samples {
		s += int64(d)
	}
	return s
}

// layers splits one op population's mean secclient latency into layer
// means in µs: hop (client, wire and the gateway server's framing) =
// client time − backend time, over the client's ops; self (gateway +
// core) = backend time − cluster wall and wall (the union of the op's
// node RPC intervals), over the backend's calls. unattributed is what the
// three leave of the client mean: nonzero only when the client and the
// backend counted different numbers of ops.
type layers struct {
	n                                     int // ops the client measured
	client, hop, self, wall, unattributed float64
	rpcs, probes, parallelism             float64 // per backend call
}

func splitLayers(lat []time.Duration, o opTotals) layers {
	clientNs := sumNs(lat)
	calls := float64(o.n)
	l := layers{
		n:           len(lat),
		client:      ratio(float64(clientNs), float64(len(lat))) / 1e3,
		hop:         ratio(float64(clientNs-o.backendNs), float64(len(lat))) / 1e3,
		self:        ratio(float64(o.backendNs-o.wallNs), calls) / 1e3,
		wall:        ratio(float64(o.wallNs), calls) / 1e3,
		rpcs:        ratio(float64(o.rpcs), calls),
		probes:      ratio(float64(o.probes), calls),
		parallelism: ratio(float64(o.rpcNs), float64(o.wallNs)),
	}
	l.unattributed = l.client - l.hop - l.self - l.wall
	return l
}

// opLayers splits each measured op kind of a traced phase, and all of
// them together.
func opLayers(traced *outcome) (perOp [numOps]layers, all layers) {
	var lat []time.Duration
	var sum opTotals
	for k := opKind(0); k < numOps; k++ {
		perOp[k] = splitLayers(traced.lat[k], traced.ops[k])
		lat = append(lat, traced.lat[k]...)
		sum.add(traced.ops[k])
	}
	return perOp, splitLayers(lat, sum)
}

// layerMetrics computes the per-layer metrics of a traced phase: layer
// times are per-op means over every measured op (see layers). Ratios
// whose denominator is absent from the workload (per commit on a
// read-only workload) are 0.
func layerMetrics(untraced, traced *outcome) map[string]metric {
	_, all := opLayers(traced)
	var plain []time.Duration
	for k := range untraced.lat {
		plain = append(plain, untraced.lat[k]...)
	}
	var callN, callNs, handlerN, handlerNs int64
	for _, c := range traced.calls {
		callN, callNs = callN+c.n, callNs+c.ns
		handlerN, handlerNs = handlerN+c.handlerN, handlerNs+c.handlerNs
	}
	commits := float64(traced.commits)
	versions := float64(traced.versions)
	rpcUs := ratio(float64(callNs), float64(callN)) / 1e3
	diskUs := ratio(float64(handlerNs), float64(handlerN)) / 1e3
	cm := traced.ops[opCommit]
	reads := traced.reads
	count := func(v float64) metric { return metric{v, "count"} }
	return map[string]metric{
		"transport.gw_hop_us":               {all.hop, "us"},
		"core.self_us":                      {all.self, "us"},
		"cluster.wall_us":                   {all.wall, "us"},
		"transport.node_rpc_us":             {rpcUs, "us"},
		"transport.node_overhead_us":        {rpcUs - diskUs, "us"},
		"store.disk_us":                     {diskUs, "us"},
		"trace.overhead_us":                 {all.client - splitLayers(plain, opTotals{}).client, "us"},
		"cluster.rpcs_per_op":               count(all.rpcs),
		"cluster.probes_per_op":             count(all.probes),
		"cluster.parallelism":               {all.parallelism, "ratio"},
		"cluster.manifest_puts_per_commit":  count(ratio(float64(cm.manifestPuts), commits)),
		"cluster.manifest_us_per_commit":    {ratio(float64(cm.manifestNs), commits) / 1e3, "us"},
		"cluster.unattributed_rpcs":         count(float64(traced.unattributed)),
		"shard_reads_per_version":           count(ratio(float64(reads.NodeReads), versions)),
		"core.sparse_reads_per_version":     count(ratio(float64(reads.SparseReads), versions)),
		"core.full_reads_per_version":       count(ratio(float64(reads.FullReads), versions)),
		"core.compressed_reads_per_version": count(ratio(float64(reads.CompressedReads), versions)),
		"core.cache_hit_rate":               {ratio(float64(reads.CacheHits), float64(traced.single)), "ratio"},
		"core.shard_writes_per_commit":      count(ratio(float64(traced.shardWrites), commits)),
		"core.gamma_mean":                   count(ratio(float64(traced.gammaSum), commits)),
		"core.compressed_commit_frac":       {ratio(float64(traced.compressedCommits), commits), "ratio"},
		"store.shards_read_per_op":          count(ratio(float64(traced.diskReads), float64(all.n))),
		"store.bytes_written_per_user_byte": {ratio(float64(traced.diskWritten), commits*objectLen), "ratio"},
		"gateway.busy_frac":                 {ratio(float64(traced.gwBusy), float64(traced.attempted)), "ratio"},
		"gateway.conflict_frac":             {ratio(float64(traced.gwConflicts), float64(traced.attempted)), "ratio"},
		"failed_frac":                       {ratio(float64(traced.failed), float64(traced.attempted)), "ratio"},
	}
}

// printLatencyTable writes each op's latency quantiles, exact over every
// sample; a p99 is shown only with at least minP99Samples samples.
func printLatencyTable(out io.Writer, w *workloadSpec, o *outcome) {
	fmt.Fprintf(out, "%s: %d of %d planned ops in %.2fs (%.1f ops/s), %d failed, %d byte mismatches, %d archives failed the final sweep\n",
		w.name, o.attempted, o.planned, o.elapsed.Seconds(), float64(o.attempted)/o.elapsed.Seconds(), o.failed, o.mismatch, o.sweepBad)
	fmt.Fprintf(out, "%-9s %8s %10s %10s %10s %10s\n", "op", "n", "p50_ms", "p90_ms", "p99_ms", "mean_ms")
	for k := opKind(0); k < numOps; k++ {
		lat := o.lat[k]
		if len(lat) == 0 {
			continue
		}
		p99 := "-"
		if len(lat) >= minP99Samples {
			p99 = fmt.Sprintf("%.3f", quantileMs(lat, 0.99))
		}
		fmt.Fprintf(out, "%-9s %8d %10.3f %10.3f %10s %10.3f\n", k, len(lat), quantileMs(lat, 0.50), quantileMs(lat, 0.90), p99,
			float64(sumNs(lat))/float64(len(lat))/1e6)
	}
	fmt.Fprintf(out, "shard_reads_per_version %.4f, stored_bytes_per_user_byte %.4f\n",
		ratio(float64(o.reads.NodeReads), float64(o.versions)), ratio(float64(o.nodeBytes), float64(o.userBytes)))
}

// printLayerTable writes the per-op layer means of a traced phase (µs,
// see layers), the tracing overhead per op, and the per-call node RPC and
// DiskNode handler means.
func printLayerTable(out io.Writer, w *workloadSpec, untraced, traced *outcome) {
	fmt.Fprintf(out, "%s traced: %d ops in %.2fs; untraced: %d ops in %.2fs; %d unattributed node RPCs\n",
		w.name, traced.attempted, traced.elapsed.Seconds(), untraced.attempted, untraced.elapsed.Seconds(), traced.unattributed)
	fmt.Fprintf(out, "%-9s %7s %10s %10s %10s %10s %10s %8s %8s %8s %10s\n", "op", "n", "client_us", "gw_hop_us",
		"self_us", "wall_us", "unattr_us", "rpcs/op", "probes", "par", "overhd_us")
	perOp, _ := opLayers(traced)
	for k, l := range perOp {
		if l.n == 0 || traced.ops[k].n == 0 {
			continue
		}
		overhead := "-"
		if plain := untraced.lat[k]; len(plain) > 0 {
			overhead = fmt.Sprintf("%.1f", l.client-splitLayers(plain, opTotals{}).client)
		}
		fmt.Fprintf(out, "%-9s %7d %10.1f %10.1f %10.1f %10.1f %10.1f %8.2f %8.2f %8.2f %10s\n", opKind(k), l.n, l.client, l.hop,
			l.self, l.wall, l.unattributed, l.rpcs, l.probes, l.parallelism, overhead)
	}
	fmt.Fprintf(out, "%-13s %9s %10s %12s %12s\n", "node call", "rpcs", "rpc_us", "handler_us", "overhead_us")
	for c := callKind(0); c < numCalls; c++ {
		t := traced.calls[c]
		if t.n == 0 && t.handlerN == 0 {
			continue
		}
		rpc, handler := ratio(float64(t.ns), float64(t.n))/1e3, ratio(float64(t.handlerNs), float64(t.handlerN))/1e3
		fmt.Fprintf(out, "%-13s %9d %10.1f %12.1f %12.1f\n", callNames[c], t.n, rpc, handler, rpc-handler)
	}
	if cm := traced.ops[opCommit]; traced.commits > 0 {
		fmt.Fprintf(out, "manifest: %.2f puts/commit, %.1f us/commit\n",
			float64(cm.manifestPuts)/float64(traced.commits), float64(cm.manifestNs)/float64(traced.commits)/1e3)
	}
}
