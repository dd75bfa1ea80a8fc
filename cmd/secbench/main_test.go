package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table1", "fig2", "fig9", "census"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-list output missing %q:\n%s", id, out.String())
		}
	}
}

func TestRunSingleExperimentTable(t *testing.T) {
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-run", "census"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "# census:") || !strings.Contains(got, "non-systematic") {
		t.Errorf("unexpected output:\n%s", got)
	}
	// The Section V-A counts must appear.
	for _, v := range []string{"56", "44", "63"} {
		if !strings.Contains(got, v) {
			t.Errorf("output missing %s:\n%s", v, got)
		}
	}
}

func TestRunCSVFormat(t *testing.T) {
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-run", "fig6", "-format", "csv"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	// Comment header + CSV header + 3 support rows.
	if len(lines) != 5 {
		t.Errorf("CSV lines = %d, want 5:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[1], "gamma,") {
		t.Errorf("CSV header = %q", lines[1])
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-run", "nope"}, &out); err == nil {
		t.Error("unknown experiment: want error")
	}
	if err := run(t.Context(), []string{"-format", "xml"}, &out); err == nil {
		t.Error("unknown format: want error")
	}
	if err := run(t.Context(), []string{"-bench", "nope"}, &out); err == nil {
		t.Error("unknown benchmark: want error")
	}
}

func TestBenchEncodeWritesJSON(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-bench", "encode", "-benchout", dir}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_encode.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if report.Bench != "encode" || len(report.Results) == 0 {
		t.Fatalf("report = %+v", report)
	}
	r := report.Results[0]
	if r.Iterations <= 0 || r.NsPerOp <= 0 || r.MBPerS <= 0 {
		t.Errorf("implausible measurement: %+v", r)
	}
	if !strings.Contains(out.String(), "BENCH_encode.json") {
		t.Errorf("output does not name the artifact:\n%s", out.String())
	}
}

// TestBenchCompressReducesWireBytes is the CI gate for compressed
// differential erasure codes: the compressed chain must move strictly
// fewer bytes on the wire than the plain one (at least 2x fewer on the
// delta commits, where the (gamma+n-k, gamma) code shrinks every
// codeword), and a warm decoded-version cache must serve hot TCP reads
// with zero get RPCs.
func TestBenchCompressReducesWireBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP benchmark in -short mode")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-bench", "compress", "-benchout", dir}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_compress.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	results := make(map[string]benchResult, len(report.Results))
	for _, r := range report.Results {
		results[r.Name] = r
	}
	for _, name := range []string{"commit-plain", "commit-compressed", "retrieve-plain", "retrieve-compressed", "tcp-hot-read-cached"} {
		if _, ok := results[name]; !ok {
			t.Fatalf("report lacks %q: %+v", name, report.Results)
		}
	}
	commitPlain := results["commit-plain"].WireBytesWrittenPerOp
	commitComp := results["commit-compressed"].WireBytesWrittenPerOp
	if commitComp >= commitPlain {
		t.Errorf("compressed commits wrote %.0f wire bytes/op, plain %.0f: compression is not shrinking codewords",
			commitComp, commitPlain)
	}
	if commitComp*2 > commitPlain {
		t.Errorf("compressed commits wrote %.0f wire bytes/op vs plain %.0f: want at least a 2x reduction",
			commitComp, commitPlain)
	}
	if readComp, readPlain := results["retrieve-compressed"].WireBytesReadPerOp, results["retrieve-plain"].WireBytesReadPerOp; readComp >= readPlain {
		t.Errorf("compressed retrieval read %.0f wire bytes/op, plain %.0f", readComp, readPlain)
	}
	hot := results["tcp-hot-read-cached"]
	if hot.GetRPCsPerOp != 0 {
		t.Errorf("cached hot reads issued %.2f get RPCs/op, want 0", hot.GetRPCsPerOp)
	}
	if hot.CacheHitsPerOp < 1 {
		t.Errorf("cached hot reads hit the cache %.2f times/op, want 1", hot.CacheHitsPerOp)
	}
}

// TestBenchTCPRetrieveReportsBatchedRPCs is the CI gate for the wire cost
// of retrieval: batching must collapse per-shard RPCs, and the
// whole-history read must cost one probe round and at most one get batch
// per node, matching the committed bench/BENCH_tcp_retrieve.json (healthy
// loopback RPC counts are deterministic).
func TestBenchTCPRetrieveReportsBatchedRPCs(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP benchmark in -short mode")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-bench", "tcp-retrieve", "-benchout", dir}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_tcp_retrieve.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	results := make(map[string]benchResult, len(report.Results))
	for _, r := range report.Results {
		results[r.Name] = r
	}
	batched, okB := results["batched"]
	perShard, okP := results["per-shard"]
	all, okA := results["retrieve-all"]
	if len(report.Results) != 3 || !okB || !okP || !okA {
		t.Fatalf("results = %+v, want batched, per-shard and retrieve-all", report.Results)
	}
	// The wire-cost contract: the chain touches more shards than nodes, so
	// batching must issue strictly fewer get RPCs than the per-shard path
	// (one per node touched vs one per shard).
	if batched.GetRPCsPerOp >= perShard.GetRPCsPerOp {
		t.Errorf("batched path issued %.1f get RPCs/op, per-shard %.1f: batching is not collapsing RPCs",
			batched.GetRPCsPerOp, perShard.GetRPCsPerOp)
	}
	if batched.PingRPCsPerOp >= perShard.PingRPCsPerOp {
		t.Errorf("batched path issued %.1f pings/op, per-shard %.1f", batched.PingRPCsPerOp, perShard.PingRPCsPerOp)
	}
	// The whole-history read is one prefetch over the 20 nodes: one ping
	// and at most one get batch each.
	const nodes = 20
	if all.GetRPCsPerOp > nodes || all.PingRPCsPerOp > nodes {
		t.Errorf("retrieve-all issued %.1f get RPCs and %.1f pings per op, want at most %d of each (one per node)",
			all.GetRPCsPerOp, all.PingRPCsPerOp, nodes)
	}
	baseRaw, err := os.ReadFile(filepath.Join("..", "..", "bench", "BENCH_tcp_retrieve.json"))
	if err != nil {
		t.Fatalf("reading committed baseline (regenerate with `secbench -bench tcp-retrieve -benchout bench`): %v", err)
	}
	var baseline benchReport
	if err := json.Unmarshal(baseRaw, &baseline); err != nil {
		t.Fatalf("committed baseline is not valid JSON: %v", err)
	}
	for _, base := range baseline.Results {
		got, ok := results[base.Name]
		if !ok {
			t.Errorf("run lacks the baseline row %q", base.Name)
			continue
		}
		if got.GetRPCsPerOp != base.GetRPCsPerOp || got.PingRPCsPerOp != base.PingRPCsPerOp {
			t.Errorf("%s: %.1f get RPCs and %.1f pings per op, committed baseline %.1f and %.1f; regenerate bench/BENCH_tcp_retrieve.json deliberately",
				base.Name, got.GetRPCsPerOp, got.PingRPCsPerOp, base.GetRPCsPerOp, base.PingRPCsPerOp)
		}
	}
}

// TestBenchLoadProfile is the CI gate for the sustained-load benchmark:
// `secbench -bench load` must emit a BENCH_load.json whose per-op-kind
// rows carry ordered p50/p99/p999 latency quantiles and zero unexpected
// errors, whose per-node rows attribute RPCs and wire bytes to every
// storage node, and whose planned op counts match the committed baseline
// in bench/ exactly — the profile is seed-pinned, so iteration counts are
// machine-independent and any drift means the generator's plan changed.
// Latencies are machine-dependent and deliberately not compared.
func TestBenchLoadProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP benchmark in -short mode")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-bench", "load", "-benchout", dir}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_load.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	results := make(map[string]benchResult, len(report.Results))
	for _, r := range report.Results {
		results[r.Name] = r
	}
	opRows := []string{"load-commit", "load-retrieve", "load-latest", "load-log", "load-compact"}
	totalOps := 0
	for _, name := range opRows {
		r, ok := results[name]
		if !ok {
			t.Fatalf("report lacks %q: %+v", name, report.Results)
		}
		if r.Iterations <= 0 || r.NsPerOp <= 0 {
			t.Errorf("%s: implausible measurement %+v", name, r)
		}
		if !(r.P50Ns > 0 && r.P50Ns <= r.P99Ns && r.P99Ns <= r.P999Ns) {
			t.Errorf("%s: quantiles not ordered: p50=%.0f p99=%.0f p999=%.0f", name, r.P50Ns, r.P99Ns, r.P999Ns)
		}
		if r.Errors != 0 {
			t.Errorf("%s: %d unexpected errors on a chaos-free profile", name, r.Errors)
		}
		totalOps += r.Iterations
	}
	total, ok := results["load-total"]
	if !ok {
		t.Fatalf("report lacks the aggregate row: %+v", report.Results)
	}
	if total.Iterations != totalOps {
		t.Errorf("aggregate row counts %d ops, op rows sum to %d", total.Iterations, totalOps)
	}
	if total.WireBytesReadPerOp <= 0 || total.WireBytesWrittenPerOp <= 0 {
		t.Errorf("no wire bytes attributed: %+v", total)
	}
	if len(report.Nodes) != 6 {
		t.Fatalf("%d node rows, want 6", len(report.Nodes))
	}
	for _, n := range report.Nodes {
		if n.Requests == 0 || n.BytesRead+n.BytesWritten == 0 {
			t.Errorf("%s: no traffic attributed: %+v", n.Node, n)
		}
	}

	// Tolerance gate against the committed baseline: identical planned op
	// counts, row for row.
	baseRaw, err := os.ReadFile(filepath.Join("..", "..", "bench", "BENCH_load.json"))
	if err != nil {
		t.Fatalf("reading committed baseline (regenerate with `secbench -bench load -benchout bench`): %v", err)
	}
	var baseline benchReport
	if err := json.Unmarshal(baseRaw, &baseline); err != nil {
		t.Fatalf("committed baseline is not valid JSON: %v", err)
	}
	baseResults := make(map[string]benchResult, len(baseline.Results))
	for _, r := range baseline.Results {
		baseResults[r.Name] = r
	}
	for _, name := range append(opRows, "load-total") {
		base, ok := baseResults[name]
		if !ok {
			t.Errorf("committed baseline lacks %q; regenerate bench/BENCH_load.json", name)
			continue
		}
		if base.Iterations != results[name].Iterations {
			t.Errorf("%s: %d ops vs %d in the committed baseline: the seed-pinned plan drifted; regenerate bench/BENCH_load.json deliberately",
				name, results[name].Iterations, base.Iterations)
		}
	}
}

// TestBenchGatewayOverhead is the CI gate for serving archives through
// secgw: gateway retrieval must issue the same node get RPCs as the
// direct client and stay within its latency budget, and warm
// gateway-cache reads must be served with zero node get RPCs.
func TestBenchGatewayOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP benchmark in -short mode")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-bench", "gateway", "-benchout", dir}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_gateway.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	results := make(map[string]benchResult, len(report.Results))
	for _, r := range report.Results {
		results[r.Name] = r
	}
	for _, name := range []string{"direct-commit", "direct-retrieve", "gw-commit", "gw-retrieve", "gw-retrieve-cached"} {
		r, ok := results[name]
		if !ok {
			t.Fatalf("report lacks %q: %+v", name, report.Results)
		}
		if r.Iterations <= 0 || r.NsPerOp <= 0 || r.P50Ns <= 0 || r.P99Ns < r.P50Ns {
			t.Errorf("%s: implausible distribution %+v", name, r)
		}
	}
	// The gateway adds one loopback hop but no extra node traffic: same
	// get RPCs per retrieval as the direct client, and p50 within 1.5x.
	direct, gw := results["direct-retrieve"], results["gw-retrieve"]
	if gw.GetRPCsPerOp != direct.GetRPCsPerOp {
		t.Errorf("gateway retrieval issued %.1f get RPCs/op, direct %.1f: the gateway is amplifying node traffic",
			gw.GetRPCsPerOp, direct.GetRPCsPerOp)
	}
	if gw.P50Ns > 1.5*direct.P50Ns {
		t.Errorf("gateway retrieve p50 %.0fns vs direct %.0fns: over the 1.5x loopback budget", gw.P50Ns, direct.P50Ns)
	}
	// Warm shared-cache reads are the gateway's payoff: zero node get RPCs,
	// every read a cache hit.
	cached := results["gw-retrieve-cached"]
	if cached.GetRPCsPerOp != 0 {
		t.Errorf("warm gateway-cache reads issued %.2f get RPCs/op, want 0", cached.GetRPCsPerOp)
	}
	if cached.CacheHitsPerOp < 1 {
		t.Errorf("warm gateway-cache reads hit the cache %.2f times/op, want 1", cached.CacheHitsPerOp)
	}
}

// TestBenchManifestProfile is the CI gate for the gateway's per-commit
// metadata path: at every chain length a commit encodes its manifest
// once, replicates exactly the local file's bytes to each of the 12 nodes
// in one put RPC apiece, and the per-commit manifest bytes, replica bytes,
// put RPCs and encodes match the committed bench/BENCH_manifest.json
// exactly (the archive's history is seed-pinned, so all four are
// deterministic; commit wall time is not compared).
func TestBenchManifestProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP benchmark in -short mode")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-bench", "manifest", "-benchout", dir}, &out); err != nil {
		t.Fatal(err)
	}
	read := func(path string) map[string]benchResult {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate the baseline with `secbench -bench manifest -benchout bench`)", err)
		}
		var report benchReport
		if err := json.Unmarshal(raw, &report); err != nil {
			t.Fatalf("%s is not valid JSON: %v", path, err)
		}
		results := make(map[string]benchResult, len(report.Results))
		for _, r := range report.Results {
			results[r.Name] = r
		}
		return results
	}
	results := read(filepath.Join(dir, "BENCH_manifest.json"))
	baseline := read(filepath.Join("..", "..", "bench", "BENCH_manifest.json"))
	const nodes = 12
	prevBytes := 0.0
	for _, name := range []string{"chain-16", "chain-128", "chain-512"} {
		r, ok := results[name]
		if !ok {
			t.Fatalf("report lacks %q: %+v", name, results)
		}
		if r.ManifestEncodesPerOp != 1 || r.ManifestPutRPCsPerOp != nodes {
			t.Errorf("%s: %.2f encodes and %.2f manifest put RPCs per commit, want 1 and %d",
				name, r.ManifestEncodesPerOp, r.ManifestPutRPCsPerOp, nodes)
		}
		if r.ManifestReplicaBytesPerOp != nodes*r.ManifestBytesPerOp {
			t.Errorf("%s: %.1f replicated bytes per commit for a %.1f-byte local manifest, want %d copies of it",
				name, r.ManifestReplicaBytesPerOp, r.ManifestBytesPerOp, nodes)
		}
		if r.ManifestBytesPerOp <= prevBytes {
			t.Errorf("%s: %.1f manifest bytes per commit, not more than the shorter chain's %.1f", name, r.ManifestBytesPerOp, prevBytes)
		}
		prevBytes = r.ManifestBytesPerOp
		base, ok := baseline[name]
		if !ok {
			t.Errorf("committed baseline lacks %q", name)
			continue
		}
		if r.ManifestBytesPerOp != base.ManifestBytesPerOp || r.ManifestReplicaBytesPerOp != base.ManifestReplicaBytesPerOp ||
			r.ManifestPutRPCsPerOp != base.ManifestPutRPCsPerOp || r.ManifestEncodesPerOp != base.ManifestEncodesPerOp {
			t.Errorf("%s: %+v differs from the committed baseline %+v in a deterministic field; regenerate bench/BENCH_manifest.json deliberately",
				name, r, base)
		}
	}
}
