// Command perfbench is the repository's benchmark: it runs the served
// archive system in this process (secclient -> gateway -> core -> cluster
// -> node servers over DiskNodes, all over loopback TCP; see fixture.go),
// drives one workload (see workload.go) with closed-loop clients, checks
// every byte it reads back, and prints its metrics as one JSON object on
// the last line of standard output.
//
// Usage:
//
//	perfbench --workload history-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics: throughput, the exact
// median latency of the workload's primary op, storage per user byte and
// set-up time, each the median over repetitions on fresh set-ups, and the
// peak RSS over the run; every op's exact quantiles go to standard error. With --trace 1 it
// measures one repetition twice, untraced and then with span-recording
// decorators at the gateway, cluster-node and DiskNode boundaries, and
// reports the per-layer metrics; a per-op layer table goes to standard
// error.
//
// All data lives under --workdir; node directories and the gateway
// manifest root are created fresh for every set-up and removed at exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload *workloadSpec
	seed     int64
	ops      int           // ops each client issues in the run's measured phase
	limit    time.Duration // wall-clock cap of the measured phase
	trace    bool
	workdir  string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: history-cold, latest-hot or commit-mixed")
		seed    = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = fs.Float64("seconds", 25, "measured seconds at the workload's reference rate")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		workdir = fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory the node and gateway data live under")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: invalid arguments:", err)
		fs.Usage()
		return 2
	}
	cfg := config{
		workload: w,
		seed:     *seed,
		ops:      max(1, int(*seconds*w.rate)/w.clients),
		limit:    time.Duration(4 * *seconds * float64(time.Second)),
		trace:    *trace == 1,
		workdir:  *workdir,
	}
	rep, err := execute(context.Background(), cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// execute runs one invocation in a fresh directory under the workdir and
// removes it afterwards.
func execute(ctx context.Context, cfg config, stderr io.Writer) (report, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return report{}, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)
	steal0, total0 := cpuTicks()
	var rep report
	if cfg.trace {
		rep, err = runTraced(ctx, cfg, dir, stderr)
	} else {
		rep, err = runEndToEnd(ctx, cfg, dir, stderr)
	}
	steal1, total1 := cpuTicks()
	steal := ratio(float64(steal1-steal0), float64(total1-total0))
	fmt.Fprintf(stderr, "host CPU steal during the run: %.1f%% of CPU time\n", 100*steal)
	if err == nil && cfg.trace {
		rep.Metrics["host.steal_frac"] = metric{steal, "ratio"}
	}
	return rep, err
}

// phase is one set-up fixture with its seeded archives.
type phase struct {
	f      *fixture
	reg    *registry
	seeded [][][]byte
	setup  time.Duration
}

// startPhase starts a fixture in dir and creates, seeds and (for warm
// workloads) warms the archives; the time this takes is the set-up time.
func startPhase(ctx context.Context, cfg config, seeded [][][]byte, dir string, tr *tracer) (*phase, error) {
	w := cfg.workload
	start := time.Now()
	f, err := startFixture(dir, w.clients, tr)
	if err != nil {
		return nil, err
	}
	p := &phase{f: f, reg: newRegistry(w.archives), seeded: seeded}
	if err := setUp(ctx, f, w, seeded, p.reg); err != nil {
		f.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	p.setup = time.Since(start)
	return p, nil
}

// outcome is what one measured phase produced.
type outcome struct {
	*tally
	elapsed      time.Duration
	planned      int     // ops the clients were to issue; fewer ran if the time limit hit
	rssMB        float64 // peak RSS before the final sweep
	sweepBad     int     // archives whose final sweep did not match
	diskReads    uint64  // DiskNode shard reads during the measured phase
	diskWritten  uint64  // DiskNode bytes written during the measured phase
	nodeBytes    int64   // bytes under the node directories afterwards
	userBytes    int64   // bytes of every committed version
	gwBusy       uint64  // gateway busy rejections during the measured phase
	gwConflicts  uint64  // gateway conflicts during the measured phase
	ops          [numOps + 1]opTotals
	calls        [numCalls]callTotals
	unattributed int64
}

// measurePhase runs the closed loop with ops ops per client, then re-reads
// every archive written during it.
func (p *phase) measurePhase(ctx context.Context, cfg config, ops int, limit time.Duration, tr *tracer) (*outcome, error) {
	w := cfg.workload
	planners := make([]*planner, w.clients)
	for c := range planners {
		planners[c] = newPlanner(w, cfg.seed, c, p.seeded)
	}
	disk0, gw0 := p.f.diskStats(), p.f.gw.Stats()
	if tr != nil {
		tr.reset()
	}
	t, elapsed, err := measure(ctx, p.f, planners, p.reg, ops, limit)
	if err != nil {
		return nil, err
	}
	out := &outcome{tally: t, elapsed: elapsed, planned: ops * w.clients, rssMB: maxRSSMB()}
	if tr != nil {
		out.ops, out.calls, out.unattributed = tr.snapshot()
	}
	disk, gw := p.f.diskStats(), p.f.gw.Stats()
	out.diskReads = disk.Reads - disk0.Reads
	out.diskWritten = disk.BytesWritten - disk0.BytesWritten
	out.gwBusy = gw.BusyRejections - gw0.BusyRejections
	out.gwConflicts = gw.Conflicts - gw0.Conflicts
	if w.mix[opCommit] > 0 {
		if out.sweepBad, err = sweep(ctx, p.f.clients[0], w, p.reg); err != nil {
			return nil, err
		}
	}
	if out.nodeBytes, err = p.f.nodeDirBytes(); err != nil {
		return nil, err
	}
	out.userBytes = int64(p.reg.total()) * objectLen
	return out, nil
}

// reps is how many times an end-to-end run sets the system up from the
// seed and measures a share of the ops on it. Every metric is the median
// over the repetitions, so a slowdown of the shared machine that passes
// within one repetition does not move it; setup_s is the median set-up.
const reps = 5

// runEndToEnd measures the workload reps times, each on a fresh set-up,
// with nothing traced.
func runEndToEnd(ctx context.Context, cfg config, dir string, stderr io.Writer) (report, error) {
	w := cfg.workload
	seeded, err := seedArchives(w, cfg.seed)
	if err != nil {
		return report{}, err
	}
	pooled := &outcome{tally: &tally{}}
	var setupS, rates, p50s, stored []float64
	for i := 0; i < reps; i++ {
		p, err := startPhase(ctx, cfg, seeded, filepath.Join(dir, fmt.Sprintf("rep-%d", i)), nil)
		if err != nil {
			return report{}, err
		}
		out, err := p.measurePhase(ctx, cfg, max(1, cfg.ops/reps), cfg.limit/reps, nil)
		if err = errors.Join(err, p.f.close(), os.RemoveAll(p.f.dir)); err != nil {
			return report{}, err
		}
		setupS = append(setupS, p.setup.Seconds())
		rates = append(rates, float64(out.attempted-out.failed)/out.elapsed.Seconds())
		p50s = append(p50s, quantileMs(out.lat[w.primary], 0.50))
		stored = append(stored, float64(out.nodeBytes)/float64(out.userBytes))
		fmt.Fprintf(stderr, "repetition %d: set-up %.3fs, %.1f ops/s, %s p50 %.3fms\n", i, setupS[i], rates[i], w.primary, p50s[i])
		pooled.rssMB = out.rssMB // the process's peak so far, read before this repetition's sweep
		pooled.merge(out.tally)
		pooled.elapsed += out.elapsed
		pooled.planned += out.planned
		pooled.sweepBad += out.sweepBad
		pooled.nodeBytes, pooled.userBytes = out.nodeBytes, out.userBytes
	}
	rep := newReport(pooled)
	rep.Metrics = map[string]metric{
		"ops_per_s":                  {median(rates), "1/s"},
		"primary_p50_ms":             {median(p50s), "ms"},
		"stored_bytes_per_user_byte": {median(stored), "ratio"},
		"max_rss_mb":                 {pooled.rssMB, "MB"},
		"setup_s":                    {median(setupS), "s"},
	}
	printLatencyTable(stderr, w, pooled)
	return rep, nil
}

// runTraced measures one repetition's share of the ops untraced and then
// traced, each on a fresh set-up from the same seed, so the traced phase
// meets the archive histories an end-to-end repetition meets. It reports
// the per-layer metrics of the traced phase with the tracing overhead.
func runTraced(ctx context.Context, cfg config, dir string, stderr io.Writer) (report, error) {
	seeded, err := seedArchives(cfg.workload, cfg.seed)
	if err != nil {
		return report{}, err
	}
	var outs [2]*outcome
	var tr *tracer
	for i := range outs {
		if i == 1 {
			tr = newTracer()
		}
		p, err := startPhase(ctx, cfg, seeded, filepath.Join(dir, fmt.Sprintf("phase-%d", i)), tr)
		if err != nil {
			return report{}, err
		}
		outs[i], err = p.measurePhase(ctx, cfg, max(1, cfg.ops/reps), cfg.limit/reps, tr)
		if err = errors.Join(err, p.f.close(), os.RemoveAll(p.f.dir)); err != nil {
			return report{}, err
		}
	}
	untraced, traced := outs[0], outs[1]
	rep := newReport(traced)
	rep.Attempted += untraced.attempted
	rep.Failed += untraced.failed + untraced.sweepBad
	rep.Correct = rep.Correct && untraced.failed == 0 && untraced.sweepBad == 0
	rep.Metrics = layerMetrics(untraced, traced)
	printLayerTable(stderr, cfg.workload, untraced, traced)
	return rep, nil
}

// newReport fills the result line's counts: a run is correct only if
// every op succeeded with the right bytes and every final sweep matched.
func newReport(out *outcome) report {
	return report{
		Correct:   out.failed == 0 && out.sweepBad == 0,
		Attempted: out.attempted,
		Failed:    out.failed + out.sweepBad,
	}
}

// quantileMs returns the q-quantile of the samples in ms, interpolating
// linearly between the two nearest ranks. It sorts samples in place.
func quantileMs(samples []time.Duration, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	pos := q * float64(len(samples)-1)
	lo := int(pos)
	hi := min(lo+1, len(samples)-1)
	frac := pos - float64(lo)
	v := float64(samples[lo])*(1-frac) + float64(samples[hi])*frac
	return v / float64(time.Millisecond)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTicks reads the machine's total and stolen CPU ticks from the first
// line of /proc/stat. Steal is time the hypervisor gave this machine's
// vCPUs to someone else while they had work: a run made under steal is
// slower for reasons outside the program. Both are 0 where /proc/stat
// cannot be read.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user .. steal; guest time is already inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
