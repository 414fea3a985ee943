// Command servebench is the end-to-end serving benchmark. It launches the
// real cmd/serve binary as child processes (one -mode single node, or a
// -mode router in front of two -mode shard nodes), drives them over
// loopback HTTP with one closed-loop client, and checks every answer
// against byte offsets the page generator recorded itself.
//
//	servebench -serve-bin serve --workload single-small --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the layer calls in-process on the same inputs, records spans around them,
// writes the spans to a file and prints the per-layer metrics. The last line
// of standard output is one JSON object: correct, attempted, failed and
// metrics. run.sh builds both binaries from source and runs this command;
// README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	serveBin string
	outDir   string
	// profileDir, when set, receives each server's CPU profile of the last
	// deployment's timed phase.
	profileDir string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "single-small", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics against the serve binary; 1: traced in-process run with per-layer metrics")
	flag.StringVar(&cfg.serveBin, "serve-bin", "", "path of the built cmd/serve binary (end-to-end runs)")
	flag.StringVar(&cfg.outDir, "out-dir", ".", "directory for the span file of traced runs")
	flag.StringVar(&cfg.profileDir, "cpu-profile-dir", "", "if set, write each server's CPU profile of the last deployment's timed phase here")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if _, err := buildInputs(cfg.workload, cfg.seed); err != nil {
		fatalf("%v", err)
	}
	if cfg.profileDir != "" {
		if err := os.MkdirAll(cfg.profileDir, 0o755); err != nil {
			fatalf("%v", err)
		}
	}
	var res *result
	var err error
	if cfg.trace {
		res, err = runTraced(cfg)
	} else {
		if cfg.serveBin == "" {
			fatalf("--serve-bin is required for end-to-end runs")
		}
		res, err = runEndToEnd(cfg)
	}
	if err != nil {
		fatalf("%v", err)
	}
	for _, line := range res.report {
		fmt.Println(line)
	}
	out, err := json.Marshal(res.summary())
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servebench: "+format+"\n", args...)
	os.Exit(1)
}

// metric is one named figure of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a finished run: the report lines printed before the JSON line,
// and the JSON line's contents.
type result struct {
	report    []string
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
}

func (r *result) add(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) logf(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

func (r *result) summary() any {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.correct = false // a metric that could not be measured is no result
			m.Value = -1
			r.metrics[n] = m
		}
	}
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
}

// runHeader describes the machine, toolchain and inputs of a run.
func runHeader(cfg config) []string {
	return []string{
		fmt.Sprintf("# servebench workload=%s seed=%d seconds=%g trace=%v", cfg.workload, cfg.seed, cfg.seconds, cfg.trace),
		fmt.Sprintf("# cpu=%q nproc=%d go=%s commit=%s", cpuModel(), runtime.NumCPU(), runtime.Version(), commitID()),
		fmt.Sprintf("# load generator GOMAXPROCS=%d", runtime.GOMAXPROCS(0)),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID reads the checked-out commit from .git in the working directory,
// without looking above it; a checkout without .git reports "unknown".
func commitID() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return shortID(ref)
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return shortID(strings.TrimSpace(string(id)))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return shortID(id)
		}
	}
	return "unknown"
}

func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// trainAll trains every site's wrappers on the client side.
func trainAll() ([]Payloads, error) {
	pl := make([]Payloads, numSites)
	for s := range pl {
		var err error
		if pl[s], err = TrainSite(s); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

// runEndToEnd measures one workload against the serve binary.
func runEndToEnd(cfg config) (*result, error) {
	in, err := buildInputs(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	pl, err := trainAll()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	res := &result{report: runHeader(cfg)}

	// The timed phase is split over several deployments, each set up (and
	// timed) from scratch: set-up times, peak memory and rounds are sampled
	// at several moments of the run instead of one.
	const n = deploymentsPerRun
	ls := &loadStats{failures: map[string]int{}}
	var setups, peaks []float64
	var allocBytes, mallocs uint64
	var ticks int64
	var steal, total int64
	var last []string
	for i := 0; i < n; i++ {
		d, wires, dur, err := setup(ctx, cfg.serveBin, in, pl)
		if err != nil {
			return nil, err
		}
		setups = append(setups, dur.Seconds())
		profileDir := ""
		if i == n-1 {
			profileDir = cfg.profileDir
		}
		m, err := measure(ctx, d, in, wires, cfg.seconds/n, ls, profileDir)
		d.stop()
		if err != nil {
			return nil, err
		}
		allocBytes += m.allocBytes
		mallocs += m.mallocs
		ticks += m.ticks
		steal += m.host1.steal - m.host0.steal
		total += m.host1.total - m.host0.total
		peaks = append(peaks, m.peakMB)
		last = last[:0]
		for _, p := range d.procs {
			last = append(last, fmt.Sprintf("# process %s GOMAXPROCS=%d (last deployment: pid %d, %s)", p.Name, p.GOMAXPROCS, p.cmd.Process.Pid, p.URL))
		}
	}
	docs := float64(ls.docsSent)

	res.correct = ls.unexpected == 0
	res.attempted = ls.attempted
	res.failed = ls.failed
	res.add("setup_s", "s", median(setups))
	res.add("docs_per_s", "docs/s", quantile(ls.windowRates, 1)) // the best window: see windowBusy
	res.add("p50_ms", "ms", median(ls.latencies))
	res.add("alloc_kb_per_doc", "KB/doc", float64(allocBytes)/1024/docs)
	res.add("allocs_per_doc", "1/doc", float64(mallocs)/docs)
	res.add("peak_rss_mb", "MB", median(peaks))

	res.report = append(res.report, last...)
	res.logf("# steal share during timed phases: %.2f%%", 100*float64(steal)/float64(max(total, 1)))
	res.logf("# set-ups (s): %s", formatFloats(setups, "%.4f"))
	res.logf("# peak RSS per deployment (MB): %s", formatFloats(peaks, "%.1f"))
	res.logf("# timed phases: %.2fs, %d rounds of %d requests (%d docs)", ls.elapsed.Seconds(), ls.rounds, len(in.Requests), in.Docs())
	res.logf("# per-window docs/s over %d windows: q10 %.1f, median %.1f, q90 %.1f", len(ls.windowRates), quantile(ls.windowRates, 0.1), median(ls.windowRates), quantile(ls.windowRates, 0.9))
	res.logf("# operations: attempted=%d failed=%d; docs sent=%d correct=%d", ls.attempted, ls.failed, ls.docsSent, ls.docsOK)
	for reason, n := range ls.failures {
		res.logf("# failed: %d × %s", n, reason)
	}
	for _, f := range ls.firstFailures {
		res.logf("# unexpected failure: %s", f)
	}
	if label, v, ok := tailPercentile(ls.latencies); ok {
		res.logf("# reference only: %s latency %.3f ms over %d requests", label, v, len(ls.latencies))
	}
	// Linux reports process CPU time in clock ticks of 1/100 s.
	res.logf("# reference only: server CPU %.1f µs/doc", float64(ticks)/100*1e6/docs)
	return res, nil
}

// deploymentFigures is what one deployment's timed phase measured.
type deploymentFigures struct {
	allocBytes, mallocs uint64
	ticks               int64
	host0, host1        hostCPU
	peakMB              float64
}

// deploymentsPerRun is how many deployments share a run's timed phase;
// setup_s is the median of their set-up times.
const deploymentsPerRun = 5

// measure warms a deployment up, runs its share of the timed phase, and
// reads the servers' heap counters, CPU ticks and peak RSS around it. With
// profileDir set, it also writes each server's CPU profile of the timed
// phase there.
func measure(ctx context.Context, d *deployment, in *Inputs, wires []Wire, seconds float64, ls *loadStats, profileDir string) (deploymentFigures, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	var f deploymentFigures
	var snapErr error
	snapshot := func() ([]MemStats, []int64, hostCPU) {
		ms := make([]MemStats, len(d.procs))
		ticks := make([]int64, len(d.procs))
		for i, p := range d.procs {
			var err error
			if ms[i], err = readMemStats(ctx, client, p.URL); err != nil && snapErr == nil {
				snapErr = err
			}
			if ticks[i], err = p.cpuTicks(); err != nil && snapErr == nil {
				snapErr = err
			}
		}
		host, err := readHostCPU()
		if err != nil && snapErr == nil {
			snapErr = err
		}
		return ms, ticks, host
	}
	// Reading the heap profile allocates in the server. Two back-to-back
	// reads before timing measure what one read costs; the timed delta
	// spans the end of one read and the start of another, so one read's
	// cost is taken off it.
	// A full collection in every server first, so that the timed phase
	// starts from the same heap, with pools refilled by the warm-up round,
	// whatever garbage set-up left behind.
	for _, p := range d.procs {
		if err := forceGC(ctx, client, p.URL); err != nil {
			return f, err
		}
	}
	var msA, ms0 []MemStats
	var ticks0 []int64
	var profiles sync.WaitGroup
	profileErrs := make([]error, len(d.procs))
	runLoad(ctx, client, d.entry, in, wires, seconds, ls, func() {
		msA, _, _ = snapshot()
		ms0, ticks0, f.host0 = snapshot()
		if profileDir == "" {
			return
		}
		for i, p := range d.procs {
			profiles.Add(1)
			go func() {
				defer profiles.Done()
				path := filepath.Join(profileDir, fmt.Sprintf("cpu-%s-%s.pprof", in.Workload, p.Name))
				profileErrs[i] = fetchProfile(ctx, p.URL, max(1, int(seconds)), path)
			}()
		}
	})
	profiles.Wait()
	for _, err := range profileErrs {
		if err != nil && snapErr == nil {
			snapErr = err
		}
	}
	ms1, ticks1, host1 := snapshot()
	f.host1 = host1
	var hwm int64
	for i, p := range d.procs {
		kb, err := p.hwmKB()
		if err != nil && snapErr == nil {
			snapErr = err
		}
		hwm += kb
		f.allocBytes += (ms1[i].TotalAlloc - ms0[i].TotalAlloc) - (ms0[i].TotalAlloc - msA[i].TotalAlloc)
		f.mallocs += (ms1[i].Mallocs - ms0[i].Mallocs) - (ms0[i].Mallocs - msA[i].Mallocs)
		f.ticks += ticks1[i] - ticks0[i]
	}
	f.peakMB = float64(hwm) / 1024
	return f, snapErr
}

func formatFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
