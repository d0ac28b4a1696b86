// Command perfbench is the repository benchmark. It runs one named
// workload (see workload.go) as a closed loop with one client: complete
// approximation flows, each run to its error budget, back to back for
// about a fixed time. Every flow's output is checked independently of the flow.
//
//	perfbench --workload c880-er --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// times each layer from outside (sim, core, sasimi, partition, emetric,
// batchals.Flow) and reports the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics. README.md explains every metric.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"batchals"
	"batchals/internal/benchmeta"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is one run's outcome: flows attempted and failed, plus the
// reported metrics with their sample counts.
type result struct {
	attempted, failed int
	values            map[string]float64
	counts            map[string]int
}

func newResult() *result {
	return &result{values: map[string]float64{}, counts: map[string]int{}}
}

func (r *result) set(name string, v float64, n int) {
	r.values[name] = v
	r.counts[name] = n
}

// count records one checked flow, logging any failure.
func (r *result) count(log io.Writer, label string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(log, "FAIL %s: %v\n", label, err)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed; each run derives its Monte Carlo pattern seeds from it")
	seconds := fs.Float64("seconds", 10, "measuring time; flows start only while one of median length still ends in time")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", "", "directory for the traced run's span export (none when empty)")
	commit := fs.String("commit", "", "commit id recorded in the env stamp")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	env := benchmeta.CaptureEnv(*commit)
	envLine, _ := json.Marshal(env) // strings and ints only: cannot fail
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\nenv %s\n",
		w.name, *seed, *seconds, *trace, envLine)

	var res *result
	if *trace == 0 {
		res, err = runEndToEnd(w, *seed, dur, stdout)
	} else {
		res, err = runTraced(w, *seed, dur, *out, env, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	return report(stdout, res, defs)
}

// report prints every metric by name with its unit and sample count,
// then the final JSON line.
func report(stdout io.Writer, res *result, defs []metricDef) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := res.values[d.name]
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(stdout, "%-26s %14.6g %-6s (n=%d)\n", d.name, v, d.unit, res.counts[d.name])
	}
	fmt.Fprintf(stdout, "%-26s %14.6g %-6s (%d of %d flows)\n", "failed_frac",
		ratio(float64(res.failed), float64(res.attempted)), "ratio", res.failed, res.attempted)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(stdout, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runFlow runs one complete flow through the public Flow API.
func runFlow(ctx context.Context, golden *batchals.Network, f *batchals.Flow) flowOutput {
	res, err := f.Run(ctx)
	return flowOutput{res: res, report: f.PartitionReport(), err: err}
}

// setupReps bounds the repeated golden builds that set setup_s: at least
// minSetupReps builds, and more until minSetupTime has passed.
const (
	minSetupReps = 11
	maxSetupReps = 1001
	minSetupTime = 300 * time.Millisecond
)

// buildGolden builds the workload's golden netlist repeatedly and returns
// the last build with the median build time in seconds.
func buildGolden(w *workload) (*batchals.Network, float64, int, error) {
	var golden *batchals.Network
	var times []float64
	start := time.Now()
	for len(times) < minSetupReps || (time.Since(start) < minSetupTime && len(times) < maxSetupReps) {
		t0 := time.Now()
		g, err := w.build()
		if err != nil {
			return nil, 0, 0, fmt.Errorf("build golden: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		golden = g
	}
	return golden, median(times), len(times), nil
}

// runEndToEnd runs untraced flows back to back, cycling over the run's
// pattern sets, until every set has run once and the next flow would
// end past dur. Flow time, CPU time and area ratio are the mean over the
// pattern sets of each set's median: the median absorbs timing noise
// between repeats of one input, and the mean over distinct inputs does
// not jump between the clusters their flow times form, as a median of a
// few inputs would.
func runEndToEnd(w *workload, seed int64, dur time.Duration, log io.Writer) (*result, error) {
	ctx := context.Background()
	golden, setup, n, err := buildGolden(w)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.set("setup_s", setup, n)
	perSet := make([]samples, w.inputs)
	for j := range perSet {
		perSet[j] = samples{}
	}
	digests := make([]string, w.inputs)
	var all []float64
	start := time.Now()
	for i := 0; i < w.inputs || fits(start, dur, median(all)); i++ {
		j := i % w.inputs
		ps := w.patternSeed(seed, j)
		runtime.GC() // every flow starts from a collected heap
		c0 := cpuSeconds()
		t0 := time.Now()
		out := runFlow(ctx, golden, batchals.NewFlow(golden, w.options(ps)))
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - c0
		all = append(all, wall)

		d := digest(out.res)
		err := checkFlow(w, ps, golden, out)
		if err == nil {
			err = matchDigest(&digests[j], d)
		}
		label := fmt.Sprintf("flow %d (pattern seed %d)", i+1, ps)
		res.count(log, label, err)
		perSet[j].add("flow_s", wall)
		perSet[j].add("cpu_s", cpu)
		if err != nil {
			continue
		}
		perSet[j].add("area_ratio", out.res.AreaRatio())
		fmt.Fprintf(log, "%s wall=%.4fs cpu=%.4fs iters=%d area_ratio=%.6f error=%.6g digest=%s\n",
			label, wall, cpu, out.res.NumIterations, out.res.AreaRatio(), out.res.FinalError, d)
	}
	for _, name := range []string{"flow_s", "cpu_s", "area_ratio"} {
		var sum float64
		var sets int
		for _, s := range perSet {
			if v := s[name]; len(v) > 0 {
				sum += median(v)
				sets++
			}
		}
		res.set(name, ratio(sum, float64(sets)), res.attempted)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss, 1)
	for j, d := range digests {
		fmt.Fprintf(log, "digest pattern_seed=%d %s\n", w.patternSeed(seed, j), d)
	}
	return res, nil
}

// fits reports whether a step of the given typical length, started now,
// ends within dur of start.
func fits(start time.Time, dur time.Duration, step float64) bool {
	return time.Since(start).Seconds()+step <= dur.Seconds()
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
