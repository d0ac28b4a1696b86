package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"batchals"
	"batchals/internal/benchmeta"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/emetric"
	"batchals/internal/flow"
	"batchals/internal/obs"
	"batchals/internal/par"
	"batchals/internal/partition"
	"batchals/internal/sasimi"
	"batchals/internal/sim"
)

// runTraced is the traced run, on the run's first pattern set only:
// traced passes until the next one would end past dur. Each pass is one trace: every layer
// call sits in a span under the pass's root span. Per-layer metrics are
// medians over the passes; the spans are written to outDir when the run
// ends.
func runTraced(w *workload, seed int64, dur time.Duration, outDir string, env *benchmeta.Env, log io.Writer) (*result, error) {
	ctx := context.Background()
	res := newResult()
	rec := newRecorder()
	all := samples{}
	var first string // digest of the run's first flow
	var took []float64
	start := time.Now()
	for pass := 1; pass == 1 || fits(start, dur, median(took)); pass++ {
		t0 := time.Now()
		rec.newTrace()
		s, err := tracedPass(ctx, rec, w, w.patternSeed(seed, 0), &first, res, log)
		if err != nil {
			return nil, fmt.Errorf("traced pass %d: %w", pass, err)
		}
		for k, v := range s {
			all.add(k, v)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	for _, d := range perLayer {
		v, n := all.median(d.name)
		res.set(d.name, v, n)
	}
	if outDir != "" {
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
		if err := writeExport(path, rec, env); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "spans written to %s\n", path)
	}
	return res, nil
}

func writeExport(path string, rec *recorder, env *benchmeta.Env) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span export: %w", err)
	}
	if err := rec.export(f, env); err != nil {
		f.Close()
		return fmt.Errorf("span export: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span export: %w", err)
	}
	return nil
}

// defaultCounters are the always-on substrate counters in obs.Default()
// that the traced flow's deltas are taken from.
var defaultCounters = []string{
	"sim_gate_evals_total",
	"sim_cone_resims_total",
	"cpm_builds_total",
	"cpm_refresh_dirty_rows_total",
	"cpm_refresh_clean_rows_total",
	"cpm_delta_er_queries_total",
	"cpm_partial_er_queries_total",
	"cpm_delta_aem_queries_total",
	"cpm_partial_aem_queries_total",
	"exact_delta_queries_total",
}

func readCounters() map[string]float64 {
	out := make(map[string]float64, len(defaultCounters))
	for _, name := range defaultCounters {
		out[name] = float64(obs.Default().Counter(name).Value())
	}
	return out
}

// runtimeSample reads cumulative heap allocation bytes and GC cycles.
func runtimeSample() (allocBytes, gcCycles float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// sasimiConfig mirrors the workload's options at the sasimi layer, for
// the calls the benchmark makes below the Flow API.
func (w *workload) sasimiConfig(seed int64, threshold float64, nworkers int) sasimi.Config {
	return sasimi.Config{
		Budget: flow.Budget{
			Metric:      w.metric,
			Threshold:   threshold,
			NumPatterns: w.m,
			Seed:        seed,
		},
		Workers:    nworkers,
		VerifyTopK: w.verifyTopK,
	}
}

// tracedPass is one trace: golden build, the layer probes, an untraced
// reference flow (the base of obs.trace_overhead), the traced flow and
// the output checks, each under the pass's root span.
func tracedPass(ctx context.Context, rec *recorder, w *workload, seed int64, first *string, res *result, log io.Writer) (map[string]float64, error) {
	m := map[string]float64{}
	root := rec.begin("perfbench.pass")

	var golden *batchals.Network
	var err error
	rec.timed("bench.build", func() { golden, err = w.build() })
	if err != nil {
		return nil, fmt.Errorf("build golden: %w", err)
	}
	pool := par.NewPool(workers)
	defer pool.Close()
	pats := sim.RandomPatterns(golden.NumInputs(), w.m, seed)
	var vals *sim.Values
	m["sim.simulate_s"] = rec.timed("sim.SimulateParallel", func() { vals = sim.SimulateParallel(golden, pats, pool) })
	m["core.cpm_build_s"] = rec.timed("core.BuildParallel", func() { core.BuildParallel(golden, vals, pool) })
	if w.partition == nil {
		var cands []sasimi.Candidate
		m["sasimi.estimate_all_s"] = rec.timed("sasimi.EstimateAll", func() {
			cands, err = sasimi.EstimateAll(golden, golden.Clone(), w.sasimiConfig(seed, w.threshold, workers))
		})
		if err != nil {
			return nil, fmt.Errorf("estimate all: %w", err)
		}
		m["sasimi.candidates"] = float64(len(cands))
	}

	id := rec.begin("batchals.Flow.Run")
	ref := runFlow(ctx, golden, batchals.NewFlow(golden, w.options(seed)))
	refWall := rec.end(id).Seconds()
	check := func(out flowOutput) (err error) {
		rec.timed("check", func() { err = checkFlow(w, seed, golden, out) })
		if err == nil {
			err = matchDigest(first, digest(out.res))
		}
		return err
	}
	res.count(log, fmt.Sprintf("reference flow %d", rec.trace), check(ref))

	// The traced flow: a private Metrics registry and KeepTrace on, with
	// the substrate counters and runtime statistics read around it.
	reg := batchals.NewMetrics()
	opts := w.options(seed)
	opts.KeepTrace = true
	fl := batchals.NewFlow(golden, opts).WithMetrics(reg)
	c0 := readCounters()
	a0, g0 := runtimeSample()
	cpu0 := cpuSeconds()
	id = rec.begin("batchals.Flow.Run.traced")
	out := runFlow(ctx, golden, fl)
	flowS := rec.end(id).Seconds()
	cpu := cpuSeconds() - cpu0
	a1, g1 := runtimeSample()
	c1 := readCounters()
	checkErr := check(out)
	res.count(log, fmt.Sprintf("traced flow %d", rec.trace), checkErr)
	if checkErr != nil {
		rec.end(root)
		return nil, nil // counted as failed; the pass yields no samples
	}
	d := func(name string) float64 { return c1[name] - c0[name] }
	m["sim.gate_evals"] = d("sim_gate_evals_total")
	m["sim.cone_resims"] = d("sim_cone_resims_total")
	m["core.cpm_builds"] = d("cpm_builds_total")
	dirty := d("cpm_refresh_dirty_rows_total")
	m["core.refresh_dirty_frac"] = ratio(dirty, dirty+d("cpm_refresh_clean_rows_total"))
	m["core.delta_er_queries"] = d("cpm_delta_er_queries_total") + d("cpm_partial_er_queries_total")
	m["core.delta_aem_queries"] = d("cpm_delta_aem_queries_total") + d("cpm_partial_aem_queries_total")
	m["core.exact_delta_queries"] = d("exact_delta_queries_total")
	m["flow.alloc_mb"] = (a1 - a0) / (1 << 20)
	m["flow.gc_cycles"] = g1 - g0
	m["flow.cpu_util"] = ratio(cpu, flowS)
	m["obs.trace_overhead"] = ratio(flowS, refWall)

	var cands, feas float64
	for _, it := range out.res.Iterations {
		cands += float64(it.Candidates)
		feas += float64(it.Feasible)
	}
	m["sasimi.iterations"] = float64(out.res.NumIterations)
	m["sasimi.feasible_frac"] = ratio(feas, cands)
	m["emetric.measure_s"] = rec.timed("emetric.Measure", func() { emetric.Measure(golden, out.res.Approx, pats) })

	// The partitioned flow runs its parts without a Metrics registry, so
	// the sasimi counters of tiled-part come from the part probes.
	if w.partition != nil {
		reg = batchals.NewMetrics()
		if err := partitionProbes(ctx, rec, w, seed, golden, vals, out.report, reg, m); err != nil {
			return nil, err
		}
	}
	scored := float64(reg.Counter("sasimi_candidates_scored_total").Value())
	m["sasimi.candidates_scored"] = scored
	m["sasimi.scored_per_accept"] = ratio(scored, float64(reg.Counter("sasimi_accepts_total").Value()))
	m["sasimi.rollbacks"] = float64(reg.Counter("sasimi_rollbacks_total").Value())

	rec.end(root)
	self := selfTimes(rec.spans)
	m["trace.unattributed_frac"] = ratio(float64(self[root]), float64(rec.spans[root].duration()))
	fmt.Fprintf(log, "pass %d untraced=%.4fs traced=%.4fs cpu=%.4fs iters=%d digest=%s\n",
		rec.trace, refWall, flowS, cpu, out.res.NumIterations, digest(out.res))
	return m, nil
}

// partitionProbes re-runs the partitioned flow's steps one by one from
// the package API: plan, extract, per-part estimation and flows at the
// budgets the traced run reported, and merge.
func partitionProbes(ctx context.Context, rec *recorder, w *workload, seed int64, golden *batchals.Network,
	vals *sim.Values, rep *batchals.PartitionReport, reg *batchals.Metrics, m map[string]float64) error {
	opt := partition.Options{
		TargetCells:  w.partition.TargetCells,
		MaxCut:       w.partition.MaxCut,
		BudgetPolicy: w.partition.BudgetPolicy,
		MaxRounds:    w.partition.MaxRounds,
	}
	opt.FillDefaults()
	var plan *partition.Plan
	var err error
	m["partition.plan_s"] = rec.timed("partition.BuildPlan", func() { plan, err = partition.BuildPlan(golden, opt) })
	if err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	var parts []partition.Extracted
	m["partition.extract_s"] = rec.timed("partition.Plan.Extract", func() { parts, err = plan.Extract(vals) })
	if err != nil {
		return fmt.Errorf("extract: %w", err)
	}
	if rep == nil || len(rep.Parts) != len(parts) {
		return fmt.Errorf("partition report does not match the plan's %d parts", len(parts))
	}
	m["partition.parts"] = float64(rep.NumParts)
	m["partition.rounds"] = float64(rep.Rounds)
	m["partition.reverted"] = float64(rep.Reverted)
	for _, p := range rep.Parts {
		m["partition.max_cut"] = max(m["partition.max_cut"], float64(p.CutIns))
	}

	// Each part as the partitioned flow runs it: sequential pattern path,
	// its recorded boundary patterns, its reported budget.
	partCfg := func(k int) sasimi.Config {
		cfg := w.sasimiConfig(seed, rep.Parts[k].Budget, 1)
		cfg.Patterns = parts[k].Patterns
		return cfg
	}
	live := func(k int) bool { return len(parts[k].Part.Outputs) > 0 }
	est := rec.begin("partition.part_estimates")
	for k := range parts {
		if !live(k) {
			continue
		}
		var cands []sasimi.Candidate
		m["sasimi.estimate_all_s"] += rec.timed("sasimi.EstimateAll", func() {
			cands, err = sasimi.EstimateAll(parts[k].Net, parts[k].Net.Clone(), partCfg(k))
		})
		if err != nil {
			return fmt.Errorf("part %d estimate: %w", k, err)
		}
		m["sasimi.candidates"] += float64(len(cands))
	}
	rec.end(est)

	nets := make([]*circuit.Network, len(parts))
	var times []float64
	flows := rec.begin("partition.part_flows")
	for k := range parts {
		nets[k] = parts[k].Net
		if !live(k) {
			continue
		}
		cfg := partCfg(k)
		cfg.Metrics = reg
		var pr *sasimi.Result
		times = append(times, rec.timed("sasimi.RunContext", func() { pr, err = sasimi.RunContext(ctx, parts[k].Net, cfg) }))
		if err != nil {
			return fmt.Errorf("part %d flow: %w", k, err)
		}
		if !rep.Parts[k].Reverted {
			nets[k] = pr.Approx
		}
	}
	rec.end(flows)
	if len(times) > 0 {
		var sum float64
		for _, t := range times {
			m["partition.part_flow_s_max"] = max(m["partition.part_flow_s_max"], t)
			sum += t
		}
		m["partition.part_skew"] = m["partition.part_flow_s_max"] / (sum / float64(len(times)))
	}

	m["partition.merge_s"] = rec.timed("partition.Plan.Merge", func() { _, err = plan.Merge(nets) })
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	return nil
}
