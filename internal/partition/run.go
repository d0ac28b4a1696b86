package partition

import (
	"context"
	"fmt"
	"time"

	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/emetric"
	"batchals/internal/flow"
	"batchals/internal/obs"
	"batchals/internal/par"
	"batchals/internal/sasimi"
	"batchals/internal/sim"
)

// PartReport summarises one part's flow run inside a Report.
type PartReport struct {
	Index   int     `json:"index"`
	Cells   int     `json:"cells"`
	CutIns  int     `json:"cut_ins"`
	Outputs int     `json:"outputs"`
	Budget  float64 `json:"budget"`
	// LocalError is the part-local error the flow measured on its
	// recorded pattern set; it is not additive into the global error,
	// which is why the merge re-measures globally.
	LocalError float64 `json:"local_error"`
	AreaBefore float64 `json:"area_before"`
	AreaAfter  float64 `json:"area_after"`
	Iterations int     `json:"iterations"`
	// Reverted marks a part restored to its golden logic by the repair
	// loop because the merged network measured over the global budget.
	Reverted bool `json:"reverted,omitempty"`
}

// Report describes one partitioned run end to end.
type Report struct {
	NumParts    int           `json:"num_parts"`
	TargetCells int           `json:"target_cells"`
	MaxCut      int           `json:"max_cut"`
	Policy      string        `json:"policy"`
	Rounds      int           `json:"rounds"`
	Reclaimed   float64       `json:"reclaimed"` // budget moved between parts by reclamation
	MergedError float64       `json:"merged_error"`
	Reverted    int           `json:"reverted"`
	Parts       []PartReport  `json:"parts,omitempty"`
	PlanTime    time.Duration `json:"plan_ns"`
	FlowTime    time.Duration `json:"flow_ns"`
	MergeTime   time.Duration `json:"merge_ns"`
}

// Run executes the partition-and-conquer flow: plan, extract, allocate,
// per-part SASIMI flows (parallel across parts on cfg.Workers pool
// workers, each part itself running the sequential pattern path), budget
// reclamation rounds, merge, and the global re-measurement acceptance
// gate with its revert-worst repair loop. Results are deterministic at
// any worker count: parts are independent and merged in a fixed order.
//
// Only the ER metric is supported — AEM is defined over the parent's
// output word and does not decompose across part boundaries.
//
// When the plan degenerates to a single part the monolithic flow runs
// unchanged, so small circuits pay nothing for the partition vocabulary.
func Run(ctx context.Context, golden *circuit.Network, cfg sasimi.Config, opt Options) (*sasimi.Result, *Report, error) {
	start := time.Now()
	opt.FillDefaults()
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	cfg.Budget.FillDefaults()
	if err := cfg.Budget.Validate("partition"); err != nil {
		return nil, nil, err
	}
	if cfg.Metric == core.MetricAEM {
		return nil, nil, fmt.Errorf("partition: the partitioned flow supports only the ER metric (AEM does not decompose across part boundaries)")
	}
	if cfg.Patterns != nil && cfg.Patterns.NumPatterns() == 0 {
		return nil, nil, fmt.Errorf("partition: %w: empty Patterns override", flow.ErrNoPatterns)
	}
	if err := golden.Validate(); err != nil {
		return nil, nil, fmt.Errorf("partition: invalid input network: %w", err)
	}

	tl := cfg.Timeline
	sp := tl.Start("partition.plan", obs.PhaseCPMBuild)
	plan, err := BuildPlan(golden, opt)
	tl.End(sp)
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{
		NumParts:    plan.NumParts(),
		TargetCells: opt.TargetCells,
		MaxCut:      opt.MaxCut,
		Policy:      opt.BudgetPolicy,
	}
	rep.PlanTime = time.Since(start)
	if plan.NumParts() <= 1 {
		// Degenerate plan: the monolithic flow is strictly better.
		res, err := sasimi.RunContext(ctx, golden, cfg)
		if res != nil {
			rep.MergedError = res.FinalError
		}
		return res, rep, err
	}

	pool := par.NewPool(cfg.Workers)
	defer pool.Close()
	if tl != nil {
		pool.AttachTimeline(tl, true)
	}

	patterns := cfg.Patterns
	if patterns == nil {
		patterns = sim.RandomPatterns(golden.NumInputs(), cfg.NumPatterns, cfg.Seed)
	}
	pool.Label("partition.sim", obs.PhaseSimulate)
	vals := sim.SimulateParallel(golden, patterns, pool)

	sp = tl.Start("partition.extract", obs.PhaseCPMBuild)
	parts, err := plan.Extract(vals)
	tl.End(sp)
	if err != nil {
		return nil, nil, err
	}

	alloc := NewAllocator(cfg.Threshold, WeightsFor(opt.BudgetPolicy, golden, plan))

	// Per-part flows: each part runs the sequential pattern path
	// (Workers: 1) while the outer pool parallelises across parts — the
	// partition lanes the timeline shows. Per-part observability sinks
	// stay nil: the timeline recorder and metrics registry are
	// single-driver surfaces owned by this partitioned run.
	results := make([]*sasimi.Result, plan.NumParts())
	runPart := func(k int) error {
		ex := &parts[k]
		if len(ex.Part.Outputs) == 0 {
			// Dead region: nothing downstream observes it; keep golden.
			return nil
		}
		pcfg := sasimi.Config{
			Budget: flow.Budget{
				Metric:        cfg.Metric,
				Threshold:     alloc.Alloc(k),
				NumPatterns:   patterns.NumPatterns(),
				Seed:          cfg.Seed,
				Library:       cfg.Library,
				MaxIterations: cfg.MaxIterations,
			},
			Estimator:       cfg.Estimator,
			Workers:         1,
			Incremental:     cfg.Incremental,
			Patterns:        ex.Patterns,
			SimilarityCap:   cfg.SimilarityCap,
			VerifyTopK:      cfg.VerifyTopK,
			KeepTrace:       cfg.KeepTrace,
			CheckInvariants: cfg.CheckInvariants,
		}
		r, err := sasimi.RunContext(ctx, ex.Net, pcfg)
		if err != nil {
			return fmt.Errorf("partition: part %d flow: %w", k, err)
		}
		results[k] = r
		return nil
	}
	runBatch := func(idx []int) error {
		errs := make([]error, len(idx))
		pool.Label("partition.flow", obs.PhaseEstimate)
		_ = pool.DoCtx(ctx, len(idx), func(_, i int) {
			errs[i] = runPart(idx[i])
		})
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		return nil
	}

	flowStart := time.Now()
	all := make([]int, plan.NumParts())
	for i := range all {
		all[i] = i
	}
	if err := runBatch(all); err != nil {
		return nil, nil, err
	}
	rep.Rounds = 1

	// Reclamation rounds: converged parts return their slack, hungry
	// parts get it and re-run from their golden with the larger budget.
	for rep.Rounds < opt.MaxRounds {
		measured := make([]float64, plan.NumParts())
		for k, r := range results {
			if r != nil {
				measured[k] = r.FinalError
			}
		}
		before := alloc.Allocations()
		grown := alloc.Reclaim(measured)
		if len(grown) == 0 {
			break
		}
		for _, k := range grown {
			rep.Reclaimed += alloc.Alloc(k) - before[k]
		}
		if err := runBatch(grown); err != nil {
			return nil, nil, err
		}
		rep.Rounds++
	}
	rep.FlowTime = time.Since(flowStart)

	// Merge and the global acceptance gate. Per-part local errors are
	// measured against recorded (pre-approximation) boundary inputs, so
	// the composition can drift past the naive sum; the gate re-measures
	// the real thing and the repair loop reverts the worst offender until
	// the merged network fits the budget (terminating at the golden
	// network, whose error is zero).
	mergeStart := time.Now()
	reverted := make([]bool, plan.NumParts())
	partNets := func() []*circuit.Network {
		nets := make([]*circuit.Network, plan.NumParts())
		for k := range nets {
			if results[k] != nil && !reverted[k] {
				nets[k] = results[k].Approx
			} else {
				nets[k] = parts[k].Net
			}
		}
		return nets
	}
	var merged *circuit.Network
	var measuredErr float64
	for {
		sp = tl.Start("partition.merge", obs.PhaseVerifyApply)
		merged, err = plan.Merge(partNets())
		tl.End(sp)
		if err != nil {
			return nil, nil, err
		}
		sp = tl.Start("partition.measure", obs.PhaseVerifyApply)
		measuredErr = emetric.Measure(golden, merged, patterns).ErrorRate
		tl.End(sp)
		if measuredErr <= cfg.Threshold+1e-12 {
			break
		}
		worst, worstErr := -1, 0.0
		for k, r := range results {
			if r == nil || reverted[k] || r.NumIterations == 0 {
				continue
			}
			if worst == -1 || r.FinalError > worstErr {
				worst, worstErr = k, r.FinalError
			}
		}
		if worst == -1 {
			// Every part is already golden: the merged network is the
			// parent's logic and cannot measure over an ER budget >= 0.
			return nil, nil, fmt.Errorf("partition: merged error %g over budget %g with all parts golden", measuredErr, cfg.Threshold)
		}
		reverted[worst] = true
		rep.Reverted++
	}
	rep.MergeTime = time.Since(mergeStart)
	rep.MergedError = measuredErr

	res := &sasimi.Result{
		Approx:       merged,
		OriginalArea: cfg.Library.NetworkArea(golden),
		FinalArea:    cfg.Library.NetworkArea(merged),
		FinalError:   measuredErr,
		TotalTime:    time.Since(start),
	}
	rep.Parts = make([]PartReport, plan.NumParts())
	for k := range plan.Parts {
		part := &plan.Parts[k]
		pr := PartReport{
			Index:      k,
			Cells:      part.Cells(),
			CutIns:     part.CutIns,
			Outputs:    len(part.Outputs),
			Budget:     alloc.Alloc(k),
			AreaBefore: cfg.Library.NetworkArea(parts[k].Net),
			Reverted:   reverted[k],
		}
		pr.AreaAfter = pr.AreaBefore
		if r := results[k]; r != nil {
			pr.LocalError = r.FinalError
			pr.Iterations = r.NumIterations
			if !reverted[k] {
				pr.AreaAfter = r.FinalArea
				res.NumIterations += r.NumIterations
				res.CPMTime += r.CPMTime
				for ph := range r.Phases.Stats {
					res.Phases.Stats[ph].Time += r.Phases.Stats[ph].Time
					res.Phases.Stats[ph].Count += r.Phases.Stats[ph].Count
					res.Phases.Stats[ph].Mem.Bytes += r.Phases.Stats[ph].Mem.Bytes
					res.Phases.Stats[ph].Mem.Mallocs += r.Phases.Stats[ph].Mem.Mallocs
				}
				if cfg.KeepTrace {
					res.Iterations = append(res.Iterations, r.Iterations...)
				}
			}
		}
		rep.Parts[k] = pr
	}
	return res, rep, nil
}
