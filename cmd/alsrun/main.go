// Command alsrun runs an approximate logic synthesis flow on a benchmark or
// circuit file under an error constraint and reports the result.
//
// Usage:
//
//	alsrun -circuit mul8 -metric er -threshold 0.01
//	alsrun -circuit path/to/c880.bench -metric aem -threshold 12.5 -out approx.bench
//	alsrun -circuit c880 -trace t.jsonl -metrics m.json
//	alsrun -list
//
// The -estimator flag selects batch (the paper's method, default), full
// (per-candidate resimulation) or local (no propagation, the prior-work
// baseline). With -iters, every accepted substitution is printed.
//
// Observability (sasimi flow): -trace streams phase / iteration / accept
// events as JSON Lines, -metrics snapshots the metrics registry (counters,
// the five per-phase timers, estimator-drift histograms split by the
// exactness certificate) as JSON, -pprof serves net/http/pprof plus a
// Prometheus /metrics endpoint while the flow runs, and -summary prints a
// phase/drift table at the end. Any of these also implies the summary.
//
// -timeline FILE attaches the causal span recorder and writes the run's
// per-worker timeline as Chrome trace-event JSON (open it in Perfetto or
// chrome://tracing), followed by a per-span-name wall/busy/idle summary
// table. With -serve, the live timeline is also exported at /timeline.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"batchals"
	"batchals/internal/flow"
	"batchals/internal/obs"
	"batchals/internal/obs/timeline"
	"batchals/internal/serve"
	"batchals/internal/snap"
	"batchals/internal/stoch"
	"batchals/internal/wu"
)

func main() {
	var (
		circuitFlag  = flag.String("circuit", "", "benchmark name or .bench/.blif file path")
		flowFlag     = flag.String("flow", "sasimi", "ALS flow: sasimi, snap (constant-setting), wu (literal-removal) or stoch (stochastic)")
		metricFlag   = flag.String("metric", "er", "error metric: er or aem")
		threshold    = flag.Float64("threshold", 0.01, "error budget (ER fraction or absolute AEM)")
		estimator    = flag.String("estimator", "batch", "estimator: batch, full or local (full: sasimi only; stoch: batch only)")
		verifyTopK   = flag.Int("verify", 0, "re-check the K best candidates per iteration exactly (0 = off)")
		patterns     = flag.Int("m", 10000, "Monte Carlo pattern count")
		seed         = flag.Int64("seed", 0, "random seed")
		workers      = flag.Int("workers", 0, "worker pool size for the sasimi flow (0 = all CPUs, 1 = sequential; results are bit-identical at any count)")
		incremental  = flag.Bool("incremental", true, "carry simulation/CPM state across sasimi iterations (cone resimulation + dirty-region CPM refresh); false rebuilds from scratch each iteration — results are bit-identical either way")
		partCells    = flag.Int("partition-cells", 0, "run the partitioned sasimi flow with this target part size in gates (0 = monolithic; ER metric only)")
		partMaxCut   = flag.Int("partition-maxcut", 0, "cut width below which a part boundary is accepted immediately (0 = default 64)")
		partPolicy   = flag.String("partition-policy", "", "error-budget split across parts: observability (default) or uniform")
		partRounds   = flag.Int("partition-rounds", 0, "budget allocate/run/reclaim rounds (0 = default 2)")
		outFile      = flag.String("out", "", "write the approximate circuit to this .bench/.blif file")
		iters        = flag.Bool("iters", false, "print every accepted substitution")
		checkInv     = flag.Bool("check-invariants", false, "validate structural invariants after every accepted substitution")
		traceFile    = flag.String("trace", "", "write a JSONL event trace (phases, iterations, accepts) to this file")
		traceCands   = flag.Bool("trace-cands", false, "include per-candidate scoring events in the -trace stream (large)")
		metricsFile  = flag.String("metrics", "", "write a JSON metrics snapshot (counters, phase timers, drift histograms) to this file")
		timelineFile = flag.String("timeline", "", "write the run's causal span timeline (per-worker busy/idle, dispatches, verify/apply) as Chrome trace-event JSON to this file")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof and Prometheus /metrics on this address during the run")
		serveAddr    = flag.String("serve", "", "serve the full observability surface (labelled /metrics, /metrics.json, /events SSE, /flight, /healthz, pprof) on this address during the run")
		summary      = flag.Bool("summary", false, "print an end-of-run phase/drift summary table")
		list         = flag.Bool("list", false, "list built-in benchmark names and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(batchals.BenchmarkNames(), "\n"))
		return
	}
	if *circuitFlag == "" {
		fmt.Fprintln(os.Stderr, "alsrun: -circuit is required (or -list)")
		flag.Usage()
		os.Exit(2)
	}

	golden, err := loadCircuit(*circuitFlag)
	if err != nil {
		fatal(err)
	}

	opts := batchals.Options{
		Threshold:       *threshold,
		NumPatterns:     *patterns,
		Seed:            *seed,
		Workers:         *workers,
		KeepTrace:       *iters,
		VerifyTopK:      *verifyTopK,
		CheckInvariants: *checkInv,
	}
	if *incremental {
		opts.Incremental = batchals.IncrementalOn
	} else {
		opts.Incremental = batchals.IncrementalOff
	}
	if *partCells > 0 {
		opts.Partition = &batchals.PartitionOptions{
			TargetCells:  *partCells,
			MaxCut:       *partMaxCut,
			BudgetPolicy: *partPolicy,
			MaxRounds:    *partRounds,
		}
	}
	switch strings.ToLower(*metricFlag) {
	case "er":
		opts.Metric = batchals.ErrorRate
	case "aem":
		opts.Metric = batchals.AvgErrorMagnitude
	default:
		fatal(fmt.Errorf("unknown metric %q (want er or aem)", *metricFlag))
	}
	switch strings.ToLower(*estimator) {
	case "batch":
		opts.Estimator = batchals.Batch
	case "full":
		opts.Estimator = batchals.Full
	case "local":
		opts.Estimator = batchals.Local
	default:
		fatal(fmt.Errorf("unknown estimator %q (want batch, full or local)", *estimator))
	}
	// snap and wu offer only the batch and local estimators; stoch picks
	// its own (exact while the budget is comfortable, batch after).
	flowName := strings.ToLower(*flowFlag)
	if (flowName == "snap" || flowName == "wu") && opts.Estimator == batchals.Full ||
		flowName == "stoch" && opts.Estimator != batchals.Batch {
		fmt.Fprintf(os.Stderr, "alsrun: -flow %s does not support -estimator %s\n", flowName, *estimator)
		flag.Usage()
		os.Exit(2)
	}

	// Observability: every sink shares the process-global registry so one
	// snapshot covers the flow metrics and the always-on sim/CPM substrate
	// counters.
	observe := *traceFile != "" || *metricsFile != "" || *pprofAddr != "" || *serveAddr != "" || *summary
	var (
		tracer    *obs.JSONLTracer
		traceW    *os.File
		flushed   bool
		servedRun *serve.Run
	)
	if *traceFile != "" {
		traceW, err = os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		tracer = obs.NewJSONLTracer(traceW)
		tracer.EmitCandidates = *traceCands
		opts.Tracer = tracer
	}
	if observe {
		opts.Metrics = obs.Default()
	}
	// The timeline recorder rides independently of the metrics/trace sinks:
	// it is also attached under -serve alone so /timeline works live.
	var tlRec *batchals.TimelineRecorder
	if *timelineFile != "" || *serveAddr != "" {
		tlRec = batchals.NewTimeline(*workers)
		opts.Timeline = tlRec
	}
	if *serveAddr != "" {
		// Full observability service for the duration of the run: the run
		// registers under the circuit name, its metrics land in a dedicated
		// registry (scraped with run="name" labels), and live events stream
		// to any attached SSE client. The flow's sinks fan out to both the
		// service and any file-based tracer configured above.
		rr := serve.NewRunRegistry()
		srv := serve.New(rr)
		run := rr.Get(*circuitFlag)
		opts.Metrics = run.Registry
		opts.Tracer = obs.Multi(opts.Tracer, run.Tracer())
		boundAddr, shutdown, err := srv.Start(*serveAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("serving: http://%s/metrics (/metrics.json, /events, /flight, /debug/pprof/)\n", boundAddr)
		run.SetTimeline(tlRec)
		run.SetState(serve.RunActive, "")
		srv.SetReady(true)
		defer func() {
			run.SetState(serve.RunDone, "")
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = shutdown(ctx)
		}()
		servedRun = run
	}
	if *pprofAddr != "" {
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			obs.Default().Snapshot().WritePrometheus(w)
		})
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "alsrun: pprof server:", err)
			}
		}()
		fmt.Printf("pprof: http://%s/debug/pprof/ (Prometheus text at /metrics)\n", *pprofAddr)
	}
	finishObs := func(phases obs.PhaseReport) {
		if tlRec != nil && *timelineFile != "" {
			f, err := os.Create(*timelineFile)
			if err != nil {
				fatal(err)
			}
			if err := tlRec.WriteTrace(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s (%d spans)\n", *timelineFile, tlRec.SpanCount())
			if err := timeline.Summarize(tlRec.Snapshot(), tlRec.Dropped()).WriteSummary(os.Stdout); err != nil {
				fatal(err)
			}
		}
		if tracer != nil && !flushed {
			flushed = true
			if err := tracer.Flush(); err != nil {
				fatal(err)
			}
			if err := traceW.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *traceFile)
		}
		if !observe {
			return
		}
		snapshot := obs.Default().Snapshot()
		if servedRun != nil {
			// With -serve the flow metrics land in the run's registry.
			snapshot = servedRun.Registry.Snapshot()
		}
		if *metricsFile != "" {
			f, err := os.Create(*metricsFile)
			if err != nil {
				fatal(err)
			}
			if err := snapshot.WriteJSON(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *metricsFile)
		}
		if err := obs.WriteSummary(os.Stdout, phases, snapshot); err != nil {
			fatal(err)
		}
		// Always-on counters: how much batch scoring was carried across
		// iterations rather than recomputed over every pattern word.
		full := obs.Default().Counter("sasimi_score_full_total").Value()
		carried := obs.Default().Counter("sasimi_score_carried_total").Value()
		if n := full + carried; n > 0 {
			fmt.Printf("batch scores: %d full, %d carried (%.1f%% reused)\n",
				full, carried, 100*float64(carried)/float64(n))
		}
	}

	fmt.Printf("circuit: %s (%d inputs, %d outputs, area %.0f, delay %.0f)\n",
		golden.Name, golden.NumInputs(), golden.NumOutputs(),
		batchals.Area(golden), batchals.Delay(golden))
	fmt.Printf("flow: %s/%s, %s <= %g, M=%d, seed=%d\n",
		*flowFlag, *estimator, strings.ToUpper(*metricFlag), *threshold, *patterns, *seed)

	switch flowName {
	case "sasimi":
		res := runSASIMI(golden, opts, *iters, *outFile)
		finishObs(res.Phases)
	case "snap", "wu", "stoch":
		res := runGreedy(golden, flowName, opts)
		saveOut(*outFile, res.Approx)
		finishObs(obs.PhaseReport{})
	default:
		fatal(fmt.Errorf("unknown flow %q (want sasimi, snap, wu or stoch)", *flowFlag))
	}
}

// runGreedy runs one of the flows beside SASIMI and prints its result.
func runGreedy(golden *batchals.Network, name string, opts batchals.Options) *flow.Result {
	b := flow.Budget{
		Metric:      opts.Metric,
		Threshold:   opts.Threshold,
		NumPatterns: opts.NumPatterns,
		Seed:        opts.Seed,
	}
	useBatch := opts.Estimator == batchals.Batch
	var (
		res  *flow.Result
		err  error
		what string
	)
	switch name {
	case "snap":
		res, err = snap.Run(golden, snap.Config{Budget: b, UseBatch: useBatch})
		what = "constants set"
	case "wu":
		res, err = wu.Run(golden, wu.Config{Budget: b, UseBatch: useBatch})
		what = "literals removed"
	case "stoch":
		var sr *stoch.Result
		sr, err = stoch.Run(golden, stoch.Config{
			Metric:      b.Metric,
			Threshold:   b.Threshold,
			NumPatterns: b.NumPatterns,
			Seed:        b.Seed,
		})
		if err == nil {
			res = &sr.Result
			what = fmt.Sprintf("of %d moves accepted (%d batch-assisted)", sr.Proposed, sr.BatchMoves)
		}
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("result: area %.0f -> %.0f (ratio %.3f), %d %s, measured error %.5f\n",
		res.OriginalArea, res.FinalArea, res.AreaRatio(), res.NumIterations, what, res.FinalError)
	fmt.Printf("runtime: %s\n", res.TotalTime.Round(time.Millisecond))
	return res
}

func runSASIMI(golden *batchals.Network, opts batchals.Options, iters bool, outFile string) *batchals.Result {
	fl := batchals.NewFlow(golden, opts)
	res, err := fl.Run(context.Background())
	if err != nil {
		fatal(err)
	}
	if rep := fl.PartitionReport(); rep != nil {
		fmt.Printf("partition: %d parts (target %d cells, max cut %d, policy %s), %d rounds, %d reverted, merged error %.5f\n",
			rep.NumParts, rep.TargetCells, rep.MaxCut, rep.Policy, rep.Rounds, rep.Reverted, rep.MergedError)
		for _, p := range rep.Parts {
			mark := ""
			if p.Reverted {
				mark = "  REVERTED"
			}
			fmt.Printf("  part %3d: %5d cells, cut %3d, %3d outs, budget %.5f, local err %.5f, area %.0f -> %.0f, %d subs%s\n",
				p.Index, p.Cells, p.CutIns, p.Outputs, p.Budget, p.LocalError, p.AreaBefore, p.AreaAfter, p.Iterations, mark)
		}
	}
	if iters {
		for _, it := range res.Iterations {
			inv := ""
			if it.Inverted {
				inv = " (inverted)"
			}
			fmt.Printf("  iter %3d: %s <- %s%s  est ΔE=%+.5f  measured=%.5f  area=%.0f\n",
				it.Iter, it.Target, it.Sub, inv, it.EstDelta, it.ActualErr, it.Area)
		}
	}
	fmt.Printf("result: area %.0f -> %.0f (ratio %.3f), %d substitutions, measured error %.5f\n",
		res.OriginalArea, res.FinalArea, res.AreaRatio(), res.NumIterations, res.FinalError)
	fmt.Printf("runtime: %s total (CPM %s, estimation %s)\n",
		res.TotalTime.Round(time.Millisecond),
		res.CPMTime.Round(time.Millisecond),
		res.Phases.Stats[obs.PhaseEstimate].Time.Round(time.Millisecond))
	saveOut(outFile, res.Approx)
	return res
}

func saveOut(path string, n *batchals.Network) {
	if path == "" {
		return
	}
	if err := batchals.Save(path, n); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// loadCircuit resolves a benchmark name or a file path.
func loadCircuit(spec string) (*batchals.Network, error) {
	if strings.ContainsAny(spec, "/.") {
		return batchals.Load(spec)
	}
	return batchals.Benchmark(spec)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "alsrun:", err)
	os.Exit(1)
}
