package repro

import (
	"fmt"
	"strings"
	"time"

	"batchals/internal/bench"
	"batchals/internal/core"
	"batchals/internal/flow"
	"batchals/internal/sasimi"
	"batchals/internal/snap"
	"batchals/internal/stoch"
	"batchals/internal/wu"
)

// FlowsRow compares the four ALS flows that share the batch estimator on
// one benchmark under the same ER budget: SASIMI (signal substitution),
// SNAP (constant setting, Shin–Gupta style), Wu–Qian-style literal
// removal and the stochastic certified flow with late-phase batch
// assistance. This goes beyond the paper's tables: it demonstrates the
// §2/§6 claim that the estimation technique is flow-agnostic.
type FlowsRow struct {
	Circuit     string
	SASIMIRatio float64
	SASIMITime  time.Duration
	SnapRatio   float64
	SnapTime    time.Duration
	WuRatio     float64
	WuTime      time.Duration
	StochRatio  float64
	StochTime   time.Duration
}

// Flows runs the four flows on a small benchmark set at a 1% ER budget.
func Flows(opt Options) ([]FlowsRow, error) {
	opt = opt.fill()
	names := []string{"c880", "mul8", "cla32"}
	if opt.Fast {
		names = []string{"mul4"}
	}
	const threshold = 0.01
	var rows []FlowsRow
	for _, name := range names {
		golden := benchOrDie(name, bench.ByName)
		row := FlowsRow{Circuit: name}

		s1, err := sasimi.Run(golden, sasimi.Config{
			Budget: flow.Budget{
				Metric:      core.MetricER,
				Threshold:   threshold,
				NumPatterns: opt.M,
				Seed:        opt.Seed,
			},
			Estimator: sasimi.EstimatorBatch,
		})
		if err != nil {
			return nil, fmt.Errorf("flows %s sasimi: %w", name, err)
		}
		row.SASIMIRatio, row.SASIMITime = s1.AreaRatio(), s1.TotalTime

		s2, err := snap.Run(golden, snap.Config{
			Budget: flow.Budget{
				Metric:      core.MetricER,
				Threshold:   threshold,
				NumPatterns: opt.M,
				Seed:        opt.Seed,
			},
			UseBatch: true,
		})
		if err != nil {
			return nil, fmt.Errorf("flows %s snap: %w", name, err)
		}
		row.SnapRatio, row.SnapTime = s2.AreaRatio(), s2.TotalTime

		s3, err := wu.Run(golden, wu.Config{
			Budget: flow.Budget{
				Metric:      core.MetricER,
				Threshold:   threshold,
				NumPatterns: opt.M,
				Seed:        opt.Seed,
			},
			UseBatch: true,
		})
		if err != nil {
			return nil, fmt.Errorf("flows %s wu: %w", name, err)
		}
		row.WuRatio, row.WuTime = s3.AreaRatio(), s3.TotalTime

		s4, err := stoch.Run(golden, stoch.Config{
			Metric:      core.MetricER,
			Threshold:   threshold,
			NumPatterns: opt.M,
			Seed:        opt.Seed,
			Moves:       150,
		})
		if err != nil {
			return nil, fmt.Errorf("flows %s stoch: %w", name, err)
		}
		row.StochRatio, row.StochTime = s4.AreaRatio(), s4.TotalTime
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFlows formats the flow comparison.
func RenderFlows(rows []FlowsRow) string {
	var sb strings.Builder
	sb.WriteString("Extension: four flows sharing the batch estimator (ER <= 1%)\n")
	fmt.Fprintf(&sb, "%-8s | %8s %10s | %8s %10s | %8s %10s | %8s %10s\n",
		"circuit", "sasimi", "time", "snap", "time", "wu-lite", "time", "stoch", "time")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s | %8.3f %10s | %8.3f %10s | %8.3f %10s | %8.3f %10s\n",
			r.Circuit,
			r.SASIMIRatio, r.SASIMITime.Round(time.Millisecond),
			r.SnapRatio, r.SnapTime.Round(time.Millisecond),
			r.WuRatio, r.WuTime.Round(time.Millisecond),
			r.StochRatio, r.StochTime.Round(time.Millisecond))
	}
	sb.WriteString("(area ratio, lower is better; SASIMI's richer move set should win)\n")
	return sb.String()
}
