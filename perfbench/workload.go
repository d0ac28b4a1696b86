package main

import (
	"fmt"

	"batchals"
	"batchals/internal/bench"
)

// workload is one fixed flow configuration. Every run of a workload is a
// closed loop with a single client: flows run back to back, one at a time,
// on one golden netlist, cycling over the run's pattern sets. Repeated
// flows of one pattern set must produce bit-identical results.
type workload struct {
	name string
	// metric, threshold and m are the error budget: metric ≤ threshold,
	// measured on m Monte Carlo patterns drawn from a pattern seed.
	metric     batchals.Metric
	threshold  float64
	m          int
	verifyTopK int
	// partition routes the flow through the partitioned path when set.
	partition *batchals.PartitionOptions
	// inputs is how many Monte Carlo pattern sets one run covers. The
	// accept count, and so the flow time, swings with the sample, so a
	// run averages over several samples.
	inputs int
	// build makes the golden netlist.
	build func() (*batchals.Network, error)
}

// workers is the fixed pool size of every flow: the reference machine
// has two CPUs.
const workers = 2

var workloads = []*workload{
	{
		// ROADMAP's reference run; the only workload with VerifyTopK. Many
		// iterations at large M stress cone resimulation and CPM refresh.
		name:       "c880-er",
		metric:     batchals.ErrorRate,
		threshold:  0.03,
		m:          4096,
		verifyTopK: 2,
		inputs:     8,
		build:      registry("c880"),
	},
	{
		// Scoring-bound: nearly all of it is the AEM delta kernels, which
		// no other workload runs.
		name:      "mul8-aem",
		metric:    batchals.AvgErrorMagnitude,
		threshold: 0.005 * 65535,
		m:         2048,
		inputs:    5,
		build:     registry("mul8"),
	},
	{
		// Structure-bound, and the only partitioned flow: plan, extract,
		// parallel part flows, merge and the global re-measure.
		name:      "tiled-part",
		metric:    batchals.ErrorRate,
		threshold: 0.02,
		m:         256,
		partition: &batchals.PartitionOptions{TargetCells: 1000},
		inputs:    5,
		// The generator seed is fixed: across generator seeds the flow
		// time of this size spans 4-10 s, far more than a run can average.
		build: func() (*batchals.Network, error) {
			return bench.Tiled("tiled4k", 64, 64, 4000, 1), nil
		},
	},
}

func registry(name string) func() (*batchals.Network, error) {
	return func() (*batchals.Network, error) { return batchals.Benchmark(name) }
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// patternSeed is the Monte Carlo seed of input j of the run with the
// given seed; runs with distinct seeds share no pattern set.
func (w *workload) patternSeed(seed int64, j int) int64 {
	return seed*int64(w.inputs) + int64(j)
}

// options returns the flow options for one pattern seed.
func (w *workload) options(seed int64) batchals.Options {
	return batchals.Options{
		Metric:      w.metric,
		Threshold:   w.threshold,
		NumPatterns: w.m,
		Seed:        seed,
		Workers:     workers,
		VerifyTopK:  w.verifyTopK,
		Partition:   w.partition,
	}
}

// errorOf picks the workload's metric out of an error report.
func (w *workload) errorOf(r batchals.ErrorReport) float64 {
	if w.metric == batchals.AvgErrorMagnitude {
		return r.AvgErrMag
	}
	return r.ErrorRate
}
