package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"batchals"
)

// errTol is the slack the flow itself allows when it compares an error
// against the budget.
const errTol = 1e-12

// flowOutput is what one flow run hands to the output check.
type flowOutput struct {
	res    *batchals.Result
	report *batchals.PartitionReport // nil for monolithic flows
	err    error                     // Flow.Run's error
}

// checkFlow verifies one flow's output independently of the flow: the
// approximate netlist is structurally valid, a fresh Monte Carlo
// measurement on the flow's seed and M reproduces FinalError exactly and
// stays within budget, the area matches, and a partitioned run's merged
// error matches the re-measurement.
func checkFlow(w *workload, seed int64, golden *batchals.Network, out flowOutput) error {
	if out.err != nil {
		return fmt.Errorf("run: %w", out.err)
	}
	res := out.res
	if res == nil || res.Approx == nil {
		return fmt.Errorf("run returned no approximate netlist")
	}
	if err := res.Approx.Validate(); err != nil {
		return fmt.Errorf("approx netlist invalid: %w", err)
	}
	got := w.errorOf(batchals.MeasureError(golden, res.Approx, w.m, seed))
	if got > w.threshold+errTol {
		return fmt.Errorf("re-measured error %g over budget %g", got, w.threshold)
	}
	if got != res.FinalError {
		return fmt.Errorf("re-measured error %g != FinalError %g", got, res.FinalError)
	}
	if a := batchals.Area(res.Approx); a != res.FinalArea {
		return fmt.Errorf("area %g != FinalArea %g", a, res.FinalArea)
	}
	if w.partition != nil {
		if out.report == nil {
			return fmt.Errorf("partitioned run returned no report")
		}
		if out.report.MergedError != got {
			return fmt.Errorf("MergedError %g != re-measured error %g", out.report.MergedError, got)
		}
	}
	return nil
}

// digest fingerprints a result netlist, so runs of one seed can be
// compared for bit-identity within a run and across commits.
func digest(res *batchals.Result) string {
	if res == nil || res.Approx == nil {
		return ""
	}
	sum := sha256.Sum256([]byte(res.Approx.Dump()))
	return hex.EncodeToString(sum[:8])
}

// matchDigest checks a flow's digest against the first one recorded for
// its pattern seed in this run, and records d when there is none yet.
func matchDigest(first *string, d string) error {
	if *first == "" {
		*first = d
		return nil
	}
	if d != *first {
		return fmt.Errorf("digest %s differs from the run's first flow of this pattern seed, %s", d, *first)
	}
	return nil
}
