// Package flow holds what the iterative ALS flows share. Budget is the
// error-budget configuration every flow validates through, and the typed
// sentinel errors below let callers branch on a rejected budget with
// errors.Is. Score is the ΔArea/ΔError ranking of SASIMI, wu and snap.
//
// The greedy driver (Greedy, on a MoveSet) runs the wu and snap flows,
// and Session is the measured state behind it, which the stochastic flow
// uses directly. SASIMI keeps its own driver and shares only Budget,
// CheckNetwork and Score.
package flow

import (
	"errors"
	"fmt"
	"time"

	"batchals/internal/cell"
	"batchals/internal/circuit"
	"batchals/internal/core"
)

// Typed validation sentinels. Flows wrap these with context via %w, so
// errors.Is(err, flow.ErrBadThreshold) works on anything a flow returns.
var (
	// ErrBadThreshold marks a threshold outside the metric's valid range
	// (negative for either metric).
	ErrBadThreshold = errors.New("bad error threshold")
	// ErrNoPatterns marks an empty or negative Monte Carlo sample: the
	// statistical estimate is undefined without at least one pattern.
	ErrNoPatterns = errors.New("no simulation patterns")
)

// Budget is the error-budget and run-length configuration common to every
// iterative flow: which statistical error measure to constrain, how much
// of it to spend, the Monte Carlo sample that measures it, and the area
// model the optimisation trades it against. Flow-specific Config structs
// embed Budget, so the shared fields promote to the flow's configuration
// surface unchanged.
type Budget struct {
	// Metric is the statistical error measure the Threshold constrains.
	Metric core.Metric
	// Threshold is the error budget: a fraction in [0,1] for ER, an
	// absolute magnitude for AEM.
	Threshold float64
	// NumPatterns is the Monte Carlo sample size M (default 10000).
	NumPatterns int
	// Seed drives the pattern generator; the same seed reproduces the
	// whole flow bit-for-bit.
	Seed int64
	// Library provides area and delay figures (default cell.Default()).
	Library *cell.Library
	// MaxIterations stops the flow after this many accepted
	// transformations (0 = unlimited).
	MaxIterations int
}

// FillDefaults replaces zero values with the library-wide defaults shared
// by every flow.
func (b *Budget) FillDefaults() {
	if b.NumPatterns == 0 {
		b.NumPatterns = 10000
	}
	if b.Library == nil {
		b.Library = cell.Default()
	}
}

// Validate checks the budget fields, wrapping the typed sentinels with the
// flow's name for context. Call after FillDefaults.
func (b *Budget) Validate(flowName string) error {
	if b.Threshold < 0 {
		return fmt.Errorf("%s: %w: negative threshold %g", flowName, ErrBadThreshold, b.Threshold)
	}
	if b.NumPatterns <= 0 {
		return fmt.Errorf("%s: %w: NumPatterns %d", flowName, ErrNoPatterns, b.NumPatterns)
	}
	return nil
}

// CheckNetwork rejects an input network the flow cannot run on: AEM reads
// the outputs as one unsigned word, so it needs at most 63 of them, and
// the network must pass circuit.Network.Validate.
func (b *Budget) CheckNetwork(flowName string, golden *circuit.Network) error {
	if b.Metric == core.MetricAEM && golden.NumOutputs() > 63 {
		return fmt.Errorf("%s: AEM flow needs <= 63 outputs, have %d", flowName, golden.NumOutputs())
	}
	if err := golden.Validate(); err != nil {
		return fmt.Errorf("%s: invalid input network: %w", flowName, err)
	}
	return nil
}

// Score ranks a transformation: area gain per unit of increased error.
// Transformations whose estimated error is non-positive are strictly
// better than any error-increasing one; among them a larger gain and a
// more negative delta win. The floor of one tenth of a pattern (of m)
// keeps the ratio finite.
func Score(gain, delta float64, m int) float64 {
	floor := 0.1 / float64(m)
	if delta <= 0 {
		// Map into a band above every positive-delta score.
		return 1e12 * (gain + 1) * (1 - delta)
	}
	if delta < floor {
		delta = floor
	}
	return gain / delta
}

// Result reports a flow run.
type Result struct {
	Approx       *circuit.Network
	OriginalArea float64
	FinalArea    float64
	FinalError   float64
	// NumIterations counts the accepted transformations.
	NumIterations int
	TotalTime     time.Duration
}

// AreaRatio returns FinalArea / OriginalArea.
func (r *Result) AreaRatio() float64 {
	if r.OriginalArea == 0 {
		return 1
	}
	return r.FinalArea / r.OriginalArea
}
