package flow_test

import (
	"errors"
	"testing"

	"batchals/internal/bench"
	"batchals/internal/core"
	"batchals/internal/flow"
	"batchals/internal/sasimi"
	"batchals/internal/sim"
	"batchals/internal/snap"
	"batchals/internal/stoch"
	"batchals/internal/wu"
)

// TestBudgetValidate pins the Budget validation rules and the typed
// sentinels they wrap.
func TestBudgetValidate(t *testing.T) {
	b := flow.Budget{Threshold: -0.5, NumPatterns: 100}
	if err := b.Validate("test"); !errors.Is(err, flow.ErrBadThreshold) {
		t.Fatalf("negative threshold: got %v, want ErrBadThreshold", err)
	}
	b = flow.Budget{Threshold: 0.1, NumPatterns: -3}
	if err := b.Validate("test"); !errors.Is(err, flow.ErrNoPatterns) {
		t.Fatalf("negative patterns: got %v, want ErrNoPatterns", err)
	}
	b = flow.Budget{Threshold: 0.1, NumPatterns: 100}
	if err := b.Validate("test"); err != nil {
		t.Fatalf("valid budget rejected: %v", err)
	}
}

// TestFlowsWrapSentinels checks that every flow surfaces the shared typed
// sentinels through errors.Is, with the flow's name in the message.
func TestFlowsWrapSentinels(t *testing.T) {
	golden := bench.RCA(4)

	if _, err := sasimi.Run(golden, sasimi.Config{Budget: flow.Budget{Threshold: -1}}); !errors.Is(err, flow.ErrBadThreshold) {
		t.Fatalf("sasimi: got %v, want ErrBadThreshold", err)
	}
	if _, err := snap.Run(golden, snap.Config{Budget: flow.Budget{Threshold: -1}}); !errors.Is(err, flow.ErrBadThreshold) {
		t.Fatalf("snap: got %v, want ErrBadThreshold", err)
	}
	if _, err := wu.Run(golden, wu.Config{Budget: flow.Budget{Threshold: -1}}); !errors.Is(err, flow.ErrBadThreshold) {
		t.Fatalf("wu: got %v, want ErrBadThreshold", err)
	}
	if _, err := stoch.Run(golden, stoch.Config{Threshold: -1}); !errors.Is(err, flow.ErrBadThreshold) {
		t.Fatalf("stoch: got %v, want ErrBadThreshold", err)
	}
	if _, err := stoch.Run(golden, stoch.Config{Threshold: 0.1, NumPatterns: -5}); !errors.Is(err, flow.ErrNoPatterns) {
		t.Fatalf("stoch negative patterns: got %v, want ErrNoPatterns", err)
	}

	// An explicit empty pattern override is ErrNoPatterns in sasimi.
	empty := sim.NewPatterns(golden.NumInputs(), 0)
	cfg := sasimi.Config{
		Budget:   flow.Budget{Metric: core.MetricER, Threshold: 0.1, NumPatterns: 100},
		Patterns: empty,
	}
	if _, err := sasimi.Run(golden, cfg); !errors.Is(err, flow.ErrNoPatterns) {
		t.Fatalf("sasimi empty patterns: got %v, want ErrNoPatterns", err)
	}
}

// TestUnknownBenchmarkSentinel pins bench.ByName's typed error.
func TestUnknownBenchmarkSentinel(t *testing.T) {
	if _, err := bench.ByName("no-such-circuit"); !errors.Is(err, bench.ErrUnknownBenchmark) {
		t.Fatalf("got %v, want ErrUnknownBenchmark", err)
	}
	if _, err := bench.ByName("rca8"); err != nil {
		t.Fatalf("known benchmark rejected: %v", err)
	}
}
