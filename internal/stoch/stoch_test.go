package stoch

import (
	"math"
	"testing"

	"batchals/internal/bench"
	"batchals/internal/core"
	"batchals/internal/emetric"
)

func TestStochRespectsBudget(t *testing.T) {
	golden := bench.MUL(4)
	res, err := Run(golden, Config{
		Metric: core.MetricER, Threshold: 0.05, NumPatterns: 1500, Seed: 1, Moves: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalError > 0.05+1e-9 {
		t.Fatalf("error %v above threshold", res.FinalError)
	}
	exact := emetric.MeasureExact(golden, res.Approx)
	if exact.ErrorRate > 0.12 {
		t.Fatalf("exact ER %v way above budget", exact.ErrorRate)
	}
	if err := res.Approx.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStochMakesProgress(t *testing.T) {
	golden := bench.MUL(4)
	res, err := Run(golden, Config{
		Metric: core.MetricER, Threshold: 0.05, NumPatterns: 1500, Seed: 2, Moves: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumIterations == 0 || res.FinalArea >= res.OriginalArea {
		t.Fatalf("no progress: accepted=%d area %v -> %v",
			res.NumIterations, res.OriginalArea, res.FinalArea)
	}
}

func TestStochSwitchesToBatchMode(t *testing.T) {
	golden := bench.MUL(4)
	res, err := Run(golden, Config{
		Metric: core.MetricER, Threshold: 0.04, NumPatterns: 1500, Seed: 3,
		Moves: 200, SwitchFrac: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchMoves == 0 {
		t.Fatal("flow never entered batch mode despite low switch fraction")
	}
	if math.IsNaN(res.SwitchedAtErr) {
		t.Fatal("switch error not recorded")
	}
	if res.SwitchedAtErr < 0.25*0.04-1e-9 {
		t.Fatalf("switched too early, at err %v", res.SwitchedAtErr)
	}
}

func TestStochBatchModeDisabled(t *testing.T) {
	golden := bench.MUL(4)
	res, err := Run(golden, Config{
		Metric: core.MetricER, Threshold: 0.04, NumPatterns: 1000, Seed: 4,
		Moves: 80, SwitchFrac: 10, // never switch
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchMoves != 0 {
		t.Fatal("batch mode ran despite SwitchFrac > 1")
	}
}

func TestStochDeterministic(t *testing.T) {
	golden := bench.MUL(4)
	cfg := Config{Metric: core.MetricER, Threshold: 0.03, NumPatterns: 1000, Seed: 5, Moves: 60}
	a, err := Run(golden, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(golden, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalArea != b.FinalArea || a.NumIterations != b.NumIterations {
		t.Fatalf("same seed differs: %v/%d vs %v/%d",
			a.FinalArea, a.NumIterations, b.FinalArea, b.NumIterations)
	}
}

func TestStochAEM(t *testing.T) {
	golden := bench.MUL(4)
	res, err := Run(golden, Config{
		Metric: core.MetricAEM, Threshold: 2, NumPatterns: 1500, Seed: 6, Moves: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalError > 2+1e-9 {
		t.Fatalf("AEM %v above threshold", res.FinalError)
	}
}

func TestStochErrors(t *testing.T) {
	if _, err := Run(bench.RCA(4), Config{Threshold: -1}); err == nil {
		t.Fatal("negative threshold accepted")
	}
}
