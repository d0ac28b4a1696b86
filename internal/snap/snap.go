// Package snap implements a second greedy iterative ALS flow in the spirit
// of Shin & Gupta (DATE 2011): its approximate transformation forces an
// internal signal to constant 0 or 1 ("stuck-at" simplification) and sweeps
// the logic that becomes redundant.
//
// It exists to demonstrate the paper's point that the batch CPM estimator
// is flow-agnostic: snap reuses internal/core unchanged, only the
// transformation space differs from SASIMI. The estimator choice mirrors
// sasimi.EstimatorKind but only Batch and Local are offered (Full would be
// identical in spirit to sasimi's).
package snap

import (
	"batchals/internal/bitvec"
	"batchals/internal/cell"
	"batchals/internal/circuit"
	"batchals/internal/flow"
	"batchals/internal/sim"
)

// probCap skips constants whose local toggle probability exceeds it.
const probCap = 0.4

// Config parameterises a snap run. The shared budget fields (Metric,
// Threshold, NumPatterns, Seed, Library, MaxIterations) come from the
// embedded flow.Budget.
type Config struct {
	flow.Budget

	// UseBatch selects the CPM estimator; false falls back to the local
	// toggle-probability estimate.
	UseBatch bool
}

// Run executes the constant-setting flow on a copy of golden.
func Run(golden *circuit.Network, cfg Config) (*flow.Result, error) {
	return flow.Greedy("snap", golden, cfg.Budget, cfg.UseBatch, constants{})
}

// constants is the move set: a move sets gate Target to constant Arg
// (0 or 1).
type constants struct{}

func (constants) Moves(net *circuit.Network, vals *sim.Values, lib *cell.Library, yield func(flow.Move, *bitvec.Vec)) {
	m := vals.M
	value := [2]*bitvec.Vec{bitvec.New(m), bitvec.New(m)}
	value[1].Fill()
	for _, id := range net.LiveNodes() {
		if !net.Kind(id).IsGate() {
			continue
		}
		gain := 0.0
		for _, mid := range net.MFFC(id) {
			gain += lib.GateArea(net.Kind(mid), len(net.Fanins(mid)))
		}
		if gain <= 0 {
			continue
		}
		ones := vals.Node(id).Count()
		for v, toggles := range [2]int{ones, m - ones} {
			if float64(toggles)/float64(m) > probCap {
				continue
			}
			yield(flow.Move{Target: id, Gain: gain, Arg: v}, value[v])
		}
	}
}

func (constants) Apply(net *circuit.Network, mv flow.Move) {
	c := net.AddConst(mv.Arg == 1)
	net.ReplaceNode(mv.Target, c)
	net.SweepFrom(mv.Target)
	// Fold the freshly planted constant through its fanout logic: the
	// stuck-at simplification's area gain largely comes from here.
	net.PropagateConstants()
}
