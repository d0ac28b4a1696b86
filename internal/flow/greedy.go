package flow

import (
	"fmt"
	"time"

	"batchals/internal/bitvec"
	"batchals/internal/cell"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/emetric"
	"batchals/internal/sim"
)

// Session is the measured state of one flow run: the working copy
// (Result.Approx), its simulated values, its error state against the
// golden outputs and that state's metric value. The state always
// describes the current working copy, so a flow never re-simulates a
// network it has already measured.
type Session struct {
	Budget
	Result

	Vals  *sim.Values
	State *emetric.State
	// Err is the Metric value of State, the error spent so far.
	Err float64

	name      string
	start     time.Time
	patterns  *sim.Patterns
	goldenOut *bitvec.Matrix
}

// Start fills and validates b, checks golden, draws the Monte Carlo
// patterns and returns a session on a clone of golden.
func Start(name string, golden *circuit.Network, b Budget) (*Session, error) {
	s := &Session{Budget: b, name: name, start: time.Now()}
	s.FillDefaults()
	if err := s.Validate(name); err != nil {
		return nil, err
	}
	if err := s.CheckNetwork(name, golden); err != nil {
		return nil, err
	}
	s.patterns = sim.RandomPatterns(golden.NumInputs(), s.NumPatterns, s.Seed)
	// The clone keeps golden's node ids, so golden's values are its values.
	s.Vals = sim.Simulate(golden, s.patterns)
	s.goldenOut = sim.OutputMatrix(golden, s.Vals)
	s.Approx = golden.Clone()
	s.State, s.Err = s.measure(s.Vals)
	s.OriginalArea = s.Library.NetworkArea(golden)
	s.FinalArea = s.OriginalArea
	return s, nil
}

// measure returns the error state and metric value of the working copy
// with values vals.
func (s *Session) measure(vals *sim.Values) (*emetric.State, float64) {
	st := emetric.NewState(s.goldenOut, sim.OutputMatrix(s.Approx, vals))
	return st, s.Metric.Value(st)
}

// Delta estimates the metric increase when target's value flips on the
// patterns set in change: by the CPM when cpm is non-nil, otherwise by the
// local toggle probability |change|/M.
func (s *Session) Delta(cpm *core.CPM, target circuit.NodeID, change *bitvec.Vec) float64 {
	switch {
	case cpm == nil:
		return float64(change.Count()) / float64(s.Vals.M)
	case s.Metric == core.MetricAEM:
		return cpm.DeltaAEM(target, change, s.State)
	default:
		return cpm.DeltaER(target, change, s.State)
	}
}

// Feasible reports whether spending delta more error stays within budget.
func (s *Session) Feasible(delta float64) bool {
	return s.Err+delta <= s.Threshold+1e-12
}

// Try applies edit to the working copy, re-simulates and measures it. Over
// budget, it restores the working copy and returns false; otherwise the
// measured network becomes the current state and counts as an iteration.
func (s *Session) Try(edit func(*circuit.Network)) bool {
	backup := s.Approx.Clone()
	edit(s.Approx)
	vals := sim.Simulate(s.Approx, s.patterns)
	st, measured := s.measure(vals)
	if measured > s.Threshold+1e-12 {
		*s.Approx = *backup
		return false
	}
	s.Vals, s.State, s.Err, s.FinalError = vals, st, measured, measured
	s.NumIterations++
	s.FinalArea = s.Library.NetworkArea(s.Approx)
	return true
}

// Finish stamps the run time and checks the working copy is still a valid
// network.
func (s *Session) Finish() (*Result, error) {
	s.TotalTime = time.Since(s.start)
	if err := s.Approx.Validate(); err != nil {
		return nil, fmt.Errorf("%s: flow corrupted the network: %w", s.name, err)
	}
	return &s.Result, nil
}

// Move is one transformation a MoveSet offers.
type Move struct {
	Target circuit.NodeID
	// Gain is the area the move reclaims.
	Gain float64
	// Arg tells the move set which of its moves on Target this is.
	Arg int
}

// MoveSet is the transformation space of a greedy flow.
type MoveSet interface {
	// Moves calls yield for every move on net with positive gain, passing
	// the target's value vector after the move.
	Moves(net *circuit.Network, vals *sim.Values, lib *cell.Library, yield func(Move, *bitvec.Vec))
	// Apply performs the netlist surgery of a move.
	Apply(net *circuit.Network, mv Move)
}

// Greedy runs the greedy iterative flow: each iteration estimates every
// move's error increase (by the CPM when useBatch is set, otherwise by the
// local toggle probability), applies the feasible move with the best
// Score and measures the result. It stops when no move is feasible, when
// the measured error overshoots the budget (the move is rolled back) or
// after MaxIterations accepted moves.
func Greedy(name string, golden *circuit.Network, b Budget, useBatch bool, ms MoveSet) (*Result, error) {
	s, err := Start(name, golden, b)
	if err != nil {
		return nil, err
	}
	change := bitvec.New(s.Vals.M)
	for s.MaxIterations <= 0 || s.NumIterations < s.MaxIterations {
		var cpm *core.CPM
		if useBatch {
			cpm = core.Build(s.Approx, s.Vals)
		}
		var best Move
		bestScore := -1.0
		ms.Moves(s.Approx, s.Vals, s.Library, func(mv Move, value *bitvec.Vec) {
			change.Xor(s.Vals.Node(mv.Target), value)
			delta := s.Delta(cpm, mv.Target, change)
			if !s.Feasible(delta) {
				return
			}
			if score := Score(mv.Gain, delta, s.Vals.M); score > bestScore {
				best, bestScore = mv, score
			}
		})
		if bestScore < 0 || !s.Try(func(n *circuit.Network) { ms.Apply(n, best) }) {
			break
		}
	}
	return s.Finish()
}
