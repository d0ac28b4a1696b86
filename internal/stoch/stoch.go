// Package stoch implements a stochastic ALS flow in the spirit of Liu &
// Zhang's statistically certified approach (ICCAD 2017), which the paper's
// related-work section discusses: each move randomly proposes one
// substitution and accepts it probabilistically under a cooling
// temperature.
//
// The paper observes that batch estimation cannot help such a flow early
// on (there is only one candidate per move, so direct evaluation is
// affordable) but *can* help "in later iterations when the accumulated
// error is close to the limit: ... it may be advantageous to consider
// multiple candidates and then choose a good one". This package implements
// exactly that hybrid: single-candidate exact evaluation while the error
// budget is comfortable, switching to CPM-ranked batch selection once the
// consumed budget crosses SwitchFrac.
package stoch

import (
	"math"
	"math/bits"
	"math/rand"

	"batchals/internal/bitvec"
	"batchals/internal/cell"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/flow"
	"batchals/internal/sim"
)

// The annealing schedule and the batch-mode sample size.
const (
	temp0      = 4.0  // initial acceptance temperature, in area units
	cooling    = 0.99 // temperature factor per move
	batchWidth = 32   // random candidates ranked per batch-mode move
)

// Config parameterises a stochastic flow run.
type Config struct {
	// Metric and Threshold define the error budget.
	Metric    core.Metric
	Threshold float64
	// NumPatterns and Seed control the Monte Carlo run and the proposal
	// randomness (default 10000 / 0).
	NumPatterns int
	Seed        int64
	// Moves is the number of stochastic proposals (default 300).
	Moves int
	// SwitchFrac is the consumed-budget fraction after which the flow
	// switches from single-candidate evaluation to batch selection
	// (default 0.5). Set above 1 to disable batch mode.
	SwitchFrac float64
	// Library provides the area model (default cell.Default()).
	Library *cell.Library
}

// Result reports a stochastic flow run. The embedded NumIterations counts
// the accepted moves.
type Result struct {
	flow.Result
	Proposed      int // proposed moves (== cfg.Moves)
	BatchMoves    int // moves decided in batch mode
	SwitchedAtErr float64
}

// proposal is one randomly drawn substitution.
type proposal struct {
	target, sub circuit.NodeID
	inverted    bool
	gain        float64
	delta       float64
}

// Run executes the stochastic flow on a copy of golden.
func Run(golden *circuit.Network, cfg Config) (*Result, error) {
	if cfg.Moves == 0 {
		cfg.Moves = 300
	}
	if cfg.SwitchFrac == 0 {
		cfg.SwitchFrac = 0.5
	}
	s, err := flow.Start("stoch", golden, flow.Budget{
		Metric: cfg.Metric, Threshold: cfg.Threshold, NumPatterns: cfg.NumPatterns,
		Seed: cfg.Seed, Library: cfg.Library,
	})
	if err != nil {
		return nil, err
	}
	lib := s.Library
	r := rand.New(rand.NewSource(cfg.Seed + 7919))
	res := &Result{SwitchedAtErr: math.NaN()}
	temp := temp0
	scratch := bitvec.New(s.Vals.M)
	change := bitvec.New(s.Vals.M)

	for move := 0; move < cfg.Moves; move++ {
		temp *= cooling
		res.Proposed++
		approx, vals := s.Approx, s.Vals

		arrival := lib.NodeArrival(approx)
		batchMode := cfg.Threshold > 0 && s.Err >= cfg.SwitchFrac*cfg.Threshold
		if batchMode && math.IsNaN(res.SwitchedAtErr) {
			res.SwitchedAtErr = s.Err
		}

		var best *proposal
		if batchMode {
			// Late phase: draw several candidates, rank them all with the
			// CPM in one pass, take the best feasible.
			cpm := core.Build(approx, vals)
			res.BatchMoves++
			for k := 0; k < batchWidth; k++ {
				p := draw(approx, vals, arrival, lib, r)
				if p == nil {
					continue
				}
				sub := substituteValue(vals, p, scratch)
				change.Xor(vals.Node(p.target), sub)
				p.delta = s.Delta(cpm, p.target, change)
				if !s.Feasible(p.delta) {
					continue
				}
				if best == nil || p.gain/(p.delta+1e-9) > best.gain/(best.delta+1e-9) {
					best = p
				}
			}
		} else {
			// Early phase: a single proposal, evaluated exactly (cheap
			// because it is just one candidate — the paper's observation).
			p := draw(approx, vals, arrival, lib, r)
			if p == nil {
				continue
			}
			sub := substituteValue(vals, p, scratch)
			p.delta = core.ExactDelta(approx, vals, p.target, sub, s.State, cfg.Metric)
			if !s.Feasible(p.delta) {
				continue
			}
			// Metropolis acceptance on the area gain.
			if p.gain < 0 && r.Float64() >= math.Exp(p.gain/math.Max(temp, 1e-6)) {
				continue
			}
			best = p
		}
		if best != nil {
			s.Try(func(n *circuit.Network) { apply(n, best) })
		}
	}

	fr, err := s.Finish()
	if err != nil {
		return nil, err
	}
	res.Result = *fr
	return res, nil
}

// draw samples one structurally admissible substitution: a random target,
// then the most-similar of a handful of random substitute candidates
// (polarity chosen by whichever phase matches better). A blind uniform
// pair would almost never be error-feasible; biasing by observed
// similarity mirrors the almost-identical-signal ATs the certified flow
// mutates over.
func draw(net *circuit.Network, vals *sim.Values, arrival []float64, lib *cell.Library, r *rand.Rand) *proposal {
	live := net.LiveNodes()
	var gates []circuit.NodeID
	for _, id := range live {
		if net.Kind(id).IsGate() {
			gates = append(gates, id)
		}
	}
	if len(gates) == 0 {
		return nil
	}
	invArea := lib.GateArea(circuit.KindNot, 1)
	invDelay := lib.GateDelay(circuit.KindNot)
	words := bitvec.Words(vals.M)
	if words > 4 {
		words = 4
	}
	for tries := 0; tries < 20; tries++ {
		t := gates[r.Intn(len(gates))]
		tfo := net.TransitiveFanoutCone(t)
		tw := vals.Node(t).WordsSlice()

		// Sample a handful of substitutes, keep the most similar phase.
		var bestS circuit.NodeID = circuit.InvalidNode
		bestInv := false
		bestDiff := -1
		for k := 0; k < 12; k++ {
			s := live[r.Intn(len(live))]
			if s == t || net.Kind(s).IsConst() || tfo[s] {
				continue
			}
			sw := vals.Node(s).WordsSlice()
			d := 0
			for w := 0; w < words; w++ {
				d += bits.OnesCount64(tw[w] ^ sw[w])
			}
			inv := false
			if inverse := words*64 - d; inverse < d {
				d, inv = inverse, true
			}
			need := arrival[s]
			if inv {
				need += invDelay
			}
			if need > arrival[t] {
				continue
			}
			if bestDiff == -1 || d < bestDiff {
				bestS, bestInv, bestDiff = s, inv, d
			}
		}
		if bestS == circuit.InvalidNode {
			continue
		}
		gain := 0.0
		for _, id := range net.MFFCExcluding(t, bestS) {
			gain += lib.GateArea(net.Kind(id), len(net.Fanins(id)))
		}
		if bestInv {
			gain -= invArea
		}
		if gain <= 0 {
			continue
		}
		return &proposal{target: t, sub: bestS, inverted: bestInv, gain: gain}
	}
	return nil
}

func substituteValue(vals *sim.Values, p *proposal, scratch *bitvec.Vec) *bitvec.Vec {
	if p.inverted {
		scratch.Not(vals.Node(p.sub))
		return scratch
	}
	return vals.Node(p.sub)
}

func apply(net *circuit.Network, p *proposal) {
	repl := p.sub
	if p.inverted {
		repl = net.AddGate(circuit.KindNot, p.sub)
	}
	net.ReplaceNode(p.target, repl)
	net.SweepFrom(p.target)
}
