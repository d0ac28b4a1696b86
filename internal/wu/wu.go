// Package wu implements a simplified variant of Wu & Qian's multi-level
// ALS flow (DAC 2016), the third method of the paper's Table 3. Its
// approximate transformation shrinks a node by deleting one literal: a
// fanin is removed from an AND/OR-family gate (a 2-input gate collapses
// onto its remaining fanin, with the inversion folded in for NAND/NOR).
//
// The original operates on factored-form expressions of Boolean-network
// nodes; on this library's simple-gate networks every gate *is* a flat
// product or sum, so literal deletion is exactly fanin removal. XOR-family
// gates have no removable literal (deleting a XOR input changes the
// function in a non-monotone way the original's error model does not
// cover) and are left alone, as is MUX.
//
// The flow is the greedy iteration of flow.Greedy, which reuses the batch
// CPM estimator for the increased error of every candidate deletion — i.e.
// this package is the paper's technique applied to a second published AT
// type.
package wu

import (
	"batchals/internal/bitvec"
	"batchals/internal/cell"
	"batchals/internal/circuit"
	"batchals/internal/flow"
	"batchals/internal/sim"
)

// Config parameterises a run. The shared budget fields (Metric, Threshold,
// NumPatterns, Seed, Library, MaxIterations) come from the embedded
// flow.Budget.
type Config struct {
	flow.Budget

	// UseBatch selects the CPM estimator (true, default behaviour of the
	// modified flow) or the local toggle-probability estimate (false, the
	// original flow's local error model).
	UseBatch bool
}

// Run executes the literal-removal flow on a copy of golden.
func Run(golden *circuit.Network, cfg Config) (*flow.Result, error) {
	return flow.Greedy("wu", golden, cfg.Budget, cfg.UseBatch, literals{})
}

// literals is the move set: a move removes fanin pin Arg of gate Target.
type literals struct{}

func (literals) Moves(net *circuit.Network, vals *sim.Values, lib *cell.Library, yield func(flow.Move, *bitvec.Vec)) {
	newVal := bitvec.New(vals.M)
	for _, id := range net.LiveNodes() {
		if !removableKind(net.Kind(id)) {
			continue
		}
		for pin := range net.Fanins(id) {
			gain := deletionGain(net, lib, id, pin)
			if gain <= 0 {
				continue
			}
			reducedValue(net, vals, id, pin, newVal)
			yield(flow.Move{Target: id, Gain: gain, Arg: pin}, newVal)
		}
	}
}

func (literals) Apply(net *circuit.Network, mv flow.Move) { applyDeletion(net, mv.Target, mv.Arg) }

// removableKind reports whether literal deletion is defined for the kind.
func removableKind(k circuit.Kind) bool {
	switch k {
	case circuit.KindAnd, circuit.KindOr, circuit.KindNand, circuit.KindNor:
		return true
	}
	return false
}

// deletionGain is the area reclaimed by removing pin from gate: the gate
// shrinks by one input (or collapses entirely at arity 2) and the removed
// fanin's exclusive cone may die.
func deletionGain(n *circuit.Network, lib *cell.Library, gate circuit.NodeID, pin int) float64 {
	fanins := n.Fanins(gate)
	kind := n.Kind(gate)
	old := lib.GateArea(kind, len(fanins))
	var newArea float64
	if len(fanins) > 2 {
		newArea = lib.GateArea(kind, len(fanins)-1)
	} else {
		// Gate collapses to a wire (AND/OR) or an inverter (NAND/NOR).
		if kind == circuit.KindNand || kind == circuit.KindNor {
			newArea = lib.GateArea(circuit.KindNot, 1)
		} else {
			newArea = 0
		}
	}
	gain := old - newArea
	// The removed fanin's exclusively-supported cone dies too, unless the
	// same signal feeds the gate on another pin.
	removed := fanins[pin]
	occurrences := 0
	for _, f := range fanins {
		if f == removed {
			occurrences++
		}
	}
	if occurrences == 1 && len(n.Fanouts(removed)) == 1 && n.Kind(removed).IsGate() && !drivesOutput(n, removed) {
		for _, id := range n.MFFC(removed) {
			gain += lib.GateArea(n.Kind(id), len(n.Fanins(id)))
		}
	}
	return gain
}

func drivesOutput(n *circuit.Network, id circuit.NodeID) bool {
	for _, o := range n.Outputs() {
		if o.Node == id {
			return true
		}
	}
	return false
}

// reducedValue computes the gate's value vector with pin removed, into dst.
func reducedValue(n *circuit.Network, vals *sim.Values, gate circuit.NodeID, pin int, dst *bitvec.Vec) {
	kind := n.Kind(gate)
	fanins := n.Fanins(gate)
	rest := make([]*bitvec.Vec, 0, len(fanins)-1)
	for i, f := range fanins {
		if i == pin {
			continue
		}
		rest = append(rest, vals.Node(f))
	}
	words := bitvec.Words(vals.M)
	dw := dst.WordsSlice()
	buf := make([]uint64, len(rest))
	for w := 0; w < words; w++ {
		for j, v := range rest {
			buf[j] = v.WordsSlice()[w]
		}
		// EvalWord handles the shrunken arity directly, including the
		// single-operand AND/NAND/OR/NOR forms (identity / inversion).
		dw[w] = kind.EvalWord(buf)
	}
	dst.MaskTail()
}

// applyDeletion performs the netlist surgery for an accepted deletion.
func applyDeletion(n *circuit.Network, gate circuit.NodeID, pin int) {
	fanins := n.Fanins(gate)
	kind := n.Kind(gate)
	if len(fanins) > 2 {
		keep := make([]circuit.NodeID, 0, len(fanins)-1)
		for i, f := range fanins {
			if i != pin {
				keep = append(keep, f)
			}
		}
		repl := n.AddGate(kind, keep...)
		n.ReplaceNode(gate, repl)
		n.SweepFrom(gate)
		return
	}
	other := fanins[1-pin]
	var repl circuit.NodeID
	if kind == circuit.KindNand || kind == circuit.KindNor {
		repl = n.AddGate(circuit.KindNot, other)
	} else {
		repl = other
	}
	n.ReplaceNode(gate, repl)
	n.SweepFrom(gate)
}
