package core

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/emetric"
	"batchals/internal/sim"
)

// netWithOutputs builds a random DAG over nin inputs with exactly o
// outputs, each driven by a random gate. The top `top` outputs instead
// XOR the shared gate g with a random node, so a flip at g reaches them
// under every pattern; g is returned for that purpose.
func netWithOutputs(t testing.TB, r *rand.Rand, nin, ngates, o, top int) (*circuit.Network, circuit.NodeID) {
	t.Helper()
	n := circuit.New("outs")
	pool := make([]circuit.NodeID, 0, nin+ngates)
	for i := 0; i < nin; i++ {
		pool = append(pool, n.AddInput(""))
	}
	kinds := []circuit.Kind{circuit.KindAnd, circuit.KindOr, circuit.KindNand,
		circuit.KindNor, circuit.KindXor, circuit.KindXnor}
	var gates []circuit.NodeID
	for i := 0; i < ngates; i++ {
		id := n.AddGate(kinds[r.Intn(len(kinds))], pool[r.Intn(len(pool))], pool[r.Intn(len(pool))])
		pool = append(pool, id)
		gates = append(gates, id)
	}
	g := gates[r.Intn(len(gates))]
	for k := 0; k < o; k++ {
		drv := gates[r.Intn(len(gates))]
		if k >= o-top {
			drv = n.AddGate(circuit.KindXor, g, pool[r.Intn(nin)])
		}
		n.AddOutput("", drv)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n, g
}

// corruptWith returns st with each approximate output bit flipped with
// probability 1/den, so errors of both signs appear at every plane.
func corruptWith(r *rand.Rand, st *emetric.State, den int) *emetric.State {
	v := st.V.Clone()
	for o := 0; o < v.Rows(); o++ {
		row := v.Row(o)
		for i := 0; i < row.Len(); i++ {
			if r.Intn(den) == 0 {
				row.Flip(i)
			}
		}
	}
	return emetric.NewState(st.U.Clone(), v)
}

// refAEMSum is the per-pattern §4.3 formula, independent of the
// bit-sliced kernel: for every changed pattern i, flip = ChangedOutputs,
// and the contribution |(pre^flip)−org| − |pre−org| is summed exactly
// over the patterns of words [w0, w1).
func refAEMSum(c *CPM, nx circuit.NodeID, change *bitvec.Vec, st *emetric.State, w0, w1 int) *big.Int {
	abs := func(a, b uint64) *big.Int {
		x := new(big.Int).SetUint64(a)
		return x.Abs(x.Sub(x, new(big.Int).SetUint64(b)))
	}
	total := new(big.Int)
	for i := w0 * bitvec.WordBits; i < w1*bitvec.WordBits && i < change.Len(); i++ {
		if !change.Get(i) {
			continue
		}
		flip := c.ChangedOutputs(nx, i)
		org, pre := st.U.Column(i), st.V.Column(i)
		total.Add(total, abs(pre^flip, org))
		total.Sub(total, abs(pre, org))
	}
	return total
}

// changeMasks returns the empty, all-ones and a random change mask.
func changeMasks(r *rand.Rand, m int) []*bitvec.Vec {
	empty, full, rnd := bitvec.New(m), bitvec.New(m), bitvec.New(m)
	full.Fill()
	for i := 0; i < m; i++ {
		if r.Intn(3) == 0 {
			rnd.Set(i, true)
		}
	}
	return []*bitvec.Vec{empty, full, rnd}
}

// TestDeltaAEMMatchesPerPatternReference pins the bit-sliced ΔAEM kernel
// to the per-pattern formula: DeltaAEM and DeltaAEMPartial sums over
// random word partitions must equal the exact reference bit for bit
// (every total here is below 2^53).
func TestDeltaAEMMatchesPerPatternReference(t *testing.T) {
	r := rand.New(rand.NewSource(1313))
	for _, m := range []int{1, 63, 64, 65, 500, 2048} {
		for _, o := range []int{1, 2, 16, 40} {
			net, _ := netWithOutputs(t, r, 8, 60, o, 0)
			p := sim.RandomPatterns(8, m, int64(m*100+o))
			vals := sim.Simulate(net, p)
			out := sim.OutputMatrix(net, vals)
			st0 := emetric.NewState(out, out.Clone())
			c := Build(net, vals)
			gates := gatesOf(net)
			words := bitvec.Words(m)
			for _, st := range []*emetric.State{st0, corruptWith(r, st0, 16), corruptWith(r, st0, 2)} {
				for trial := 0; trial < 4; trial++ {
					nx := gates[r.Intn(len(gates))]
					for _, change := range changeMasks(r, m) {
						ref := refAEMSum(c, nx, change, st, 0, words)
						want, _ := new(big.Float).SetInt(ref).Float64()
						if got := c.DeltaAEM(nx, change, st); got != want/float64(m) {
							t.Fatalf("M=%d O=%d node %d: DeltaAEM %v, reference %v", m, o, nx, got, want/float64(m))
						}
						cuts := randomWordPartition(r, words, 1+r.Intn(6))
						var total float64
						for s := 0; s+1 < len(cuts); s++ {
							part := c.DeltaAEMPartial(nx, change.WordsSlice(), st, cuts[s], cuts[s+1])
							pref, _ := new(big.Float).SetInt(refAEMSum(c, nx, change, st, cuts[s], cuts[s+1])).Float64()
							if part != pref {
								t.Fatalf("M=%d O=%d node %d words [%d,%d): partial %v, reference %v",
									m, o, nx, cuts[s], cuts[s+1], part, pref)
							}
							total += part
						}
						if total != want {
							t.Fatalf("M=%d O=%d node %d cuts %v: partial sum %v, reference %v", m, o, nx, cuts, total, want)
						}
					}
				}
			}
		}
	}
}

// TestDeltaAEMNoOverflowAt63Outputs drives the top planes of a 63-output
// circuit: a word's magnitude sum reaches 64·(2^63−1), past int64, so the
// kernel must split its accumulation. The result must match the exact
// reference to a relative 1e-12 and carry its sign.
func TestDeltaAEMNoOverflowAt63Outputs(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	const m = 500
	net, g := netWithOutputs(t, r, 8, 40, 63, 12)
	vals := sim.Simulate(net, sim.RandomPatterns(8, m, 7))
	out := sim.OutputMatrix(net, vals)
	st0 := emetric.NewState(out, out.Clone())
	c := Build(net, vals)
	if !c.Prop(g, 62).Any() {
		t.Fatal("setup: a flip at g must reach the top output")
	}
	for _, st := range []*emetric.State{st0, corruptWith(r, st0, 16), corruptWith(r, st0, 2)} {
		for _, change := range changeMasks(r, m)[1:] {
			ref := refAEMSum(c, g, change, st, 0, bitvec.Words(m))
			want, _ := new(big.Float).Quo(new(big.Float).SetInt(ref), big.NewFloat(m)).Float64()
			got := c.DeltaAEM(g, change, st)
			if ref.Sign() == 0 || math.Signbit(got) != (ref.Sign() < 0) || math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Fatalf("DeltaAEM %v, reference %v", got, want)
			}
		}
	}
}

// TestDeltaAEMAllocFree checks dynamically what the allocfree annotation
// only checks statically: after warm-up (AEM columns and AnyProp built),
// neither ΔAEM entry point touches the heap.
func TestDeltaAEMAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	_, approx, _, vals, st0 := buildApproxPair(t, r, 8, 40, 1000, 3)
	st := corruptedState(r, st0)
	c := Build(approx, vals)
	nx := gatesOf(approx)[0]
	change := changeMasks(r, 1000)[2]
	c.DeltaAEM(nx, change, st)
	if a := testing.AllocsPerRun(50, func() { c.DeltaAEM(nx, change, st) }); a != 0 {
		t.Fatalf("DeltaAEM: %v allocs/op", a)
	}
	if a := testing.AllocsPerRun(50, func() {
		c.DeltaAEMPartial(nx, change.WordsSlice(), st, 0, bitvec.Words(1000))
	}); a != 0 {
		t.Fatalf("DeltaAEMPartial: %v allocs/op", a)
	}
}
