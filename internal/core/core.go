// Package core implements the paper's primary contribution: batch
// statistical error estimation for approximate logic synthesis via a single
// Monte Carlo run plus a change propagation matrix (CPM).
//
// The CPM entry P[i,n,o] is 1 iff a value flip at node n under input
// pattern i propagates to primary output o. It is built from per-edge
// Boolean differences D[i,n,nf] = (∂nf/∂n)(pattern i) by the reverse
// topological recursion of the paper's Eq. (2):
//
//	P[i,n,o] = OR over fanouts nf of n of ( P[i,nf,o] AND D[i,n,nf] )
//
// with P[i,d,o] = 1 whenever node d drives primary output o. Everything is
// stored as M-bit vectors, so the recursion and the downstream ΔER / ΔAEM
// queries run 64 patterns per machine word.
//
// Like the paper, the construction evaluates each Boolean difference at the
// *unperturbed* simulated values, so reconvergent fanout can make an entry
// wrong; on fanout-free (tree) regions it is exact. See the package tests
// for both properties.
package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"batchals/internal/analyze"
	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/emetric"
	"batchals/internal/obs"
	"batchals/internal/sim"
)

// Always-on substrate counters on the default metrics registry; see the
// matching block in internal/sim. Pre-resolved so the per-event cost is a
// single atomic add.
var (
	statCPMBuilds  = obs.Default().Counter("cpm_builds_total")
	statCPMBuildNS = obs.Default().Counter("cpm_build_ns_total")
	statDeltaER    = obs.Default().Counter("cpm_delta_er_queries_total")
	statDeltaAEM   = obs.Default().Counter("cpm_delta_aem_queries_total")
	statExactDelta = obs.Default().Counter("exact_delta_queries_total")
)

// CPM is the change propagation matrix for one network, one pattern set and
// one simulation of that network.
type CPM struct {
	net  *circuit.Network
	vals *sim.Values
	m    int // number of patterns
	o    int // number of outputs

	// p[node][o] is the M-bit propagation vector of node -> output o.
	// nil rows correspond to dead node slots.
	p [][]*bitvec.Vec

	// anyProp[node] caches the OR over outputs of p[node][...]. Stored
	// through atomic pointers so concurrent queries may fault the cache in
	// lazily: the computed vector is a pure function of the (immutable)
	// p rows, so racing fills store interchangeable values.
	anyProp []atomic.Pointer[bitvec.Vec]

	// AEM column memo for the error state currently being estimated
	// against (see aemColumns): aemPlanes holds each pattern word's
	// approximate and golden output planes interleaved, aemBase each
	// word's base magnitude sum Σ|V−U|.
	aemFor    *emetric.State
	aemPlanes []vuPlane
	aemBase   []magSum

	// Scratch buffers of the sequential DeltaERCounts, reused across calls
	// to keep the scoring loop allocation-free. Like aemColumns they make
	// the sequential query methods single-goroutine only; the concurrent
	// path uses the *Partial kernels with per-worker state instead.
	erInc, erDec, erTmp *bitvec.Vec

	// foldScratch holds Refresh's per-shard fold buffers, reused across
	// refreshes.
	foldScratch []foldScratch

	// restricted marks a CPM built by BuildForOutputs: its output axis is
	// a subset, so the whole-circuit error queries are unavailable.
	restricted bool

	// cert caches the lazily-built exactness certificate (see Certificate);
	// atomic for the same reason as anyProp: the certificate depends only
	// on the immutable network structure.
	cert atomic.Pointer[analyze.Certificate]

	buildTime time.Duration
}

// Build constructs the CPM from an already-simulated value table (the
// single MC run). Cost Θ(M·(N+E)·O / 64) word operations, as analysed in
// Section 4.4 of the paper.
func Build(n *circuit.Network, vals *sim.Values) *CPM {
	start := time.Now()
	m := vals.M
	numOut := n.NumOutputs()
	c := &CPM{
		net:     n,
		vals:    vals,
		m:       m,
		o:       numOut,
		p:       make([][]*bitvec.Vec, n.NumSlots()),
		anyProp: make([]atomic.Pointer[bitvec.Vec], n.NumSlots()),
	}
	order := n.TopoOrder()

	// Allocate propagation rows for live nodes out of two slabs — one
	// arena slab for the vectors, one flat slice for the per-node pointer
	// rows — instead of a make per node and a make per (node, output).
	allocRows(c, order)

	// Base case: a node observed directly at an output propagates there.
	for o, out := range n.Outputs() {
		c.p[out.Node][o].Fill()
	}

	// Reverse topological pass applying Eq. (2). For each node n and each
	// fanout nf we need D[n->nf] once; compute it word-parallel and fold it
	// into every output plane.
	d := bitvec.New(m)
	tmp := bitvec.New(m)
	for idx := len(order) - 1; idx >= 0; idx-- {
		id := order[idx]
		for _, nf := range uniqueFanouts(n, id) {
			boolDiff(n, vals, id, nf, d)
			if !d.Any() {
				continue
			}
			prow := c.p[id]
			frow := c.p[nf]
			for o := 0; o < numOut; o++ {
				if !frow[o].Any() {
					continue
				}
				tmp.And(frow[o], d)
				prow[o].Or(prow[o], tmp)
			}
		}
	}
	c.buildTime = time.Since(start)
	statCPMBuilds.Inc()
	statCPMBuildNS.Add(int64(c.buildTime))
	return c
}

// allocRows slab-allocates the propagation rows for every node in order:
// one bitvec.Arena slab for the vectors and one flat pointer slice carved
// per node, so a build performs O(1) heap allocations where it used to
// perform one per node plus one per (node, output).
func allocRows(c *CPM, order []circuit.NodeID) {
	total := len(order) * c.o
	if total == 0 {
		return
	}
	arena := bitvec.NewArena(c.m, total)
	flat := make([]*bitvec.Vec, total)
	for i := range flat {
		flat[i] = arena.New()
	}
	for i, id := range order {
		c.p[id] = flat[i*c.o : (i+1)*c.o : (i+1)*c.o] //als:invalidate-ok constructor helper: the caller's CPM is freshly built, caches empty
	}
}

// uniqueFanouts returns the distinct fanout nodes of id (a node may appear
// several times if it feeds multiple pins of the same gate; the Boolean
// difference already accounts for the multiplicity).
func uniqueFanouts(n *circuit.Network, id circuit.NodeID) []circuit.NodeID {
	fos := n.Fanouts(id)
	if len(fos) <= 1 {
		return fos
	}
	out := make([]circuit.NodeID, 0, len(fos))
	for _, f := range fos {
		dup := false
		for _, g := range out {
			if g == f {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, f)
		}
	}
	return out
}

// boolDiff computes the Boolean difference ∂nf/∂x as an M-bit vector into
// dst: bit i is 1 iff flipping x changes nf under pattern i, evaluating all
// other fanins at their simulated values. Implemented as the generic
// cofactor XOR of Definition 4.1, word-parallel, which also handles a node
// feeding several pins of nf.
func boolDiff(n *circuit.Network, vals *sim.Values, x, nf circuit.NodeID, dst *bitvec.Vec) {
	kind := n.Kind(nf)
	fanins := n.Fanins(nf)
	words := bitvec.Words(vals.M)
	one := make([]uint64, len(fanins))
	zero := make([]uint64, len(fanins))
	dw := dst.WordsSlice()
	for w := 0; w < words; w++ {
		for j, f := range fanins {
			if f == x {
				one[j] = ^uint64(0)
				zero[j] = 0
			} else {
				fv := vals.Node(f).WordsSlice()[w]
				one[j] = fv
				zero[j] = fv
			}
		}
		dw[w] = kind.EvalWord(one) ^ kind.EvalWord(zero)
	}
	dst.MaskTail()
}

// M returns the number of patterns the CPM was built for.
func (c *CPM) M() int { return c.m }

// NumOutputs returns the number of primary outputs covered.
func (c *CPM) NumOutputs() int { return c.o }

// BuildTime returns how long the CPM construction took; the experiment
// harness uses it to reproduce the "ratio of CPM runtime" column of
// Table 3.
func (c *CPM) BuildTime() time.Duration { return c.buildTime }

// Prop returns the M-bit vector of patterns under which a flip at node id
// reaches output o. Shared, not copied.
func (c *CPM) Prop(id circuit.NodeID, o int) *bitvec.Vec {
	row := c.p[id]
	if row == nil {
		panic(fmt.Sprintf("core: node %d has no CPM row (dead?)", id))
	}
	return row[o]
}

// AnyProp returns the OR over outputs of Prop(id, ·): the patterns under
// which a flip at id is observable at some primary output. Cached; safe to
// call from concurrent query workers once the CPM is built (racing fills
// compute the same bits and the last store wins). Callers must not rely on
// pointer identity across calls.
func (c *CPM) AnyProp(id circuit.NodeID) *bitvec.Vec {
	if v := c.anyProp[id].Load(); v != nil {
		return v
	}
	v := bitvec.New(c.m)
	for _, pv := range c.p[id] {
		v.Or(v, pv)
	}
	c.anyProp[id].Store(v)
	return v
}

// Observability returns the fraction of patterns under which a flip at id
// reaches at least one output — a per-node testability measure that falls
// out of the CPM for free.
func (c *CPM) Observability(id circuit.NodeID) float64 {
	return float64(c.AnyProp(id).Count()) / float64(c.m)
}

// DeltaER implements Algorithm 1 of the paper for one approximate
// transformation, bit-parallel over patterns. nx is the output of the local
// circuit affected by the AT, change is the M-bit mask of patterns under
// which the value of nx flips, and st carries the W matrix of the current
// approximate circuit versus the golden circuit.
//
// Returns the increased error rate, which may be negative (the AT fixes
// previously wrong patterns).
func (c *CPM) DeltaER(nx circuit.NodeID, change *bitvec.Vec, st *emetric.State) float64 {
	inc, dec := c.DeltaERCounts(nx, change, st)
	return (float64(inc) - float64(dec)) / float64(c.m)
}

// DeltaERCounts returns the raw pattern counts behind DeltaER: inc
// patterns predicted to become newly wrong and dec patterns predicted to
// become fully corrected, out of the M-pattern sample. These Binomial
// counts are what the statistical confidence layer (obs.Wilson /
// obs.Hoeffding) consumes — DeltaER's normalised float erases the sample
// size the interval math needs.
//
//als:allocfree
func (c *CPM) DeltaERCounts(nx circuit.NodeID, change *bitvec.Vec, st *emetric.State) (incCount, decCount int64) {
	if c.restricted {
		panic("core: DeltaER on an output-restricted CPM")
	}
	statDeltaER.Inc()
	if !change.Any() {
		return 0, 0
	}
	if c.erInc == nil {
		c.erInc = bitvec.New(c.m)
		c.erDec = bitvec.New(c.m)
		c.erTmp = bitvec.New(c.m)
	}
	// Case 2 (Lines 10-11): previously fully correct pattern, flip reaches
	// some output -> newly wrong.
	inc := c.erInc
	inc.AndNot(change, st.WrongAny)
	inc.And(inc, c.AnyProp(nx))

	// Case 1 (Lines 7-9): previously wrong pattern where the flip reaches
	// exactly the wrong outputs and no correct one -> fully corrected.
	dec := c.erDec
	dec.And(change, st.WrongAny)
	if dec.Any() {
		tmp := c.erTmp
		row := c.p[nx]
		for o := 0; o < c.o && dec.Any(); o++ {
			// Keep patterns where P and W agree on output o.
			tmp.Xor(row[o], st.W.Row(o))
			tmp.Not(tmp)
			dec.And(dec, tmp)
		}
	}
	return int64(inc.Count()), int64(dec.Count())
}

// aemColumns builds (or reuses) the AEM column memo for st: the output
// planes of V and U interleaved word-major (plane k of word w at
// aemPlanes[w·O+k]), so the ΔAEM kernel reads one contiguous block per
// pattern word, and the base sum B[w] = Σ|V−U| over each word's lanes.
func (c *CPM) aemColumns(st *emetric.State) {
	if c.aemFor == st {
		return
	}
	words := bitvec.Words(c.m)
	if c.aemPlanes == nil {
		c.aemPlanes = make([]vuPlane, words*c.o)
		c.aemBase = make([]magSum, words)
	}
	for k := 0; k < c.o; k++ {
		vw := st.V.Row(k).WordsSlice()
		uw := st.U.Row(k).WordsSlice()
		for w := 0; w < words; w++ {
			c.aemPlanes[w*c.o+k] = vuPlane{v: vw[w], u: uw[w]}
		}
	}
	for w := range c.aemBase {
		var none [63]uint64 // no flip; laneMag overwrites it
		c.aemBase[w] = laneMag(c.aemPlanes[w*c.o:(w+1)*c.o], none[:c.o])
	}
	c.aemFor = st
}

// vuPlane is one output plane of one pattern word: bit i of v (u) is the
// approximate (golden) value of that output under the word's pattern i.
type vuPlane struct{ v, u uint64 }

// magSum is an exact integer sum of lane magnitudes, split at plane 32 so
// that neither half overflows int64 even at 63 outputs (a word's 64 lanes
// can sum to 64·(2^63−1)): the value is hi·2^32 + lo.
type magSum struct{ lo, hi int64 }

// laneMag returns Σ over the 64 lanes of one pattern word of |n − u|, with
// the lane values bit-sliced across planes (plane k holds bit k of every
// lane): u_k = pl[k].u and n_k = pl[k].v ^ f[k], the approximate plane
// with the candidate's flip applied. A borrow plane ripples through the
// subtraction n − u; lanes still borrowing past the top plane are
// negative and get the bit-sliced two's-complement negate, which flips
// every bit above the lowest set one. f is overwritten with the
// difference planes.
func laneMag(pl []vuPlane, f []uint64) magSum {
	f = f[:len(pl)]
	var borrow uint64
	for k, q := range pl {
		n := q.v ^ f[k]
		x := n ^ q.u
		f[k] = x ^ borrow
		borrow = ^n&q.u | ^x&borrow
	}
	lo, hi := f, f[:0]
	if len(f) > 32 {
		lo, hi = f[:32], f[32:]
	}
	// Both halves index planes from 0 to at most 31; the "& 31" tells the
	// compiler so, which drops its guard for shifts of 64 or more.
	var s magSum
	var seen uint64
	for k, d := range lo {
		s.lo += int64(bits.OnesCount64(d^borrow&seen)) << (k & 31)
		seen |= d
	}
	for k, d := range hi {
		s.hi += int64(bits.OnesCount64(d^borrow&seen)) << (k & 31)
		seen |= d
	}
	return s
}

// aemSum is the ΔAEM kernel over the pattern words [w0, w1): the sum over
// those patterns of |Y_chg−Y_org| − |Y_pre−Y_org|, where Y_chg is Y_pre
// with the CPM-propagated bits of the change mask chg flipped. Each word
// the change reaches contributes its candidate magnitude sum minus the
// memoised base B[w]; untouched lanes cancel inside the word. The sum is
// carried exactly in integers, so the result is the exact total rounded
// once to float64 — exact below 2^53. aemColumns must be current.
//
//als:allocfree
func (c *CPM) aemSum(nx circuit.NodeID, chg []uint64, w0, w1 int) float64 {
	row := c.p[nx]
	var scratch [63]uint64
	f := scratch[:len(row)]
	var lo, hi int64
	for w := w0; w < w1; w++ {
		cw := chg[w]
		if cw == 0 {
			continue
		}
		var reach uint64
		for k, p := range row {
			f[k] = cw & p.WordsSlice()[w]
			reach |= f[k]
		}
		if reach == 0 {
			continue
		}
		s := laneMag(c.aemPlanes[w*c.o:(w+1)*c.o], f)
		lo += s.lo - c.aemBase[w].lo
		hi += s.hi - c.aemBase[w].hi
	}
	return float64(hi)*(1<<32) + float64(lo)
}

// DeltaAEM estimates the increased average error magnitude of an AT, per
// Section 4.3: for each pattern where nx flips, the predicted new output
// word Y_chg is the previous approximate word with the CPM-propagated bits
// flipped, and the contribution is |Y_chg−Y_org| − |Y_pre−Y_org|. The
// result is normalised by M (it is an average), and may be negative.
// Requires at most 63 outputs.
//
//als:allocfree
func (c *CPM) DeltaAEM(nx circuit.NodeID, change *bitvec.Vec, st *emetric.State) float64 {
	if c.restricted {
		panic("core: DeltaAEM on an output-restricted CPM")
	}
	statDeltaAEM.Inc()
	c.EnsureAEMColumns(st)
	return c.aemSum(nx, change.WordsSlice(), 0, bitvec.Words(c.m)) / float64(c.m)
}

// ChangedOutputs returns, for pattern i, the set of outputs the CPM
// predicts to flip when nx flips, as a bit mask over output indices
// (output 0 = bit 0). Requires at most 64 outputs.
func (c *CPM) ChangedOutputs(nx circuit.NodeID, i int) uint64 {
	if c.o > 64 {
		panic("core: ChangedOutputs requires <= 64 outputs")
	}
	var mask uint64
	row := c.p[nx]
	for o := 0; o < c.o; o++ {
		if row[o].Get(i) {
			mask |= 1 << uint(o)
		}
	}
	return mask
}

// BuildForOutputs constructs a CPM restricted to the given output indices:
// p-rows only carry those outputs, cutting memory from Θ(M·N·O) bits to
// Θ(M·N·|outputs|). DeltaER/DeltaAEM are not available on a restricted CPM
// (they need every output); use Prop/AnyProp/Observability, or build
// output groups and combine externally. Output indices must be distinct
// and in range.
func BuildForOutputs(n *circuit.Network, vals *sim.Values, outputs []int) *CPM {
	start := time.Now()
	m := vals.M
	all := n.Outputs()
	for _, o := range outputs {
		if o < 0 || o >= len(all) {
			panic(fmt.Sprintf("core: output index %d out of range [0,%d)", o, len(all)))
		}
	}
	c := &CPM{
		net:        n,
		vals:       vals,
		m:          m,
		o:          len(outputs),
		p:          make([][]*bitvec.Vec, n.NumSlots()),
		anyProp:    make([]atomic.Pointer[bitvec.Vec], n.NumSlots()),
		restricted: true,
	}
	order := n.TopoOrder()
	for _, id := range order {
		row := make([]*bitvec.Vec, len(outputs))
		for o := range outputs {
			row[o] = bitvec.New(m)
		}
		c.p[id] = row
	}
	for slot, o := range outputs {
		c.p[all[o].Node][slot].Fill()
	}
	d := bitvec.New(m)
	tmp := bitvec.New(m)
	for idx := len(order) - 1; idx >= 0; idx-- {
		id := order[idx]
		for _, nf := range uniqueFanouts(n, id) {
			boolDiff(n, vals, id, nf, d)
			if !d.Any() {
				continue
			}
			prow := c.p[id]
			frow := c.p[nf]
			for o := range outputs {
				if !frow[o].Any() {
					continue
				}
				tmp.And(frow[o], d)
				prow[o].Or(prow[o], tmp)
			}
		}
	}
	c.buildTime = time.Since(start)
	statCPMBuilds.Inc()
	statCPMBuildNS.Add(int64(c.buildTime))
	return c
}
