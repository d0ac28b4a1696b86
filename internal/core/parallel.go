package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/emetric"
	"batchals/internal/obs"
	"batchals/internal/par"
	"batchals/internal/sim"
)

var (
	statPartialER  = obs.Default().Counter("cpm_partial_er_queries_total")
	statPartialAEM = obs.Default().Counter("cpm_partial_aem_queries_total")
)

// BuildParallel constructs a CPM bit-identical to Build's, with the pattern
// axis sharded across the pool's workers.
//
// The reverse topological recursion of Eq. (2) is word-local: the value of
// word w of P[n][o] depends only on word w of the fanout rows (finalised
// earlier in the same shard's reverse-topological pass) and word w of the
// Boolean difference, which is a pure function of the simulated values.
// Each worker therefore runs the full recursion restricted to its shard's
// word range, writing disjoint uint64 words of the shared rows, and every
// word ends up the result of exactly the operation sequence the sequential
// builder would apply to it — independent of worker count and schedule.
// Shard-local Any early-exits skip only folds that are no-ops for the
// shard's words. A nil or single-worker pool falls through to Build.
func BuildParallel(n *circuit.Network, vals *sim.Values, pool *par.Pool) *CPM {
	if pool.Workers() <= 1 {
		return Build(n, vals)
	}
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
	allocRows(c, order)
	for o, out := range n.Outputs() {
		c.p[out.Node][o].Fill()
	}
	// Fanout lists are shared read-only by every worker; resolve them once
	// so workers do not race the network's internal caches.
	fanouts := make([][]circuit.NodeID, n.NumSlots())
	for _, id := range order {
		fanouts[id] = uniqueFanouts(n, id)
	}
	lastWord := bitvec.Words(m) - 1
	tail := bitvec.TailMask(m)
	shards := par.Shards(m, pool.Workers())
	pool.Label("cpm.build", obs.PhaseCPMBuild)
	pool.Do(len(shards), func(_, si int) {
		sh := shards[si]
		d := make([]uint64, bitvec.Words(m))
		var one, zero []uint64
		for idx := len(order) - 1; idx >= 0; idx-- {
			id := order[idx]
			prow := c.p[id]
			for _, nf := range fanouts[id] {
				kind := n.Kind(nf)
				fanins := n.Fanins(nf)
				if cap(one) < len(fanins) {
					one = make([]uint64, len(fanins))
					zero = make([]uint64, len(fanins))
				}
				ob, zb := one[:len(fanins)], zero[:len(fanins)]
				dAny := false
				for w := sh.W0; w < sh.W1; w++ {
					for j, f := range fanins {
						if f == id {
							ob[j], zb[j] = ^uint64(0), 0
						} else {
							fv := vals.Node(f).WordsSlice()[w]
							ob[j], zb[j] = fv, fv
						}
					}
					dw := kind.EvalWord(ob) ^ kind.EvalWord(zb)
					if w == lastWord {
						dw &= tail
					}
					d[w] = dw
					dAny = dAny || dw != 0
				}
				if !dAny {
					continue
				}
				frow := c.p[nf]
				for o := 0; o < numOut; o++ {
					if !frow[o].AnyWords(sh.W0, sh.W1) {
						continue
					}
					fo := frow[o].WordsSlice()
					po := prow[o].WordsSlice()
					for w := sh.W0; w < sh.W1; w++ {
						po[w] |= fo[w] & d[w]
					}
				}
			}
		}
	})
	c.buildTime = time.Since(start)
	statCPMBuilds.Inc()
	statCPMBuildNS.Add(int64(c.buildTime))
	return c
}

// EnsureAnyProp warms the AnyProp cache for the given nodes. AnyProp is
// already safe to fault in from concurrent workers; pre-warming simply
// avoids the duplicated compute of racing fills on hot candidate targets.
func (c *CPM) EnsureAnyProp(ids []circuit.NodeID) {
	for _, id := range ids {
		c.AnyProp(id)
	}
}

// EnsureAEMColumns builds the CPM's AEM column memo for st: the
// interleaved output planes and the per-word base sums the ΔAEM kernel
// reads. The memo is a plain (non-atomic) cache keyed by state pointer, so
// sharded AEM queries require this to be called — from a single
// goroutine, before the worker fan-out — whenever the error state changes;
// DeltaAEMPartial then only reads it.
func (c *CPM) EnsureAEMColumns(st *emetric.State) {
	if c.o > 63 {
		panic("core: ΔAEM requires <= 63 outputs")
	}
	c.aemColumns(st)
}

// DeltaERPartial computes the word range [w0, w1) of a DeltaER query as
// exact integer counts: inc is the number of newly-wrong patterns in the
// range, dec the number of fully-corrected ones. chg holds the change-mask
// words of the candidate (only [w0, w1) is read; tail bits beyond M must be
// zero). Summing the counts over any word-aligned partition of the pattern
// space and evaluating (inc−dec)/M reproduces DeltaER's result bit for bit:
// both cases of Algorithm 1 are word-local, and the sequential early-exits
// only skip words whose partial is already zero.
//
// Safe to call from concurrent workers (AnyProp faults in atomically).
//
//als:allocfree
func (c *CPM) DeltaERPartial(nx circuit.NodeID, chg []uint64, st *emetric.State, w0, w1 int) (inc, dec int64) {
	if c.restricted {
		panic("core: DeltaERPartial on an output-restricted CPM")
	}
	statPartialER.Inc()
	ap := c.AnyProp(nx).WordsSlice()
	row := c.p[nx]
	for w := w0; w < w1; w++ {
		if cw := chg[w]; cw != 0 {
			i, d := c.erWord(row, ap[w], cw, st, w)
			inc += i
			dec += d
		}
	}
	return inc, dec
}

// CarryER brings the exact ΔER counts of a change injected at nx from one
// error state to another by recomputing only the pattern words on which
// the two states differ: given inc and dec, the counts under prev, it
// returns the counts under st. The caller guarantees that nx's row (and
// so its AnyProp) and the change mask are unchanged since the counts were
// taken, and that st and prev agree outside words. Algorithm 1 is
// word-local, so every other word contributes the same to both counts,
// and the integer update inc + new(words) − old(words) equals the full
// recount exactly. Only the listed words of chg are read.
//
// Safe to call from concurrent workers, like DeltaERPartial.
//
//als:allocfree
func (c *CPM) CarryER(nx circuit.NodeID, chg []uint64, st, prev *emetric.State, words []int, inc, dec int64) (int64, int64) {
	if c.restricted {
		panic("core: CarryER on an output-restricted CPM")
	}
	statPartialER.Inc()
	ap := c.AnyProp(nx).WordsSlice()
	row := c.p[nx]
	for _, w := range words {
		cw := chg[w]
		if cw == 0 {
			continue
		}
		i1, d1 := c.erWord(row, ap[w], cw, st, w)
		i0, d0 := c.erWord(row, ap[w], cw, prev, w)
		inc += i1 - i0
		dec += d1 - d0
	}
	return inc, dec
}

// erWord is Algorithm 1 on pattern word w: the newly-wrong and the
// fully-corrected patterns among the word's changed lanes cw, given the
// word ap of nx's AnyProp and nx's propagation row.
func (c *CPM) erWord(row []*bitvec.Vec, ap, cw uint64, st *emetric.State, w int) (inc, dec int64) {
	wa := st.WrongAny.WordsSlice()[w]
	dw := cw & wa
	for o := 0; o < c.o && dw != 0; o++ {
		dw &^= row[o].WordsSlice()[w] ^ st.W.Row(o).WordsSlice()[w]
	}
	return int64(bits.OnesCount64(cw &^ wa & ap)), int64(bits.OnesCount64(dw))
}

// DeltaAEMPartial computes the word range [w0, w1) of a DeltaAEM query,
// returning the *unnormalised* magnitude sum over the range's patterns
// (DeltaAEM's result is the total over all words divided by M). Both run
// the same word-local kernel, and each partial is an exact integer, so
// partial sums over a word-aligned partition combine exactly — in the
// fixed shard order — to DeltaAEM's total for any magnitude below 2^53,
// which covers every bundled benchmark.
//
// EnsureAEMColumns(st) must have been called (from one goroutine) first.
//
//als:allocfree
func (c *CPM) DeltaAEMPartial(nx circuit.NodeID, chg []uint64, st *emetric.State, w0, w1 int) float64 {
	if c.restricted {
		panic("core: DeltaAEMPartial on an output-restricted CPM")
	}
	if c.aemFor != st {
		panic(fmt.Sprintf("core: DeltaAEMPartial for state %p without EnsureAEMColumns", st))
	}
	statPartialAEM.Inc()
	return c.aemSum(nx, chg, w0, w1)
}
