package sasimi

import (
	"context"
	"math/bits"
	"runtime/pprof"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/emetric"
	"batchals/internal/flow"
	"batchals/internal/obs"
	"batchals/internal/par"
	"batchals/internal/sim"
)

// This file parallelises the exact top-K verification step — the span the
// timeline profiler identified as the flow's dominant serial tail
// (EXPERIMENTS.md "Timeline attribution"). The serial path verifies one
// candidate at a time by mutating the shared value table, resimulating the
// target's fanout cone in place and restoring it (core.ExactDelta); that
// mutation is what forbids concurrency. The parallel path instead gives
// every candidate a private overlay — one word-row per cone node — and
// evaluates (candidate, pattern-shard) pairs as independent pool tasks:
// cone evaluation is word-local (pattern word w of a node depends only on
// word w of its fanins), so a task that touches only its shard's word
// range [W0,W1) never races another shard of the same candidate, and
// candidates never share overlay rows at all.
//
// Bit-identity with the serial path follows the word-locality argument
// of the core.*Partial kernels: ER partials are exact integer pattern
// counts, AEM per-pattern contributions are integer-valued
// magnitudes whose float sums are exact below 2^53 (the convention
// documented on core.DeltaAEMPartial, covering all bundled benchmarks),
// and the final "after" value is produced by the same single division the
// serial metric performs. The reduction walks candidates in the same
// top-K order as the serial loop, so Delta/Score overwrites, drift
// records and the final argmax selection are identical at every worker
// count.

// verifyCandScratch is one candidate's reusable overlay: its fanout cone
// in topological order, a word-row per cone node (plus row 0 for the
// target's substitute value), and the node→row index map. mark and rowOf
// are cleared lazily at the start of the next prepare using the recorded
// cone, so the scratch never needs an O(slots) wipe.
type verifyCandScratch struct {
	target circuit.NodeID
	mark   []bool
	stack  []circuit.NodeID
	cone   []circuit.NodeID // topo order, excluding target
	rowOf  []int32          // node -> 1-based index into rows; 0 = not overlaid
	rowBuf []uint64
	rows   [][]uint64 // rows[0] = target substitute, rows[1+i] = cone[i]
	outSrc []int32    // per output: 0-based row index, -1 = unchanged (read vals)
}

// prepare computes the candidate overlay for target: BFS the fanout cone
// over pooled mark/stack scratch (circuit.TransitiveFanoutCone allocates a
// fresh slice per call), order it topologically by filtering the memoized
// order, and carve the overlay rows out of one backing buffer. Rows are
// not zeroed: every eval task writes its full word range for every row,
// and the shard set covers every word.
func (cs *verifyCandScratch) prepare(net *circuit.Network, order []circuit.NodeID,
	outputs []circuit.Output, target circuit.NodeID, slots, words int) {

	if len(cs.mark) < slots {
		cs.mark = make([]bool, slots)   //als:alloc-ok network grew; fresh zeroed scratch
		cs.rowOf = make([]int32, slots) //als:alloc-ok network grew; fresh zeroed scratch
	} else {
		cs.mark[cs.target] = false
		cs.rowOf[cs.target] = 0
		for _, id := range cs.cone {
			cs.mark[id] = false
			cs.rowOf[id] = 0
		}
	}
	cs.target = target

	cs.stack = append(cs.stack[:0], target) //als:alloc-ok amortised scratch grow
	cs.mark[target] = true
	for len(cs.stack) > 0 {
		id := cs.stack[len(cs.stack)-1]
		cs.stack = cs.stack[:len(cs.stack)-1]
		for _, f := range net.Fanouts(id) {
			if !cs.mark[f] {
				cs.mark[f] = true
				cs.stack = append(cs.stack, f) //als:alloc-ok amortised scratch grow
			}
		}
	}
	cs.cone = cs.cone[:0]
	for _, id := range order {
		if cs.mark[id] && id != target {
			cs.cone = append(cs.cone, id) //als:alloc-ok amortised scratch grow
		}
	}

	need := (len(cs.cone) + 1) * words
	if cap(cs.rowBuf) < need {
		cs.rowBuf = make([]uint64, need) //als:alloc-ok amortised scratch grow
	}
	cs.rowBuf = cs.rowBuf[:need]
	cs.rows = cs.rows[:0]
	for i := 0; i <= len(cs.cone); i++ {
		cs.rows = append(cs.rows, cs.rowBuf[i*words:(i+1)*words:(i+1)*words]) //als:alloc-ok amortised scratch grow
	}
	cs.rowOf[target] = 1
	for i, id := range cs.cone {
		cs.rowOf[id] = int32(i + 2)
	}

	cs.outSrc = cs.outSrc[:0]
	for _, out := range outputs {
		cs.outSrc = append(cs.outSrc, cs.rowOf[out.Node]-1) //als:alloc-ok amortised scratch grow
	}
}

// verifyWorkerScratch is per-worker evaluation scratch: fanin source
// resolution and the word buffer EvalWord consumes. Each pool worker runs
// one task at a time, so slot w is race-free.
type verifyWorkerScratch struct {
	srcs [][]uint64
	buf  []uint64
}

// verifyScratch is the flow-owned scratch of the parallel verifier. It
// persists across iterations so the steady state allocates nothing (pinned
// by TestParallelVerifySteadyStateAllocs).
type verifyScratch struct {
	lastM       int
	lastWorkers int
	shards      []par.Shard
	cands       []verifyCandScratch
	workers     []verifyWorkerScratch
	erWrong     []int64   // (candidate, shard) wrong-pattern counts
	aemSum      []float64 // (candidate, shard) error-magnitude sums
	uRows       [][]uint64
	valRows     [][]uint64
}

// verifyTopK re-evaluates the K feasible candidates that come first under
// better (Score desc, candLess asc) with exact cone resimulation, in that
// order, and returns the index of the best exactly-scored feasible
// candidate — the first maximum in that order — or -1 if none survives.
// The verified candidates' Delta and Score fields are overwritten with
// exact values and Exact is set; each batch-vs-exact pair is recorded as
// verification drift, split by the batch estimate's exactness
// certificate. With a multi-worker pool the (candidate, pattern-shard)
// grid fans out over the pool — bit-identical to the serial path (see the
// file comment); a nil or single-worker pool verifies serially via
// core.ExactDelta with per-candidate cancellation checks.
func verifyTopK(goCtx context.Context, net *circuit.Network, vals *sim.Values,
	st *emetric.State, cfg *Config, cands []Candidate, feasible []int,
	curErr float64, scratch *bitvec.Vec, vs *verifyScratch, pool *par.Pool,
	o *runObs, iter int) (int, error) {

	k := cfg.VerifyTopK
	if k > len(feasible) {
		k = len(feasible)
	}
	// Partial selection: move the top k under better, in order, to the
	// front of feasible. O(k·|feasible|) with k small; no sort.
	for i := 0; i < k; i++ {
		m := i
		for j := i + 1; j < len(feasible); j++ {
			if better(&cands[feasible[j]], &cands[feasible[m]]) {
				m = j
			}
		}
		feasible[i], feasible[m] = feasible[m], feasible[i]
	}
	if pool.Workers() > 1 {
		return verifyTopKParallel(goCtx, net, vals, st, cfg, cands, feasible[:k],
			curErr, vs, pool, o, iter)
	}
	best := -1
	for _, idx := range feasible[:k] {
		if err := goCtx.Err(); err != nil {
			return -1, err
		}
		c := &cands[idx]
		sub := c.substituteValue(vals, scratch)
		batchDelta := c.Delta
		if tl := cfg.Timeline; tl != nil {
			// Per-candidate span + pprof label set: CPU profile samples of
			// the exact recheck attribute to the candidate being verified.
			tlc := tl.Start("sasimi.verify_cand", obs.PhaseVerifyApply)
			pprof.Do(goCtx, pprof.Labels(
				"als_dispatch", "sasimi.verify_cand",
				"als_candidate", net.NameOf(c.Target),
			), func(context.Context) {
				c.Delta = core.ExactDelta(net, vals, c.Target, sub, st, cfg.Metric)
			})
			tl.End(tlc)
		} else {
			c.Delta = core.ExactDelta(net, vals, c.Target, sub, st, cfg.Metric)
		}
		c.Exact = true
		c.Score = flow.Score(c.AreaGain, c.Delta, vals.M)
		o.verified(c, batchDelta, c.Delta)
		if curErr+c.Delta > cfg.Threshold+1e-12 {
			continue
		}
		if best == -1 || c.Score > cands[best].Score {
			best = idx
		}
	}
	return best, nil
}

// verifyTopKParallel fans the (candidate, pattern-shard) grid of top out
// over the pool: a setup dispatch builds every candidate's cone overlay,
// an eval dispatch resimulates each overlay shard and computes the metric
// partial, and a driver-side reduction in candidate order reproduces the
// serial loop's decisions exactly.
func verifyTopKParallel(goCtx context.Context, net *circuit.Network, vals *sim.Values,
	st *emetric.State, cfg *Config, cands []Candidate, top []int, curErr float64,
	vs *verifyScratch, pool *par.Pool, o *runObs, iter int) (int, error) {

	k := len(top)
	if k == 0 {
		return -1, goCtx.Err()
	}
	m := vals.M
	words := bitvec.Words(m)
	lastWord := words - 1
	tail := bitvec.TailMask(m)
	// Resolve shared read-only structures driver-side so tasks never touch
	// the network's memoized caches concurrently.
	order := net.TopoOrder()
	outputs := net.Outputs()
	slots := net.NumSlots()
	numOut := len(outputs)

	if vs.lastM != m || vs.lastWorkers != pool.Workers() {
		// Shards is a pure function of (m, workers); cache the plan so the
		// steady state is allocation-free.
		vs.shards = par.Shards(m, pool.Workers())
		vs.lastM, vs.lastWorkers = m, pool.Workers()
	}
	s := len(vs.shards)

	for len(vs.cands) < k {
		vs.cands = append(vs.cands, verifyCandScratch{}) //als:alloc-ok amortised scratch grow
	}
	for len(vs.workers) < pool.Workers() {
		vs.workers = append(vs.workers, verifyWorkerScratch{}) //als:alloc-ok amortised scratch grow
	}
	vs.erWrong = growInt64(vs.erWrong, k*s)
	vs.aemSum = growFloat64(vs.aemSum, k*s)
	vs.uRows = growRows(vs.uRows, numOut)
	vs.valRows = growRows(vs.valRows, numOut)
	for oi, out := range outputs {
		vs.uRows[oi] = st.U.Row(oi).WordsSlice()
		vs.valRows[oi] = vals.Node(out.Node).WordsSlice()
	}

	pool.Label("sasimi.verify_topk", obs.PhaseVerifyApply)
	if err := pool.DoCtx(goCtx, k, func(_, ci int) {
		vs.cands[ci].prepare(net, order, outputs, cands[top[ci]].Target, slots, words)
	}); err != nil {
		return -1, err
	}
	pool.Label("sasimi.verify_topk", obs.PhaseVerifyApply)
	if err := pool.DoCtx(goCtx, k*s, func(w, ti int) {
		ci, si := ti/s, ti%s
		vs.evalShard(net, vals, &cands[top[ci]], &vs.cands[ci], vs.shards[si],
			&vs.workers[w], cfg.Metric, lastWord, tail, ci*s+si)
	}); err != nil {
		return -1, err
	}

	// Reduction: same candidate order, same overwrites, same screening and
	// argmax as the serial loop. before is loop-invariant in the serial
	// path (ExactDelta restores the value table), so hoisting it is exact.
	before := cfg.Metric.Value(st)
	best := -1
	for ci, idx := range top {
		c := &cands[idx]
		batchDelta := c.Delta
		var after float64
		if cfg.Metric == core.MetricAEM {
			total := 0.0
			for si := 0; si < s; si++ {
				total += vs.aemSum[ci*s+si]
			}
			after = total / float64(m)
		} else {
			var total int64
			for si := 0; si < s; si++ {
				total += vs.erWrong[ci*s+si]
			}
			after = float64(total) / float64(m)
		}
		c.Delta = after - before
		c.Exact = true
		c.Score = flow.Score(c.AreaGain, c.Delta, m)
		o.verified(c, batchDelta, c.Delta)
		if curErr+c.Delta > cfg.Threshold+1e-12 {
			continue
		}
		if best == -1 || c.Score > cands[best].Score {
			best = idx
		}
	}
	return best, nil
}

// evalShard is the hot kernel of the parallel verifier: materialise the
// candidate's substitute words for the shard, evaluate the cone overlay in
// topological order over the shard's word range, and fold the shard's
// metric partial into slot. Tail bits of the final word are masked exactly
// where the serial resimulation masks them, so no garbage bit can inflate
// a wrong-pattern count.
//
//als:allocfree
func (vs *verifyScratch) evalShard(net *circuit.Network, vals *sim.Values,
	c *Candidate, cs *verifyCandScratch, sh par.Shard, ws *verifyWorkerScratch,
	metric core.Metric, lastWord int, tail uint64, slot int) {

	hasTail := sh.W1-1 == lastWord

	// Target substitute words — the same bits substituteValue produces.
	dst := cs.rows[0]
	switch {
	case c.Const:
		fill := uint64(0)
		if c.ConstVal {
			fill = ^uint64(0)
		}
		for w := sh.W0; w < sh.W1; w++ {
			dst[w] = fill
		}
	case c.Inverted:
		sw := vals.Node(c.Sub).WordsSlice()
		for w := sh.W0; w < sh.W1; w++ {
			dst[w] = ^sw[w]
		}
	default:
		copy(dst[sh.W0:sh.W1], vals.Node(c.Sub).WordsSlice()[sh.W0:sh.W1])
	}
	if hasTail {
		dst[lastWord] &= tail
	}

	// Cone evaluation, word-local per shard: word w of a node depends only
	// on word w of its fanins, resolved through the overlay first.
	for i, id := range cs.cone {
		fanins := net.Fanins(id)
		if cap(ws.srcs) < len(fanins) {
			ws.srcs = make([][]uint64, len(fanins)) //als:alloc-ok amortised fanin-width grow
			ws.buf = make([]uint64, len(fanins))    //als:alloc-ok amortised fanin-width grow
		}
		srcs, buf := ws.srcs[:len(fanins)], ws.buf[:len(fanins)]
		for j, f := range fanins {
			if r := cs.rowOf[f]; r > 0 {
				srcs[j] = cs.rows[r-1]
			} else {
				srcs[j] = vals.Node(f).WordsSlice()
			}
		}
		row := cs.rows[i+1]
		kind := net.Kind(id)
		for w := sh.W0; w < sh.W1; w++ {
			for j := range srcs {
				buf[j] = srcs[j][w]
			}
			row[w] = kind.EvalWord(buf)
		}
		if hasTail {
			row[lastWord] &= tail
		}
	}

	// Metric partial. ER: popcount of the per-word OR over outputs of
	// U xor V — an exact integer. AEM: per wrong pattern (ascending, as
	// the serial AvgErrorMagnitude iterates), assemble golden/approx
	// output words with row 0 as LSB and sum |a-g| — integer-valued
	// contributions, exact under float addition below 2^53.
	var wrongCount int64
	aem := 0.0
	for w := sh.W0; w < sh.W1; w++ {
		var wrong uint64
		for oi, src := range cs.outSrc {
			var av uint64
			if src >= 0 {
				av = cs.rows[src][w]
			} else {
				av = vs.valRows[oi][w]
			}
			wrong |= vs.uRows[oi][w] ^ av
		}
		if metric != core.MetricAEM {
			wrongCount += int64(bits.OnesCount64(wrong))
			continue
		}
		for wb := wrong; wb != 0; wb &= wb - 1 {
			b := bits.TrailingZeros64(wb)
			var g, a uint64
			for oi, src := range cs.outSrc {
				g |= (vs.uRows[oi][w] >> b & 1) << oi
				if src >= 0 {
					a |= (cs.rows[src][w] >> b & 1) << oi
				} else {
					a |= (vs.valRows[oi][w] >> b & 1) << oi
				}
			}
			if a >= g {
				aem += float64(a - g)
			} else {
				aem += float64(g - a)
			}
		}
	}
	vs.erWrong[slot] = wrongCount
	vs.aemSum[slot] = aem
}

// growInt64 returns s resized to n zeroed elements, reusing capacity.
func growInt64(s []int64, n int) []int64 {
	for cap(s) < n {
		s = append(s[:cap(s)], 0) //als:alloc-ok amortised scratch grow
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// growFloat64 returns s resized to n zeroed elements, reusing capacity.
func growFloat64(s []float64, n int) []float64 {
	for cap(s) < n {
		s = append(s[:cap(s)], 0) //als:alloc-ok amortised scratch grow
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// growRows returns s resized to n elements, reusing capacity.
func growRows(s [][]uint64, n int) [][]uint64 {
	for cap(s) < n {
		s = append(s[:cap(s)], nil) //als:alloc-ok amortised scratch grow
	}
	return s[:n]
}
