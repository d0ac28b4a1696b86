package sasimi

import (
	"context"
	"math"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/emetric"
	"batchals/internal/flow"
	"batchals/internal/obs"
	"batchals/internal/par"
)

// Always-on scoring counters on the default registry: how many batch
// estimates were computed over every pattern word, and how many were
// carried from the previous iteration by recomputing only the words an
// accept changed (see carry).
var (
	statScoreFull    = obs.Default().Counter("sasimi_score_full_total")
	statScoreCarried = obs.Default().Counter("sasimi_score_carried_total")
)

// erCounts are a candidate's exact ΔER pattern counts as of the iteration
// that last scored it: inc newly-wrong and dec fully-corrected patterns
// (see core.CPM.DeltaERCounts). ok is false for a candidate never scored.
// The counts are at most M; carry is off above math.MaxInt32 patterns.
type erCounts struct {
	inc, dec int32
	ok       bool
}

// carry is what one iteration's batch scoring may reuse from the
// previous one. A candidate's counts stay exact from one iteration to the
// next except on the pattern words where the error state changed, as long
// as neither its target's CPM row nor its change mask (target value XOR
// substitute value) changed; core.CPM.CarryER recomputes just those
// words. Everything else is scored over every word.
type carry struct {
	words []int          // pattern words on which W or WrongAny changed
	prev  *emetric.State // the error state the carried counts were taken under
	// rowChanged marks, by node slot, the targets whose CPM row changed;
	// valChanged the nodes whose value vector changed.
	rowChanged []bool
	valChanged []bool
	// marked lists the slots set in the two mark arrays, to clear them
	// for the next iteration.
	marked []circuit.NodeID
}

// next returns the carry for an iteration of an incremental ER flow whose
// previous iteration accepted an edit that changed the value vectors of
// changed; nil when there is nothing to carry from (the engine rebuilt
// its CPM) or when the state changed on so many words that rescoring
// every word is as cheap.
func (cr *carry) next(eng *core.Engine, changed []circuit.NodeID, slots int) *carry {
	for _, id := range cr.marked {
		cr.rowChanged[id] = false
		cr.valChanged[id] = false
	}
	cr.marked = cr.marked[:0]
	ch, ok := eng.Changes()
	if !ok || 2*len(ch.Words) >= bitvec.Words(eng.St.M) || eng.St.M > math.MaxInt32 {
		return nil
	}
	for len(cr.rowChanged) < slots {
		cr.rowChanged = append(cr.rowChanged, false)
		cr.valChanged = append(cr.valChanged, false)
	}
	for _, id := range ch.Rows {
		cr.rowChanged[id] = true
	}
	for _, id := range changed {
		cr.valChanged[id] = true
	}
	cr.marked = append(append(cr.marked, ch.Rows...), changed...)
	cr.words, cr.prev = ch.Words, ch.Prev
	return cr
}

// stale reports whether c's carried counts cannot be carried: it was
// never scored, its target's row changed, or its change mask did.
func (cr *carry) stale(c *Candidate) bool {
	return cr == nil || !c.er.ok || cr.rowChanged[c.Target] || cr.valChanged[c.Target] ||
		(!c.Const && cr.valChanged[c.Sub])
}

// scoreIteration dispatches candidate scoring: the batch estimator scores
// with batchEstimator.score at every worker count; the full estimator (it
// mutates the value table during cone resimulation) and the local one (a
// popcount) run the sequential scoreCandidates.
func scoreIteration(ctx *iterContext, est estimator, cands []Candidate, cr *carry,
	curErr, threshold float64, scratch, change *bitvec.Vec, pool *par.Pool,
	o *runObs, iter int) (int, []int) {

	if be, ok := est.(*batchEstimator); ok {
		return be.score(ctx, cands, cr, curErr, threshold, pool, o, iter)
	}
	return scoreCandidates(est, cands, ctx.vals, curErr, threshold, scratch, change, o, iter)
}

// score is the batch estimator's scoring: it fills Delta and Score of
// every candidate and returns the best feasible one and the feasible
// indices, exactly as scoreCandidates would with this estimator.
//
// The candidates are sharded over the pool in contiguous runs of about
// equal cost, and one worker computes each candidate's exact integers —
// ER counts, carried (see carry) or recounted over every word, or the
// AEM magnitude sum — so every result is independent of the worker count
// and schedule. A single worker runs the same code as one shard. The
// selection loop then runs sequentially in candidate order.
//
// The ER counts are stored in the candidates (Candidate.er), from where
// the gather cache carries them to the next iteration. AEM is always
// scored over every word: an accept changes most pattern words' output
// values there, so a carried path would not pay.
func (e *batchEstimator) score(ctx *iterContext, cands []Candidate, cr *carry,
	curErr, threshold float64, pool *par.Pool, o *runObs, iter int) (int, []int) {

	cpm, st, vals := ctx.cpm, ctx.st, ctx.vals
	m := vals.M
	words := bitvec.Words(m)
	aem := ctx.metric == core.MetricAEM
	sc := &e.scratch

	// Warm the CPM's shared lazy caches from this goroutine before the
	// fan-out: AnyProp fills are atomic (racing fills would merely waste
	// work), the AEM column memo is plain and must be sequenced here. The
	// list is grouped by target, so skipping repeats of the previous
	// target lists each one once.
	if aem {
		cpm.EnsureAEMColumns(st)
		cr = nil
	} else {
		sc.targets = sc.targets[:0]
		for i := range cands {
			if t := cands[i].Target; len(sc.targets) == 0 || sc.targets[len(sc.targets)-1] != t {
				sc.targets = append(sc.targets, t)
			}
		}
		cpm.EnsureAnyProp(sc.targets)
	}

	// Contiguous bins of about equal cost: a full score reads every word,
	// a carried one only the changed words.
	carriedCost := words
	if cr != nil {
		carriedCost = len(cr.words) + 1
	}
	cost := func(c *Candidate) int {
		if cr.stale(c) {
			return words
		}
		return carriedCost
	}
	full := 0
	for i := range cands {
		if cr.stale(&cands[i]) {
			full++
		}
	}
	total := full*words + (len(cands)-full)*carriedCost
	statScoreFull.Add(int64(full))
	statScoreCarried.Add(int64(len(cands) - full))
	bins := 1
	if pool.Workers() > 1 {
		bins = par.PlanBins(len(cands), pool.Workers())
	}
	sc.bounds = append(sc.bounds[:0], 0)
	for b, i, sum := 1, 0, 0; b <= bins; b++ {
		limit := (total*b + bins - 1) / bins
		for i < len(cands) && (b == bins || sum+cost(&cands[i]) <= limit) {
			sum += cost(&cands[i])
			i++
		}
		sc.bounds = append(sc.bounds, i)
	}
	for len(sc.chg) < pool.Workers() {
		sc.chg = append(sc.chg, make([]uint64, words))
	}

	goCtx := ctx.goCtx
	if goCtx == nil {
		goCtx = context.Background()
	}
	last := words - 1
	tail := bitvec.TailMask(m)
	pool.Label("sasimi.score", obs.PhaseEstimate)
	err := pool.DoCtx(goCtx, bins, func(wk, b int) {
		chg := sc.chg[wk]
		for ci := sc.bounds[b]; ci < sc.bounds[b+1]; ci++ {
			c := &cands[ci]
			tw := vals.Node(c.Target).WordsSlice()
			var sw []uint64
			if !c.Const {
				sw = vals.Node(c.Sub).WordsSlice()
			}
			if !cr.stale(c) {
				for _, w := range cr.words {
					chg[w] = c.changeWord(tw, sw, w, last, tail)
				}
				inc, dec := cpm.CarryER(c.Target, chg, st, cr.prev, cr.words, int64(c.er.inc), int64(c.er.dec))
				c.er = erCounts{inc: int32(inc), dec: int32(dec), ok: true}
				c.Delta = (float64(inc) - float64(dec)) / float64(m)
				continue
			}
			for w := range chg {
				chg[w] = c.changeWord(tw, sw, w, last, tail)
			}
			if aem {
				c.Delta = cpm.DeltaAEMPartial(c.Target, chg, st, 0, words) / float64(m)
				continue
			}
			inc, dec := cpm.DeltaERPartial(c.Target, chg, st, 0, words)
			c.er = erCounts{inc: int32(inc), dec: int32(dec), ok: true}
			c.Delta = (float64(inc) - float64(dec)) / float64(m)
		}
	})
	if err != nil {
		// Cancelled mid-scoring: the partial results are abandoned and the
		// flow returns at its next iteration-boundary check.
		return -1, nil
	}

	best := -1
	feasible := sc.feasible[:0]
	for i := range cands {
		c := &cands[i]
		c.Score = flow.Score(c.AreaGain, c.Delta, m)
		o.candidateScored(iter, c)
		if curErr+c.Delta > threshold+1e-12 {
			continue
		}
		feasible = append(feasible, i)
		if best == -1 || better(c, &cands[best]) {
			best = i
		}
	}
	sc.feasible = feasible
	return best, feasible
}

// scoreScratch is the batch estimator's scoring state reused across
// iterations: the target list for the AnyProp warm-up, the bin bounds,
// one change-mask buffer per pool worker, and the feasible index list
// (valid until the next scoring).
type scoreScratch struct {
	targets  []circuit.NodeID
	bounds   []int
	chg      [][]uint64
	feasible []int
}

// changeWord returns word w of c's change mask: the target's value XOR
// the substitute's (tw and sw are their value words; sw is unused for a
// constant), with the constant and inverted cases tail-masked on the last
// word exactly as substituteValue's Fill and Not produce them.
func (c *Candidate) changeWord(tw, sw []uint64, w, last int, tail uint64) uint64 {
	var sub uint64
	switch {
	case c.Const:
		if c.ConstVal {
			sub = ^uint64(0)
			if w == last {
				sub = tail
			}
		}
	case c.Inverted:
		sub = ^sw[w]
		if w == last {
			sub &= tail
		}
	default:
		sub = sw[w]
	}
	return tw[w] ^ sub
}
