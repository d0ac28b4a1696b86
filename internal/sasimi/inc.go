package sasimi

import (
	"context"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/obs"
	"batchals/internal/par"
)

// gatherCache carries candidate-enumeration state across iterations of the
// incremental engine. Candidate gathering is the flow's single most
// expensive phase, yet an accepted substitution invalidates only a small
// region of it: a cached target bucket stays bit-identical unless the
// target's value vector, arrival time or MFFC reads changed, and within a
// clean bucket only the pairs whose substitute lies in the edit's dirty
// region need re-evaluation. The cache exploits exactly that:
//
//   - per target it keeps the canonical-order bucket plus the dependency
//     set deps (MFFC cone nodes and their fanins — the records the MFFC
//     walk reads, see targetData);
//   - after an edit it derives targetDirty = value-changed ∪ added ∪
//     arrival-changed ∪ {t : deps(t) ∩ probe ≠ ∅}, where probe is the set
//     of nodes whose structural records the edit touched (Repl, Rewired,
//     Removed, Boundary, fanins of Added);
//   - subDirty is the structural fanout cone of the rewired/added seeds
//     plus every arrival-changed node: any pair whose admissibility
//     (cycle screen, delay screen) or difference probability could have
//     moved has its substitute in this set, because new target→substitute
//     paths run through a rewired edge, lost paths ran through the swept
//     region, and changed values lie in the seeds' fanout cones;
//   - dirty targets recompute in full, clean targets drop the candidates
//     whose substitute is dirty or removed and merge in freshly evaluated
//     pairs for the dirty substitutes, preserving canonical bucket order;
//   - every bucket entry carries the exact ΔER counts of its last batch
//     score (Candidate.er, see carry): keepScores copies them back from
//     the scored list, and a re-evaluated entry inherits the counts of
//     the old entry for the same substitution.
//
// The candidate list handed to the flow is the concatenation of the live
// targets' buckets in ascending target order, copied into one slice the
// cache owns and reuses (scoring writes Delta/Score/Exact into it in place,
// so the buckets stay pristine). Every bucket is built in canonical order
// by target-owned tasks, so the list is identical at any worker count, and
// identical between the incremental update and a full gather — pinned by
// the differential suite and the Config.verifyIncremental cross-check. The
// flow selects from it by an argmax under better, which needs no sorted
// order.
type gatherCache struct {
	data        []targetData // indexed by node slot
	prevArrival []float64
	list        []Candidate      // the concatenated buckets handed to the flow
	targets     []circuit.NodeID // the targets list was collected from

	// Dispatch scratch: the LPT bin-packer and its inputs (work items as
	// target indices plus their estimated resim costs), and one reusable
	// gatherScratch per pool worker.
	planner par.Planner
	items   []int
	costs   []float64
	scratch []*gatherScratch
}

// workerScratch returns one gather scratch per pool worker, growing the
// set on first use (m is fixed for the life of a flow).
func (gc *gatherCache) workerScratch(workers, m int) []*gatherScratch {
	for len(gc.scratch) < workers {
		gc.scratch = append(gc.scratch, &gatherScratch{diff: bitvec.New(m)})
	}
	return gc.scratch
}

// full performs a complete gather, populating every target's cached bucket
// and dependency set, and returns the candidate list. It serves the first
// incremental iteration, every iteration of IncrementalOff, the
// verifyIncremental cross-check and EstimateAll. Targets are bin-packed
// (uniform cost — nothing is known about the cones yet) and each bin's
// buckets land in per-target slots owned by the target index, so the
// fan-out is deterministic at any worker count and bin shape. A cancelled
// context aborts the fan-out and returns the context's error; the cache is
// then partially populated and must be discarded.
func (gc *gatherCache) full(goCtx context.Context, env *gatherEnv, pool *par.Pool) ([]Candidate, error) {
	gc.data = make([]targetData, env.net.NumSlots())
	targets := liveGateTargets(env.net)
	gc.costs = gc.costs[:0]
	for range targets {
		gc.costs = append(gc.costs, 1)
	}
	bins := gc.planner.Plan(gc.costs, par.PlanBins(len(targets), pool.Workers()))
	scratch := gc.workerScratch(pool.Workers(), env.m)
	pool.Label("sasimi.gather", obs.PhaseEstimate)
	if err := pool.DoCtx(goCtx, len(bins), func(w, bi int) {
		for _, ti := range bins[bi] {
			t := targets[ti]
			gc.data[t] = env.computeTarget(t, scratch[w])
		}
	}); err != nil {
		return nil, err
	}
	gc.prevArrival = append(gc.prevArrival[:0], env.arrival...)
	return gc.collect(targets), nil
}

// update refreshes the cache after one accepted edit and returns the new
// candidate list. ed is the structural record of the edit and changed the
// nodes whose value vectors differ (from core.Engine.Apply). A cancelled
// context aborts the fan-out and returns the context's error; the cache is
// then partially updated and must be discarded.
func (gc *gatherCache) update(goCtx context.Context, env *gatherEnv, ed *core.Edit, changed []circuit.NodeID, pool *par.Pool) ([]Candidate, error) {
	gc.keepScores()
	n := env.net
	slots := n.NumSlots()
	for len(gc.data) < slots {
		gc.data = append(gc.data, targetData{})
	}
	for len(gc.prevArrival) < slots {
		gc.prevArrival = append(gc.prevArrival, 0)
	}
	for _, id := range ed.Removed {
		gc.data[id] = targetData{}
	}

	// probe: nodes whose structural records (fanin list, fanout count,
	// output-driver status) the edit touched. A clean target's MFFC walk
	// read none of them, so its gain figures are unchanged.
	probe := make([]bool, slots)
	probe[ed.Repl] = true
	for _, id := range ed.Rewired {
		probe[id] = true
	}
	for _, id := range ed.Removed {
		probe[id] = true
	}
	for _, id := range ed.Boundary {
		probe[id] = true
	}
	for _, id := range ed.Added {
		probe[id] = true
		for _, f := range n.Fanins(id) {
			probe[f] = true
		}
	}

	changedVal := make([]bool, slots)
	for _, id := range changed {
		changedVal[id] = true
	}

	arrivalChanged := make([]bool, slots)
	for _, id := range n.LiveNodes() {
		if env.arrival[id] != gc.prevArrival[id] {
			arrivalChanged[id] = true
		}
	}

	// subDirty: structural fanout cone of the edit's seeds, plus every
	// arrival-changed node.
	subDirty := make([]bool, slots)
	var stack []circuit.NodeID
	push := func(id circuit.NodeID) {
		if n.IsLive(id) && !subDirty[id] {
			subDirty[id] = true
			stack = append(stack, id)
		}
	}
	for _, id := range ed.Rewired {
		push(id)
	}
	for _, id := range ed.Added {
		push(id)
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fo := range n.Fanouts(x) {
			push(fo)
		}
	}
	for _, id := range n.LiveNodes() {
		if arrivalChanged[id] {
			subDirty[id] = true
		}
	}

	// drop marks substitutes whose cached pairs must leave clean buckets:
	// the dirty ones (re-evaluated below) and the removed ones (gone).
	drop := make([]bool, slots)
	copy(drop, subDirty)
	for _, id := range ed.Removed {
		drop[id] = true
	}

	// The dirty substitutes that are admissible, ascending.
	var dirtySubs []circuit.NodeID
	for _, id := range n.LiveNodes() {
		if subDirty[id] {
			if k := n.Kind(id); k.IsGate() || k == circuit.KindInput {
				dirtySubs = append(dirtySubs, id)
			}
		}
	}

	// Classify targets driver-side so the bin-packer can see each one's
	// estimated resim cost: a dirty target re-enumerates every substitute
	// (≈|subs| pair evaluations plus the MFFC walk), a clean one touches
	// only the dirty substitutes. The old per-target fan-out fed both
	// through identical tasks, and the few dirty cones straggled behind a
	// long tail of near-free clean tasks — the measured 12% worker idle.
	// LPT bins bound the load spread by one item's cost, and Overcommit
	// bins per worker leave queued bins for any worker that finishes early
	// to steal.
	targets := liveGateTargets(n)
	dirtyT := make([]bool, slots)
	gc.items = gc.items[:0]
	gc.costs = gc.costs[:0]
	dirtyCost := float64(len(env.subs)) + 8
	cleanCost := float64(len(dirtySubs)) + 1
	for ti, t := range targets {
		td := &gc.data[t]
		if !td.live || changedVal[t] || arrivalChanged[t] || depsTouched(td.deps, probe) {
			dirtyT[t] = true
			gc.items = append(gc.items, ti)
			gc.costs = append(gc.costs, dirtyCost)
		} else if td.baseGain > 0 {
			// Always enqueued, even with no dirty substitutes: drop marks
			// removed substitutes whose pairs must leave the bucket.
			gc.items = append(gc.items, ti)
			gc.costs = append(gc.costs, cleanCost)
		}
		// Clean targets without a bucket: no work, provably unchanged.
	}
	bins := gc.planner.Plan(gc.costs, par.PlanBins(len(gc.items), pool.Workers()))
	scratch := gc.workerScratch(pool.Workers(), env.m)
	pool.Label("sasimi.gather_inc", obs.PhaseEstimate)
	err := pool.DoCtx(goCtx, len(bins), func(w, bi int) {
		ws := scratch[w]
		for _, ii := range bins[bi] {
			ti := gc.items[ii]
			t := targets[ti]
			if dirtyT[t] {
				old := gc.data[t].bucket
				gc.data[t] = env.computeTarget(t, ws)
				inheritScores(old, gc.data[t].bucket)
				continue
			}
			td := &gc.data[t]
			tv := env.vals.Node(t)
			tArr := env.arrival[t]
			var fresh []Candidate
			for _, s := range dirtySubs {
				if s != t {
					fresh = env.evalPair(fresh, td, t, s, tv, tArr, ws)
				}
			}
			inheritScores(td.bucket, fresh)
			td.bucket = mergeBucket(td.bucket, fresh, drop)
		}
	})
	if err != nil {
		return nil, err
	}

	gc.prevArrival = append(gc.prevArrival[:0], env.arrival...)
	return gc.collect(targets), nil
}

// collect copies the buckets of targets, ascending, into the cache-owned
// candidate list and returns it. The list is valid until the next gather.
func (gc *gatherCache) collect(targets []circuit.NodeID) []Candidate {
	gc.list = gc.list[:0]
	for _, t := range targets {
		gc.list = append(gc.list, gc.data[t].bucket...)
	}
	gc.targets = targets
	return gc.list
}

// keepScores copies the exact ΔER counts that scoring wrote into the
// previous list back into the buckets it was collected from, so that the
// entries a clean bucket keeps carry them into the next list. Entries
// evaluated afresh start unscored.
func (gc *gatherCache) keepScores() {
	k := 0
	for _, t := range gc.targets {
		b := gc.data[t].bucket
		for j := range b {
			b[j].er = gc.list[k].er
			k++
		}
	}
}

func depsTouched(deps []circuit.NodeID, probe []bool) bool {
	for _, d := range deps {
		if probe[d] {
			return true
		}
	}
	return false
}

// inheritScores gives each freshly evaluated entry the carried ΔER counts
// of the old entry for the same substitution, if there is one; both lists
// are in canonical bucket order. The counts depend only on the target's
// CPM row, the change mask and the error state, not on why the gather
// re-evaluated the pair, and the scorer checks all three itself (see
// carry.stale), so a re-evaluated pair keeps them.
func inheritScores(old, fresh []Candidate) {
	i := 0
	for j := range fresh {
		f := &fresh[j]
		for i < len(old) && bucketBefore(&old[i], f) {
			i++
		}
		if i < len(old) && !bucketBefore(f, &old[i]) {
			f.er = old[i].er
		}
	}
}

// bucketBefore is the canonical bucket order of one target's candidates:
// constants first (1 before 0), then pairs in pairBefore order.
func bucketBefore(a, b *Candidate) bool {
	if a.Const != b.Const {
		return a.Const
	}
	if a.Const {
		return a.ConstVal && !b.ConstVal
	}
	return pairBefore(a, b)
}

// mergeBucket rebuilds a clean target's bucket: retained constants first
// (they depend only on the target's value and base gain, both unchanged),
// then the ordered merge of the retained pairs — minus dropped substitutes
// — with the freshly evaluated ones. Both inputs are ordered by ascending
// substitute with plain before inverted, and their substitute sets are
// disjoint, so the merge reproduces the canonical enumeration order.
func mergeBucket(old, fresh []Candidate, drop []bool) []Candidate {
	out := make([]Candidate, 0, len(old)+len(fresh))
	i := 0
	for i < len(old) && old[i].Const {
		out = append(out, old[i])
		i++
	}
	j := 0
	for i < len(old) || j < len(fresh) {
		if i < len(old) && drop[old[i].Sub] {
			i++
			continue
		}
		switch {
		case i >= len(old):
			out = append(out, fresh[j])
			j++
		case j >= len(fresh):
			out = append(out, old[i])
			i++
		case pairBefore(&old[i], &fresh[j]):
			out = append(out, old[i])
			i++
		default:
			out = append(out, fresh[j])
			j++
		}
	}
	return out
}

// pairBefore orders pair candidates by the enumeration's inner-loop order.
func pairBefore(a, b *Candidate) bool {
	if a.Sub != b.Sub {
		return a.Sub < b.Sub
	}
	return !a.Inverted && b.Inverted
}
