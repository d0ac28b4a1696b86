package core

import (
	"sync/atomic"
	"time"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/obs"
	"batchals/internal/par"
	"batchals/internal/sim"
)

var (
	statCPMRefreshes = obs.Default().Counter("cpm_refreshes_total")
	statCPMRefreshNS = obs.Default().Counter("cpm_refresh_ns_total")
	statCPMDirtyRows = obs.Default().Counter("cpm_refresh_dirty_rows_total")
	statCPMCleanRows = obs.Default().Counter("cpm_refresh_clean_rows_total")
)

// Edit records one netlist surgery (a substitution plus its dead-logic
// sweep) in exactly the terms the incremental engine needs to bound its
// dirty regions. All sets refer to the post-edit network; Removed ids are
// no longer live.
type Edit struct {
	// Repl is the surviving node that took over the replaced node's fanouts
	// and output bindings (the substitute, or the fresh inverter/constant).
	Repl circuit.NodeID
	// Rewired are the live nodes whose fanin lists were redirected — the
	// former fanouts of the replaced node.
	Rewired []circuit.NodeID
	// Added are nodes created by the edit (e.g. the inverter of an
	// inverted substitution), in creation order.
	Added []circuit.NodeID
	// Removed are the nodes deleted by the edit's dead-logic sweep.
	Removed []circuit.NodeID
	// Boundary are the surviving nodes that lost at least one fanout edge
	// into Removed.
	Boundary []circuit.NodeID
}

// Seeds returns the resimulation seed set of the edit: the nodes whose
// value vectors can differ from their pre-edit contents — rewired gates
// (new fanin lists) and added nodes (no vector yet). Everything else that
// can change lies in their structural fanout cones.
func (ed *Edit) Seeds() []circuit.NodeID {
	seeds := make([]circuit.NodeID, 0, len(ed.Rewired)+len(ed.Added))
	seeds = append(seeds, ed.Rewired...)
	seeds = append(seeds, ed.Added...)
	return seeds
}

// RefreshStats reports the work a CPM.Refresh actually did, for the flow's
// dirty-fraction instrumentation.
type RefreshStats struct {
	// DirtyRows is the number of propagation rows recomputed.
	DirtyRows int
	// TotalRows is the number of live rows after the refresh; the dirty
	// fraction is DirtyRows/TotalRows.
	TotalRows int
	// Changed lists the recomputed rows whose content differs from before
	// the refresh, added rows included, in reverse topological order. The
	// dirty set is a conservative closure; on c880 about a third of it
	// changes.
	Changed []circuit.NodeID
	// Duration is the wall time of the refresh.
	Duration time.Duration
}

// Refresh incrementally updates the CPM in place after the network and its
// value table (which the CPM shares by pointer) have been mutated by one
// edit: ed describes the structural surgery and changed lists the nodes
// whose simulated value vectors differ from before (as reported by
// sim.ResimulateFrom). Only the dirty region is recomputed; the result is
// bit-identical to a from-scratch Build at any worker count.
//
// Dirty-set derivation. A row P[n] is a function of (a) n's output-driver
// base case, (b) n's fanout list, (c) the Boolean difference D[n→nf] of
// every fanout edge — itself a function of nf's kind, nf's fanin list and
// the simulated values of nf's *other* fanins — and (d) the rows P[nf].
// The head-dirty set H collects every node for which (a)–(c) may have
// changed:
//
//   - Repl: gained the replaced node's fanouts and output bindings (a, b);
//   - Added: rows do not exist yet (all);
//   - Boundary: lost fanout edges into the swept region (b);
//   - fanins(Rewired ∪ Added): a fanout of theirs has a new fanin list, so
//     the D of the edge into it changed (c) — for the fanins of Added this
//     also covers their grown fanout lists (b);
//   - fanins(fanouts(changed)): the "sibling rule" — when a node v's value
//     vector changed, D[x→g] of every edge into every fanout g of v is
//     evaluated at new cofactor values, for every fanin x of g (c).
//
// Dependency (d) is closed over by one reverse-topological backward pass:
// a row is dirty iff it is in H or any of its fanouts' rows is dirty. Rows
// outside the closure are untouched — by induction over reverse
// topological order, their base case, fanout list, every incident D and
// every fanout row are unchanged, so recomputation would reproduce them
// bit for bit.
//
// The recompute re-runs Build's reverse-topological fold restricted to
// dirty rows, from their base cases, reading clean fanout rows as-is. The
// pattern axis is sharded over the pool exactly as in BuildParallel; the
// fold is word-local, so every word receives the sequential builder's
// operation sequence regardless of worker count. Each shard compares the
// recomputed words with the old ones as it writes them back, so the
// result also names the rows whose content actually changed
// (RefreshStats.Changed).
//
// Lazy caches are invalidated per changed or removed row (AnyProp), the
// exactness certificate entirely (the structure changed), and the AEM
// column cache entirely (the error state changes every accept anyway).
// BuildTime is reset to the refresh duration, so flows that report
// per-iteration CPM cost see the incremental cost.
func (c *CPM) Refresh(ed Edit, changed []circuit.NodeID, pool *par.Pool) RefreshStats {
	start := time.Now()
	n := c.net
	// The edit may have allocated node slots past the tables' length.
	for len(c.p) < n.NumSlots() {
		c.p = append(c.p, nil)
	}
	if len(c.anyProp) < n.NumSlots() {
		grown := make([]atomic.Pointer[bitvec.Vec], n.NumSlots())
		for i := range c.anyProp {
			grown[i].Store(c.anyProp[i].Load())
		}
		c.anyProp = grown
	}
	for _, id := range ed.Removed {
		c.p[id] = nil
		c.anyProp[id].Store(nil)
	}

	// Head-dirty set H.
	head := make([]bool, n.NumSlots())
	mark := func(id circuit.NodeID) {
		if n.IsLive(id) {
			head[id] = true
		}
	}
	markFanins := func(id circuit.NodeID) {
		for _, f := range n.Fanins(id) {
			mark(f)
		}
	}
	mark(ed.Repl)
	for _, id := range ed.Rewired {
		mark(id)
		markFanins(id)
	}
	for _, id := range ed.Added {
		mark(id)
		markFanins(id)
	}
	for _, id := range ed.Boundary {
		mark(id)
	}
	for _, v := range changed {
		if !n.IsLive(v) {
			continue
		}
		for _, g := range n.Fanouts(v) {
			markFanins(g)
		}
	}

	// Backward closure over rows: P[n] depends on P[nf] for every fanout
	// nf, which sits later in topological order, so one reverse pass with
	// finalised fanout flags closes the set. dpos[id] is id's position in
	// dirtyList plus one (0: clean).
	order := n.TopoOrder()
	dpos := make([]int32, n.NumSlots())
	var dirtyList []circuit.NodeID // reverse topological order
	for idx := len(order) - 1; idx >= 0; idx-- {
		id := order[idx]
		d := head[id]
		if !d {
			for _, nf := range n.Fanouts(id) {
				if dpos[nf] != 0 {
					d = true
					break
				}
			}
		}
		if d {
			dirtyList = append(dirtyList, id)
			dpos[id] = int32(len(dirtyList))
		}
	}

	// Allocate the rows of added nodes; they count as changed. The other
	// dirty rows are overwritten in place by the fold.
	added := make([]bool, len(dirtyList))
	for i, id := range dirtyList {
		if c.p[id] == nil {
			row := make([]*bitvec.Vec, c.o)
			for o := 0; o < c.o; o++ {
				row[o] = bitvec.New(c.m)
			}
			c.p[id] = row
			added[i] = true
		}
	}
	// drives[i] lists the outputs dirtyList[i] drives (the base case).
	drives := make([][]int, len(dirtyList))
	for o, out := range n.Outputs() {
		if i := dpos[out.Node]; i != 0 {
			drives[i-1] = append(drives[i-1], o)
		}
	}

	// Restricted fold: Build's reverse-topological recursion over the dirty
	// rows only, pattern-sharded as in BuildParallel. dirtyList is already
	// in reverse topological order, so a dirty fanout row is final before
	// any dirty fanin row reads it; clean fanout rows are correct as-is.
	// Each shard folds a row's words into its own scratch first and then
	// writes back, noting whether any word differs from the old content:
	// that is how Refresh tells the rows that changed from the ones that
	// were merely recomputed, without keeping a copy of the old rows.
	fanouts := make([][]circuit.NodeID, len(dirtyList))
	for i, id := range dirtyList {
		fanouts[i] = uniqueFanouts(n, id)
	}
	vals := c.vals
	lastWord := bitvec.Words(c.m) - 1
	tail := bitvec.TailMask(c.m)
	shards := par.Shards(c.m, pool.Workers())
	for len(c.foldScratch) < len(shards) {
		c.foldScratch = append(c.foldScratch, foldScratch{})
	}
	pool.Label("cpm.refresh", obs.PhaseCPMBuild)
	pool.Do(len(shards), func(_, si int) {
		sh := shards[si]
		span := sh.W1 - sh.W0
		fs := &c.foldScratch[si]
		fs.reset(c.o, span, len(dirtyList))
		d := fs.d[:span]
		rows := fs.rows
		var one, zero []uint64
		for i, id := range dirtyList {
			prow := c.p[id]
			clear(rows)
			for _, o := range drives[i] {
				ro := rows[o*span : (o+1)*span]
				for k := range ro {
					ro[k] = ^uint64(0)
				}
				if sh.W1-1 == lastWord {
					ro[span-1] = tail
				}
			}
			for _, nf := range fanouts[i] {
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
					d[w-sh.W0] = dw
					dAny = dAny || dw != 0
				}
				if !dAny {
					continue
				}
				frow := c.p[nf]
				for o := 0; o < c.o; o++ {
					if !frow[o].AnyWords(sh.W0, sh.W1) {
						continue
					}
					fo := frow[o].WordsSlice()[sh.W0:sh.W1]
					ro := rows[o*span : (o+1)*span]
					for k := range ro {
						ro[k] |= fo[k] & d[k]
					}
				}
			}
			changed := false
			for o := 0; o < c.o; o++ {
				po := prow[o].WordsSlice()[sh.W0:sh.W1]
				ro := rows[o*span : (o+1)*span]
				for k, x := range ro {
					if po[k] != x {
						po[k] = x
						changed = true
					}
				}
			}
			fs.changed[i] = changed
		}
	})

	// Collect the rows whose content changed in any shard. Cache
	// invalidation: only they can have stale AnyProp entries (removed rows
	// were cleared above); the certificate and AEM columns are whole-CPM
	// artifacts, dropped entirely.
	var changedRows []circuit.NodeID
	for i, id := range dirtyList {
		ch := added[i]
		for si := range shards {
			ch = ch || c.foldScratch[si].changed[i]
		}
		if ch {
			changedRows = append(changedRows, id)
			c.anyProp[id].Store(nil)
		}
	}
	c.cert.Store(nil)
	c.aemFor = nil

	live := 0
	for _, row := range c.p {
		if row != nil {
			live++
		}
	}
	c.buildTime = time.Since(start)
	statCPMRefreshes.Inc()
	statCPMRefreshNS.Add(int64(c.buildTime))
	statCPMDirtyRows.Add(int64(len(dirtyList)))
	statCPMCleanRows.Add(int64(live - len(dirtyList)))
	return RefreshStats{DirtyRows: len(dirtyList), TotalRows: live, Changed: changedRows, Duration: c.buildTime}
}

// foldScratch is one refresh shard's reusable fold state, kept on the CPM
// across refreshes: the shard's words of the row being folded (output
// planes back to back), one Boolean difference, and the per-dirty-row
// changed flags.
type foldScratch struct {
	rows, d []uint64
	changed []bool
}

func (fs *foldScratch) reset(outputs, span, dirty int) {
	if n := outputs * span; cap(fs.rows) < n {
		fs.rows = make([]uint64, n)
	}
	fs.rows = fs.rows[:outputs*span]
	if cap(fs.d) < span {
		fs.d = make([]uint64, span)
	}
	if cap(fs.changed) < dirty {
		fs.changed = make([]bool, dirty)
	}
	fs.changed = fs.changed[:dirty]
}

// Values returns the simulation value table the CPM was built against —
// the incremental engine mutates it in place between Refreshes.
func (c *CPM) Values() *sim.Values { return c.vals }
