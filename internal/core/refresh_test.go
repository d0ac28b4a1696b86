package core

import (
	"reflect"
	"testing"

	"batchals/internal/bench"
	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/emetric"
	"batchals/internal/par"
	"batchals/internal/sim"
)

// pickSubstitution finds a realistic substitution edit on the network:
// a live gate target with at least one admissible substitute (a live
// gate/input outside the target's transitive fanout cone). skip skips that
// many admissible (target, substitute) pairs, so successive calls pick
// different edits.
func pickSubstitution(n *circuit.Network, skip int) (t, s circuit.NodeID, ok bool) {
	for _, tt := range n.LiveNodes() {
		if !n.Kind(tt).IsGate() {
			continue
		}
		tfo := n.TransitiveFanoutCone(tt)
		for _, ss := range n.LiveNodes() {
			k := n.Kind(ss)
			if ss == tt || tfo[ss] || (!k.IsGate() && k != circuit.KindInput) {
				continue
			}
			if skip > 0 {
				skip--
				continue
			}
			return tt, ss, true
		}
	}
	return 0, 0, false
}

// applyEdit performs the substitution surgery exactly as the sasimi flow
// does and returns the structural Edit record plus the value-changed set
// from in-place cone resimulation.
func applyEdit(n *circuit.Network, vals *sim.Values, t, s circuit.NodeID, inverted bool, pool *par.Pool) (Edit, []circuit.NodeID) {
	var ed Edit
	repl := s
	if inverted {
		repl = n.AddGate(circuit.KindNot, s)
		ed.Added = []circuit.NodeID{repl}
	}
	ed.Repl = repl
	ed.Rewired = append([]circuit.NodeID(nil), n.Fanouts(t)...)
	n.ReplaceNode(t, repl)
	ed.Removed, ed.Boundary = n.SweepFromCollect(t)
	_, changed := sim.ResimulateFrom(n, vals, ed.Seeds(), pool)
	for _, id := range ed.Removed {
		vals.Drop(id)
	}
	return ed, changed
}

func compareCPMs(t *testing.T, label string, n *circuit.Network, got, want *CPM) {
	t.Helper()
	if got.NumOutputs() != want.NumOutputs() || got.M() != want.M() {
		t.Fatalf("%s: shape mismatch", label)
	}
	for _, id := range n.LiveNodes() {
		for o := 0; o < want.NumOutputs(); o++ {
			if !got.Prop(id, o).Equal(want.Prop(id, o)) {
				t.Fatalf("%s: P[%d][%d] diverges after refresh", label, id, o)
			}
		}
		if !got.AnyProp(id).Equal(want.AnyProp(id)) {
			t.Fatalf("%s: AnyProp(%d) diverges after refresh", label, id)
		}
		if got.ExactFor(id) != want.ExactFor(id) {
			t.Fatalf("%s: ExactFor(%d) diverges after refresh", label, id)
		}
	}
}

// TestRefreshMatchesRebuild pins the dirty-region CPM refresh against a
// from-scratch rebuild across a chain of realistic substitution edits
// (plain and inverted) at several worker counts.
func TestRefreshMatchesRebuild(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, benchName := range []string{"rca8", "cmp8", "dec4"} {
			n, err := bench.ByName(benchName)
			if err != nil {
				t.Fatal(err)
			}
			pool := par.NewPool(workers)
			patterns := sim.RandomPatterns(n.NumInputs(), 512, 5)
			vals := sim.SimulateParallel(n, patterns, pool)
			cpm := BuildParallel(n, vals, pool)

			for edit := 0; edit < 3; edit++ {
				tt, ss, ok := pickSubstitution(n, edit)
				if !ok {
					break
				}
				ed, changed := applyEdit(n, vals, tt, ss, edit%2 == 1, pool)
				stats := cpm.Refresh(ed, changed, pool)
				if stats.TotalRows == 0 || stats.DirtyRows == 0 || stats.DirtyRows > stats.TotalRows {
					t.Fatalf("%s workers=%d edit %d: implausible refresh stats %+v", benchName, workers, edit, stats)
				}
				fresh := BuildParallel(n, vals, pool)
				compareCPMs(t, benchName, n, cpm, fresh)
			}
			pool.Close()
		}
	}
}

// TestRefreshInvalidatesLazyCaches warms every lazy CPM cache (AnyProp
// rows, the exactness certificate, the AEM column memo), applies an edit
// plus Refresh, and checks the caches against a cold rebuild: a stale
// surviving cache entry would make the derived quantities diverge.
func TestRefreshInvalidatesLazyCaches(t *testing.T) {
	n, err := bench.ByName("rca8")
	if err != nil {
		t.Fatal(err)
	}
	golden := n.Clone()
	pool := par.NewPool(2)
	defer pool.Close()
	patterns := sim.RandomPatterns(n.NumInputs(), 512, 9)
	goldenVals := sim.SimulateParallel(golden, patterns, pool)
	goldenOut := sim.OutputMatrix(golden, goldenVals)
	vals := sim.SimulateParallel(n, patterns, pool)
	cpm := BuildParallel(n, vals, pool)

	// Warm AnyProp for every live node, the certificate, and the AEM memo.
	cpm.EnsureAnyProp(n.LiveNodes())
	st := emetric.NewState(goldenOut, sim.OutputMatrix(n, vals))
	cpm.EnsureAEMColumns(st)
	for _, id := range n.LiveNodes() {
		cpm.ExactFor(id)
	}

	tt, ss, ok := pickSubstitution(n, 0)
	if !ok {
		t.Fatal("no substitution available on rca8")
	}
	ed, changed := applyEdit(n, vals, tt, ss, false, pool)
	cpm.Refresh(ed, changed, pool)
	st = emetric.NewState(goldenOut, sim.OutputMatrix(n, vals))
	fresh := BuildParallel(n, vals, pool)

	compareCPMs(t, "rca8", n, cpm, fresh)

	// Derived quantities must come out identical too — they read through
	// the lazy caches, so a stale entry shows up here.
	chg := bitvec.New(vals.M)
	for i := 0; i < vals.M; i += 3 {
		chg.Set(i, true)
	}
	for _, id := range n.LiveNodes() {
		if dGot, dWant := cpm.DeltaER(id, chg, st), fresh.DeltaER(id, chg, st); dGot != dWant {
			t.Fatalf("DeltaER(%d) %v after refresh, want %v", id, dGot, dWant)
		}
		if dGot, dWant := cpm.DeltaAEM(id, chg, st), fresh.DeltaAEM(id, chg, st); dGot != dWant {
			t.Fatalf("DeltaAEM(%d) %v after refresh, want %v", id, dGot, dWant)
		}
	}
}

// TestEngineMatchesScratchState pins the Engine protocol: after NewEngine
// and a chain of Apply calls, the engine's value table, error state and CPM
// are bit-identical to recomputing everything from scratch on the edited
// network.
func TestEngineMatchesScratchState(t *testing.T) {
	n, err := bench.ByName("cmp8")
	if err != nil {
		t.Fatal(err)
	}
	golden := n.Clone()
	pool := par.NewPool(2)
	defer pool.Close()
	patterns := sim.RandomPatterns(n.NumInputs(), 768, 3)
	goldenVals := sim.SimulateParallel(golden, patterns, pool)
	goldenOut := sim.OutputMatrix(golden, goldenVals)

	eng := NewEngine(n, goldenOut, patterns, pool)
	if eng.CPM() == nil {
		t.Fatal("engine CPM is nil")
	}

	for edit := 0; edit < 3; edit++ {
		tt, ss, ok := pickSubstitution(n, edit)
		if !ok {
			break
		}
		var ed Edit
		ed.Repl = ss
		ed.Rewired = append([]circuit.NodeID(nil), n.Fanouts(tt)...)
		n.ReplaceNode(tt, ss)
		ed.Removed, ed.Boundary = n.SweepFromCollect(tt)
		resimmed, _ := eng.Apply(ed)
		if len(resimmed) == 0 && len(ed.Rewired) > 0 {
			t.Fatalf("edit %d: Apply resimulated nothing", edit)
		}

		scratchVals := sim.SimulateParallel(n, patterns, pool)
		for _, id := range n.LiveNodes() {
			if !eng.Vals.Node(id).Equal(scratchVals.Node(id)) {
				t.Fatalf("edit %d: engine value of node %d diverges from scratch simulation", edit, id)
			}
		}
		scratchSt := emetric.NewState(goldenOut, sim.OutputMatrix(n, scratchVals))
		if eng.St.ErrorRate() != scratchSt.ErrorRate() {
			t.Fatalf("edit %d: engine ER %v, scratch %v", edit, eng.St.ErrorRate(), scratchSt.ErrorRate())
		}
		if eng.St.AvgErrorMagnitude() != scratchSt.AvgErrorMagnitude() {
			t.Fatalf("edit %d: engine AEM %v, scratch %v", edit, eng.St.AvgErrorMagnitude(), scratchSt.AvgErrorMagnitude())
		}
		compareCPMs(t, "engine", n, eng.CPM(), BuildParallel(n, scratchVals, pool))
		if stats, full := eng.LastRefresh(); full || stats.DirtyRows == 0 {
			t.Fatalf("edit %d: expected a dirty-region refresh, got full=%v stats=%+v", edit, full, stats)
		}
	}
}

// TestEngineChangesAreExact pins what Engine.Changes reports after a
// refresh against a snapshot taken before the edit: Rows are exactly the
// live rows whose propagation vectors differ (or are new), Words exactly
// the pattern words on which some W row differs, and Prev the pre-edit W
// and WrongAny. A full rebuild reports no changes to carry.
func TestEngineChangesAreExact(t *testing.T) {
	for _, workers := range []int{1, 4} {
		n, err := bench.ByName("cmp8")
		if err != nil {
			t.Fatal(err)
		}
		golden := n.Clone()
		pool := par.NewPool(workers)
		patterns := sim.RandomPatterns(n.NumInputs(), 1000, 9)
		goldenOut := sim.OutputMatrix(golden, sim.SimulateParallel(golden, patterns, pool))
		eng := NewEngine(n, goldenOut, patterns, pool)
		eng.CPM()
		if _, ok := eng.Changes(); ok {
			t.Fatal("first (full) build reports changes to carry")
		}
		carried, partial, fewer := 0, 0, 0
		for edit := 0; edit < 4; edit++ {
			tt, ss, ok := pickCloseSubstitution(n, eng.Vals)
			if !ok {
				break
			}
			oldRows := map[circuit.NodeID][]*bitvec.Vec{}
			for _, id := range n.LiveNodes() {
				for o := 0; o < eng.CPM().NumOutputs(); o++ {
					oldRows[id] = append(oldRows[id], eng.CPM().Prop(id, o).Clone())
				}
			}
			oldW := eng.St.W.Clone()
			oldWA := eng.St.WrongAny.Clone()

			var ed Edit
			repl := ss
			if edit%2 == 1 {
				repl = n.AddGate(circuit.KindNot, ss)
				ed.Added = []circuit.NodeID{repl}
			}
			ed.Repl = repl
			ed.Rewired = append([]circuit.NodeID(nil), n.Fanouts(tt)...)
			n.ReplaceNode(tt, repl)
			ed.Removed, ed.Boundary = n.SweepFromCollect(tt)
			eng.Apply(ed)
			cpm := eng.CPM()
			ch, ok := eng.Changes()
			if !ok {
				t.Fatalf("w=%d edit %d: refresh reports nothing to carry", workers, edit)
			}

			wantRows := map[circuit.NodeID]bool{}
			for _, id := range n.LiveNodes() {
				old, had := oldRows[id]
				for o := 0; o < cpm.NumOutputs(); o++ {
					if !had || !cpm.Prop(id, o).Equal(old[o]) {
						wantRows[id] = true
					}
				}
			}
			gotRows := map[circuit.NodeID]bool{}
			for _, id := range ch.Rows {
				gotRows[id] = true
			}
			if !reflect.DeepEqual(gotRows, wantRows) {
				t.Fatalf("w=%d edit %d: changed rows %v, want %v", workers, edit, ch.Rows, wantRows)
			}
			if stats, _ := eng.LastRefresh(); len(ch.Rows) < stats.DirtyRows {
				fewer++
			}

			var wantWords []int
			for w := 0; w < bitvec.Words(patterns.NumPatterns()); w++ {
				for o := 0; o < oldW.Rows(); o++ {
					if oldW.Row(o).WordsSlice()[w] != eng.St.W.Row(o).WordsSlice()[w] {
						wantWords = append(wantWords, w)
						break
					}
				}
			}
			if !reflect.DeepEqual(append([]int{}, ch.Words...), append([]int{}, wantWords...)) {
				t.Fatalf("w=%d edit %d: changed words %v, want %v", workers, edit, ch.Words, wantWords)
			}
			for o := 0; o < oldW.Rows(); o++ {
				if !ch.Prev.W.Row(o).Equal(oldW.Row(o)) {
					t.Fatalf("w=%d edit %d: Prev.W row %d is not the pre-edit state", workers, edit, o)
				}
			}
			if !ch.Prev.WrongAny.Equal(oldWA) {
				t.Fatalf("w=%d edit %d: Prev.WrongAny is not the pre-edit state", workers, edit)
			}
			if len(ch.Words) > 0 && len(ch.Words) < bitvec.Words(patterns.NumPatterns()) {
				partial++
			}
			carried++
		}
		if carried == 0 || partial == 0 || fewer == 0 {
			t.Fatalf("w=%d: %d edits checked, %d changed the state on only some words, %d changed fewer rows than were dirty",
				workers, carried, partial, fewer)
		}
		pool.Close()
	}
}

// pickCloseSubstitution returns the admissible substitution (a live gate
// target and a live gate or input outside its transitive fanout cone)
// whose substitute differs from the target on the fewest patterns, but on
// some.
func pickCloseSubstitution(n *circuit.Network, vals *sim.Values) (t, s circuit.NodeID, ok bool) {
	best := -1
	d := bitvec.New(vals.M)
	for _, tt := range n.LiveNodes() {
		if !n.Kind(tt).IsGate() {
			continue
		}
		tfo := n.TransitiveFanoutCone(tt)
		for _, ss := range n.LiveNodes() {
			if k := n.Kind(ss); ss == tt || tfo[ss] || (!k.IsGate() && k != circuit.KindInput) {
				continue
			}
			d.Xor(vals.Node(tt), vals.Node(ss))
			if c := d.Count(); c > 0 && (best < 0 || c < best) {
				t, s, ok, best = tt, ss, true, c
			}
		}
	}
	return t, s, ok
}
