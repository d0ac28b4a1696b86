package core

import (
	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/emetric"
	"batchals/internal/par"
	"batchals/internal/sim"
)

// Engine owns the per-circuit estimation state of an iterative ALS flow —
// the approximate network, its simulated value table, the error-metric
// state against a fixed golden output matrix, and (lazily) the CPM — and
// keeps all of it consistent *incrementally* across accepted edits. It
// replaces the rebuild-from-scratch sequence the flow used to run every
// iteration (full simulate, new emetric.State, full CPM build) with
// cone-scoped resimulation and dirty-region CPM refresh, while remaining
// bit-identical to that sequence at any worker count: resimulation
// recomputes exactly the gate functions a full simulation would, the error
// state is recopied from the (identical) output driver vectors, and
// Refresh reproduces Build's fold on the dirty region (see Refresh for the
// derivation).
//
// Protocol: construct once per flow run, call Apply after every accepted
// network edit, and read CPM() whenever the estimator needs the matrix —
// the engine decides between a full parallel build (first call, or after
// edits too tangled to refresh) and an incremental refresh. After a
// refresh, Changes says which rows and which pattern words of the error
// state changed since the previous read. The Net, Vals
// and St fields are the live objects; callers may read them freely but
// must route all mutation through Apply.
type Engine struct {
	Net  *circuit.Network
	Vals *sim.Values
	St   *emetric.State

	golden *bitvec.Matrix
	pool   *par.Pool

	cpm            *CPM
	pendingEdit    Edit
	pendingChanged []circuit.NodeID
	hasPending     bool
	needFull       bool

	lastRefresh RefreshStats
	lastFull    bool
	lastResim   int
	lastChanged int

	// Error-state delta for Changes: prev holds W and WrongAny as of the
	// last CPM read (copied by the first Apply after it, into buffers
	// reused across iterations), stWords the pattern words on which the
	// state changed since, changes what the latest CPM read reports.
	prev      *emetric.State
	stWords   []int
	changes   Changes
	changesOK bool
}

// Changes describes what changed between the two latest CPM reads of an
// Engine: the rows of the matrix whose content changed, and the pattern
// words on which the error state changed, with the earlier state's W and
// WrongAny. Outside Words the two states agree word for word, so an exact
// count over the pattern words of a quantity that depends on the state
// only word-locally can be carried from the earlier read by recomputing
// Words alone — provided its CPM row and change mask are unchanged.
type Changes struct {
	// Rows are the CPM rows whose content changed (RefreshStats.Changed).
	Rows []circuit.NodeID
	// Words are the pattern words, ascending, on which some W row (and so
	// possibly WrongAny) differs from the earlier read.
	Words []int
	// Prev is the error state as of the earlier read. Only its W and
	// WrongAny are set.
	Prev *emetric.State
}

// Rows, Words and Prev of a Changes are engine-owned buffers, valid until
// the next Apply.

// NewEngine fully simulates the network on the pattern set and builds the
// error state against the golden output matrix. The CPM is not built until
// the first CPM() call, so estimators that never need it pay nothing.
func NewEngine(n *circuit.Network, golden *bitvec.Matrix, p *sim.Patterns, pool *par.Pool) *Engine {
	vals := sim.SimulateParallel(n, p, pool)
	return &Engine{
		Net:    n,
		Vals:   vals,
		St:     emetric.NewState(golden, sim.OutputMatrix(n, vals)),
		golden: golden,
		pool:   pool,
	}
}

// Apply folds one accepted network edit into the engine's state: the
// structural fanout cones of the edit's seeds are resimulated in place,
// removed nodes' value vectors are released, the error state is refreshed
// from the new output driver vectors, and the edit is queued for the next
// CPM() call's dirty-region refresh. It returns the nodes resimulated and
// the subset whose value vectors actually changed (deterministic at any
// worker count).
func (e *Engine) Apply(ed Edit) (resimmed, changed []circuit.NodeID) {
	resimmed, changed = sim.ResimulateFrom(e.Net, e.Vals, ed.Seeds(), e.pool)
	for _, id := range ed.Removed {
		e.Vals.Drop(id)
	}
	for o, out := range e.Net.Outputs() {
		e.St.V.Row(o).CopyFrom(e.Vals.Node(out.Node))
	}
	// The first edit after a CPM read keeps that read's error state, so
	// the next read can report the words on which it changed. After a
	// second edit the next read rebuilds, and nothing is carried.
	snap := e.cpm != nil && !e.hasPending && !e.needFull
	if snap {
		e.snapshotState()
	}
	e.St.Refresh()
	if snap {
		e.diffState()
	}
	e.lastResim = len(resimmed)
	e.lastChanged = len(changed)
	if e.cpm != nil {
		if e.hasPending {
			// Two edits accumulated without a CPM read between them;
			// Refresh handles one edit, so fall back to a full rebuild.
			e.needFull = true
			e.hasPending = false
			e.pendingChanged = nil
		} else {
			e.pendingEdit = ed
			e.pendingChanged = changed
			e.hasPending = true
		}
	}
	return resimmed, changed
}

// CPM returns the change propagation matrix for the engine's current
// state, building it on first use and refreshing only the dirty region
// after Apply calls. The returned matrix is bit-identical to
// BuildParallel(Net, Vals, pool) at any worker count.
func (e *Engine) CPM() *CPM {
	if e.cpm == nil || e.needFull {
		e.cpm = BuildParallel(e.Net, e.Vals, e.pool)
		e.needFull = false
		e.hasPending = false
		e.pendingChanged = nil
		e.changesOK = false
		live := 0
		for _, row := range e.cpm.p {
			if row != nil {
				live++
			}
		}
		e.lastRefresh = RefreshStats{DirtyRows: live, TotalRows: live, Duration: e.cpm.buildTime}
		e.lastFull = true
		return e.cpm
	}
	e.changes = Changes{Prev: e.prev}
	if e.hasPending {
		e.lastRefresh = e.cpm.Refresh(e.pendingEdit, e.pendingChanged, e.pool)
		e.lastFull = false
		e.hasPending = false
		e.pendingChanged = nil
		e.changes.Rows = e.lastRefresh.Changed
		e.changes.Words = e.stWords
	}
	e.changesOK = true
	return e.cpm
}

// Changes reports what changed between the two latest CPM() calls. ok is
// false when the latest call built the matrix from scratch (the first
// call, or two Applies without a read between them): then there is no
// earlier read to carry from.
func (e *Engine) Changes() (ch Changes, ok bool) { return e.changes, e.changesOK }

// snapshotState copies the error state's W and WrongAny into e.prev.
func (e *Engine) snapshotState() {
	if e.prev == nil {
		e.prev = &emetric.State{
			M:        e.St.M,
			W:        bitvec.NewMatrix(e.St.W.Rows(), e.St.M),
			WrongAny: bitvec.New(e.St.M),
		}
	}
	for o := 0; o < e.St.W.Rows(); o++ {
		e.prev.W.Row(o).CopyFrom(e.St.W.Row(o))
	}
	e.prev.WrongAny.CopyFrom(e.St.WrongAny)
}

// diffState lists the pattern words on which W differs from e.prev.
// WrongAny is the OR of the W rows, so it can only differ there too.
func (e *Engine) diffState() {
	e.stWords = e.stWords[:0]
	rows := e.St.W.Rows()
	for w := 0; w < bitvec.Words(e.St.M); w++ {
		for o := 0; o < rows; o++ {
			if e.St.W.Row(o).WordsSlice()[w] != e.prev.W.Row(o).WordsSlice()[w] {
				e.stWords = append(e.stWords, w)
				break
			}
		}
	}
}

// LastRefresh reports the work of the most recent CPM() that touched the
// matrix, and whether it was a full build (true) or a dirty-region refresh
// (false). For a full build DirtyRows == TotalRows.
func (e *Engine) LastRefresh() (RefreshStats, bool) { return e.lastRefresh, e.lastFull }

// LastResim reports the node counts of the most recent Apply: nodes
// re-evaluated and nodes whose value vectors changed.
func (e *Engine) LastResim() (resimmed, changed int) { return e.lastResim, e.lastChanged }
