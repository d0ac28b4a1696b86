package sasimi

import (
	"math/bits"

	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/sim"
)

// gatherEnv bundles the read-only inputs of one iteration's candidate
// enumeration: the network, the value table, the timing/area model and the
// similarity screens. computeTarget enumerates one target's bucket; the
// gather cache calls it for every target on a full gather and for the dirty
// ones on an incremental update, and evalPair re-evaluates single pairs, so
// both paths make the same decision for every pair.
type gatherEnv struct {
	net      *circuit.Network
	vals     *sim.Values
	cfg      *Config
	arrival  []float64
	invDelay float64
	invArea  float64
	subs     []circuit.NodeID // admissible substitutes, ascending id

	m           int
	prefixWords int
	prefixBits  int
	prefixCap   float64
}

func newGatherEnv(net *circuit.Network, vals *sim.Values, cfg *Config) *gatherEnv {
	m := vals.M
	subs := make([]circuit.NodeID, 0, net.NumNodes())
	for _, id := range net.LiveNodes() {
		k := net.Kind(id)
		if k.IsGate() || k == circuit.KindInput {
			subs = append(subs, id)
		}
	}
	prefixWords := bitvec.Words(m)
	if prefixWords > 4 {
		prefixWords = 4
	}
	prefixBits := prefixWords * bitvec.WordBits
	if prefixBits > m {
		prefixBits = m
	}
	return &gatherEnv{
		net:         net,
		vals:        vals,
		cfg:         cfg,
		arrival:     cfg.Library.NodeArrival(net),
		invDelay:    cfg.Library.GateDelay(circuit.KindNot),
		invArea:     cfg.Library.GateArea(circuit.KindNot, 1),
		subs:        subs,
		m:           m,
		prefixWords: prefixWords,
		prefixBits:  prefixBits,
		prefixCap:   cfg.SimilarityCap*2 + 0.1,
	}
}

// targetData is the per-target gather state: the target's candidate bucket
// in canonical enumeration order (constants first, then pairs by ascending
// substitute id with plain before inverted), plus the MFFC-derived
// quantities and the dependency set the incremental cache probes to decide
// staleness.
type targetData struct {
	live     bool
	baseGain float64
	mffc     []circuit.NodeID
	// deps are the nodes whose records the MFFC computation read: the cone
	// nodes themselves (fanin lists) and their fanins (fanout counts and
	// output-driver status). If none of them was touched by an edit, the
	// MFFC, baseGain and every pairGain of this target are unchanged.
	deps   []circuit.NodeID
	bucket []Candidate
}

// computeTarget enumerates target t's full candidate bucket: for every
// potential substitute signal (including complemented signals and the two
// constants), keep the pairs that
//
//   - do not create a cycle (the substitute is not in t's transitive
//     fanout cone),
//   - do not increase the circuit delay (substitute arrival, plus an
//     inverter for complemented substitution, within t's arrival),
//   - reclaim positive area,
//   - and look almost-identical on the pattern set: difference probability
//     at most cfg.SimilarityCap.
//
// diff is an M-bit scratch vector owned by the caller. The dependency set
// is recorded for the incremental cache.
func (env *gatherEnv) computeTarget(t circuit.NodeID, diff *bitvec.Vec) targetData {
	td := targetData{live: true}
	td.mffc = env.net.MFFC(t)
	for _, id := range td.mffc {
		td.baseGain += env.cfg.Library.GateArea(env.net.Kind(id), len(env.net.Fanins(id)))
	}
	seen := make(map[circuit.NodeID]bool, 2*len(td.mffc))
	for _, id := range td.mffc {
		if !seen[id] {
			seen[id] = true
			td.deps = append(td.deps, id)
		}
	}
	for _, id := range td.mffc {
		for _, f := range env.net.Fanins(id) {
			if !seen[f] {
				seen[f] = true
				td.deps = append(td.deps, f)
			}
		}
	}
	if td.baseGain <= 0 {
		return td
	}

	tv := env.vals.Node(t)
	tfo := env.net.TransitiveFanoutCone(t)
	tArr := env.arrival[t]

	// Constant substitutions: always delay-safe and cycle-safe.
	ones := tv.Count()
	p1 := float64(ones) / float64(env.m)
	if p0 := 1 - p1; p0 <= env.cfg.SimilarityCap {
		td.bucket = append(td.bucket, Candidate{Target: t, Sub: circuit.InvalidNode,
			Const: true, ConstVal: true, DiffProb: p0, AreaGain: td.baseGain})
	}
	if p1 <= env.cfg.SimilarityCap {
		td.bucket = append(td.bucket, Candidate{Target: t, Sub: circuit.InvalidNode,
			Const: true, ConstVal: false, DiffProb: p1, AreaGain: td.baseGain})
	}

	for _, s := range env.subs {
		if s == t || tfo[s] {
			continue
		}
		td.bucket = env.evalPair(td.bucket, &td, t, s, tv, tArr, diff)
	}
	return td
}

// evalPair appends the admissible plain and inverted candidates of the
// pair (t, s) — the body of the enumeration's inner loop. The caller has
// already screened s == t and the cycle check (s in t's fanout cone).
func (env *gatherEnv) evalPair(out []Candidate, td *targetData, t, s circuit.NodeID, tv *bitvec.Vec, tArr float64, diff *bitvec.Vec) []Candidate {
	sv := env.vals.Node(s)
	// A cheap prefix check on the first few simulation words rejects
	// grossly dissimilar pairs before the full popcount. When the prefix
	// spans every word (M ≤ 256) its count already is the full one.
	d := 0
	if env.prefixWords > 0 {
		tw, sw := tv.WordsSlice(), sv.WordsSlice()
		for w := 0; w < env.prefixWords; w++ {
			d += bits.OnesCount64(tw[w] ^ sw[w])
		}
		frac := float64(d) / float64(env.prefixBits)
		if frac > env.prefixCap && (1-frac) > env.prefixCap {
			return out
		}
	}
	if env.prefixBits < env.m {
		diff.Xor(tv, sv)
		d = diff.Count()
	}
	dp := float64(d) / float64(env.m)

	if dp <= env.cfg.SimilarityCap && env.arrival[s] <= tArr {
		if g := env.pairGain(td, t, s); g > 0 {
			out = append(out, Candidate{Target: t, Sub: s, DiffProb: dp, AreaGain: g})
		}
	}
	if idp := 1 - dp; idp <= env.cfg.SimilarityCap && env.arrival[s]+env.invDelay <= tArr {
		if g := env.pairGain(td, t, s) - env.invArea; g > 0 {
			out = append(out, Candidate{Target: t, Sub: s, Inverted: true, DiffProb: idp, AreaGain: g})
		}
	}
	return out
}

// pairGain returns the exact area reclaimed when t is replaced by s: the
// base MFFC gain, or — for the uncommon substitute inside t's MFFC — the
// gain with s pinned alive.
func (env *gatherEnv) pairGain(td *targetData, t, s circuit.NodeID) float64 {
	in := false
	for _, id := range td.mffc {
		if id == s {
			in = true
			break
		}
	}
	if !in {
		return td.baseGain
	}
	g := 0.0
	for _, id := range env.net.MFFCExcluding(t, s) {
		g += env.cfg.Library.GateArea(env.net.Kind(id), len(env.net.Fanins(id)))
	}
	return g
}

// liveGateTargets returns the admissible substitution targets, ascending.
func liveGateTargets(net *circuit.Network) []circuit.NodeID {
	targets := make([]circuit.NodeID, 0, net.NumNodes())
	for _, id := range net.LiveNodes() {
		if net.Kind(id).IsGate() {
			targets = append(targets, id)
		}
	}
	return targets
}

// candLess is the flow's deterministic candidate order: most similar
// first, ties by larger gain, then by candidate identity (target,
// substitute, constant value, inversion). The trailing identity fields
// make this a strict total order over distinct candidates — no two
// different candidates ever compare equal (constants carry Sub ==
// circuit.InvalidNode, so they never tie with pairs on the same target).
func candLess(a, b *Candidate) bool {
	if a.DiffProb != b.DiffProb {
		return a.DiffProb < b.DiffProb
	}
	if a.AreaGain != b.AreaGain {
		return a.AreaGain > b.AreaGain
	}
	if a.Target != b.Target {
		return a.Target < b.Target
	}
	if a.Sub != b.Sub {
		return a.Sub < b.Sub
	}
	if a.ConstVal != b.ConstVal {
		return a.ConstVal
	}
	return !a.Inverted && b.Inverted
}

// better is the flow's selection order: higher Score first, ties by
// candLess. It is a strict total order over distinct candidates, so the
// argmax under it — and VerifyTopK's top K — is unique whatever order the
// candidates arrive in, and it equals the first maximum by Score of the
// candLess-sorted list.
func better(a, b *Candidate) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return candLess(a, b)
}
