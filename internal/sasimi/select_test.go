package sasimi

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"batchals/internal/bench"
	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/core"
	"batchals/internal/emetric"
	"batchals/internal/flow"
	"batchals/internal/par"
	"batchals/internal/sim"
)

// gatherAll runs a full gather of net on pool (nil: serial) and returns
// the candidate list in enumeration order.
func gatherAll(t testing.TB, net *circuit.Network, vals *sim.Values, cfg *Config, pool *par.Pool) []Candidate {
	t.Helper()
	env := newGatherEnv(net, vals, cfg)
	var gc gatherCache
	cands, err := gc.full(context.Background(), env, pool)
	if err != nil {
		t.Fatal(err)
	}
	return cands
}

// refBest is the reference selection: the first candidate of maximal
// Score among the feasible ones, in a candLess-sorted copy — the order
// in which the flow once kept its whole candidate list.
func refBest(cands []Candidate, curErr, threshold float64) (Candidate, bool) {
	sorted := append([]Candidate(nil), cands...)
	sort.SliceStable(sorted, func(i, j int) bool { return candLess(&sorted[i], &sorted[j]) })
	best := -1
	for i := range sorted {
		if curErr+sorted[i].Delta > threshold+1e-12 {
			continue
		}
		if best == -1 || sorted[i].Score > sorted[best].Score {
			best = i
		}
	}
	if best == -1 {
		return Candidate{}, false
	}
	return sorted[best], true
}

// tieEstimator charges every change injected at a target the same
// per-target delta, drawn from two values, so that candidates of equal
// gain tie exactly on Score within a target and across targets.
type tieEstimator struct{ byTarget map[circuit.NodeID]float64 }

func (e *tieEstimator) prepare(*iterContext) {}

func (e *tieEstimator) delta(target circuit.NodeID, _, _ *bitvec.Vec) float64 {
	return e.byTarget[target]
}

func (e *tieEstimator) exactFor(circuit.NodeID) bool { return false }

func selectFixture(t *testing.T) (*circuit.Network, *sim.Values, *emetric.State, *Config) {
	t.Helper()
	net := bench.RCA(8)
	cfg := &Config{Budget: flow.Budget{Metric: core.MetricER, Threshold: 0.02, NumPatterns: 1500, Seed: 8}}
	cfg.fillDefaults()
	patterns := sim.RandomPatterns(net.NumInputs(), cfg.NumPatterns, cfg.Seed)
	vals := sim.Simulate(net, patterns)
	st := emetric.NewState(sim.OutputMatrix(net, vals), sim.OutputMatrix(net, vals))
	return net, vals, st, cfg
}

// TestArgmaxMatchesSortedFirstMax pins the single-pass selection: over
// random permutations of the candidate list, both scoring loops return
// the candidate a stable candLess sort followed by a first-maximum scan
// returns, including when Scores tie exactly.
func TestArgmaxMatchesSortedFirstMax(t *testing.T) {
	net, vals, st, cfg := selectFixture(t)
	base := gatherAll(t, net, vals, cfg, nil)
	if len(base) < 20 {
		t.Fatalf("only %d candidates on rca8", len(base))
	}
	rng := rand.New(rand.NewSource(5))
	scratch := bitvec.New(vals.M)
	change := bitvec.New(vals.M)

	t.Run("ties", func(t *testing.T) {
		est := &tieEstimator{byTarget: map[circuit.NodeID]float64{}}
		for i := range base {
			if _, ok := est.byTarget[base[i].Target]; !ok {
				est.byTarget[base[i].Target] = []float64{0.004, 0.008}[rng.Intn(2)]
			}
		}
		ties := 0
		for trial := 0; trial < 50; trial++ {
			cands := append([]Candidate(nil), base...)
			rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			best, _ := scoreCandidates(est, cands, vals, 0, 1, scratch, change, nil, 1)
			want, ok := refBest(cands, 0, 1)
			if !ok || best < 0 {
				t.Fatalf("trial %d: no selection (best %d)", trial, best)
			}
			if cands[best] != want {
				t.Fatalf("trial %d: argmax %+v, sorted first max %+v", trial, cands[best], want)
			}
			n := 0
			for i := range cands {
				if cands[i].Score == want.Score {
					n++
				}
			}
			if n > 1 {
				ties++
			}
		}
		if ties == 0 {
			t.Fatal("no trial had a tied maximum; the check is vacuous")
		}
	})

	t.Run("sharded", func(t *testing.T) {
		est := newEstimator(EstimatorBatch)
		ctx := &iterContext{net: net, vals: vals, st: st, metric: cfg.Metric}
		est.prepare(ctx)
		pool := par.NewPool(4)
		defer pool.Close()
		pctx := &iterContext{net: net, vals: vals, st: st, metric: cfg.Metric, cpm: ctx.cpm, pool: pool}
		for trial := 0; trial < 20; trial++ {
			cands := append([]Candidate(nil), base...)
			rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			best, _ := scoreIteration(pctx, est, cands, nil, 0, cfg.Threshold, scratch, change, pool, nil, 1)
			want, ok := refBest(cands, 0, cfg.Threshold)
			if !ok {
				if best != -1 {
					t.Fatalf("trial %d: selected %d, reference selects nothing", trial, best)
				}
				continue
			}
			if best < 0 || cands[best] != want {
				t.Fatalf("trial %d: argmax %d, sorted first max %+v", trial, best, want)
			}
		}
	})
}

// TestVerifyTopKTieOrder pins VerifyTopK's selection on a feasible set
// larger than pdqsort's insertion-sort cutoff (12) with exact Score ties:
// the verified candidates are the (Score desc, candLess asc) prefix, in
// that order, at one worker and at four.
func TestVerifyTopKTieOrder(t *testing.T) {
	const k = 4
	net, vals, st, cfg := selectFixture(t)
	cfg.Threshold = 1
	cfg.VerifyTopK = k
	base := gatherAll(t, net, vals, cfg, nil)
	if len(base) < 20 {
		t.Fatalf("only %d candidates on rca8", len(base))
	}
	rng := rand.New(rand.NewSource(9))
	for i := range base {
		base[i].Delta = 0.001
		base[i].Score = []float64{1, 2}[rng.Intn(2)]
	}
	rng.Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })

	ref := append([]Candidate(nil), base...)
	sort.SliceStable(ref, func(i, j int) bool {
		if ref[i].Score != ref[j].Score {
			return ref[i].Score > ref[j].Score
		}
		return candLess(&ref[i], &ref[j])
	})
	// Keep the fixture honest: the cut at k falls inside a tie wider than
	// the insertion-sort cutoff.
	if n := countScore(ref, ref[0].Score); n < 13 || ref[k].Score != ref[k-1].Score {
		t.Fatalf("fixture's leading tie has %d candidates; need 13 across the top-%d cut", n, k)
	}

	for _, workers := range []int{1, 4} {
		cands := append([]Candidate(nil), base...)
		feasible := make([]int, len(cands))
		for i := range feasible {
			feasible[i] = i
		}
		pool := par.NewPool(workers)
		var vs verifyScratch
		_, err := verifyTopK(context.Background(), net, vals, st, cfg, cands, feasible, 0,
			bitvec.New(vals.M), &vs, pool, nil, 1)
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		verified := 0
		for i := range cands {
			if cands[i].Exact {
				verified++
			}
		}
		if verified != k {
			t.Fatalf("workers=%d: %d candidates verified, want %d", workers, verified, k)
		}
		for i := 0; i < k; i++ {
			got := cands[feasible[i]]
			if got.Target != ref[i].Target || got.Sub != ref[i].Sub ||
				got.Inverted != ref[i].Inverted || got.Const != ref[i].Const || got.ConstVal != ref[i].ConstVal {
				t.Fatalf("workers=%d: top-%d slot %d is %+v, want %+v", workers, k, i, got, ref[i])
			}
			if !got.Exact {
				t.Fatalf("workers=%d: top-%d slot %d was not verified", workers, k, i)
			}
		}
	}
}

func countScore(cands []Candidate, s float64) int {
	n := 0
	for i := range cands {
		if cands[i].Score == s {
			n++
		}
	}
	return n
}
