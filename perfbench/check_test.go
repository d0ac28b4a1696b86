package main

import (
	"context"
	"io"
	"strings"
	"testing"

	"batchals"
	"batchals/internal/circuit"
)

// smallWorkload is a quick monolithic ER workload for exercising the
// output check.
var smallWorkload = &workload{
	name:      "rca8-er",
	metric:    batchals.ErrorRate,
	threshold: 0.05,
	m:         512,
	inputs:    1,
	build:     registry("rca8"),
}

func runSmall(t *testing.T, w *workload, seed int64) (*batchals.Network, flowOutput) {
	t.Helper()
	golden, err := w.build()
	if err != nil {
		t.Fatal(err)
	}
	out := runFlow(context.Background(), golden, batchals.NewFlow(golden, w.options(seed)))
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.NumIterations == 0 || out.res.FinalError == 0 {
		t.Fatalf("flow accepted nothing (iterations %d, error %g)", out.res.NumIterations, out.res.FinalError)
	}
	return golden, out
}

// withCycle returns a copy of n in which an output driver and one of its
// gate fanins feed each other.
func withCycle(t *testing.T, n *batchals.Network) *batchals.Network {
	t.Helper()
	c := n.Clone()
	for o := 0; o < c.NumOutputs(); o++ {
		g := c.OutputDriver(o)
		for _, f := range c.Fanins(g) {
			if k := c.Kind(f); k != circuit.KindInput && k != circuit.KindConst0 && k != circuit.KindConst1 {
				c.ReplaceFanin(f, c.Fanins(f)[0], g)
				return c
			}
		}
	}
	t.Fatal("no output driver with a gate fanin")
	return nil
}

func TestCheckCountsBadResultsAsFailed(t *testing.T) {
	w := smallWorkload
	golden, good := runSmall(t, w, 1)

	// Over budget: the same result checked against a budget below its error.
	tight := *w
	tight.threshold = good.res.FinalError / 2

	invalidRes := *good.res
	invalidRes.Approx = withCycle(t, good.res.Approx)

	wrongErr := *good.res
	wrongErr.FinalError += 1e-6

	wrongArea := *good.res
	wrongArea.FinalArea++

	cases := []struct {
		name string
		w    *workload
		out  flowOutput
		want string // substring of the error; "" for a pass
	}{
		{"good", w, good, ""},
		{"over budget", &tight, good, "over budget"},
		{"invalid netlist", w, flowOutput{res: &invalidRes}, "invalid"},
		{"final error mismatch", w, flowOutput{res: &wrongErr}, "FinalError"},
		{"area mismatch", w, flowOutput{res: &wrongArea}, "FinalArea"},
		{"run error", w, flowOutput{res: good.res, err: context.Canceled}, "run"},
	}
	res := newResult()
	for _, tc := range cases {
		err := checkFlow(tc.w, 1, golden, tc.out)
		res.count(io.Discard, tc.name, err)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected failure: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	if res.attempted != len(cases) || res.failed != len(cases)-1 {
		t.Fatalf("attempted %d failed %d, want %d and %d", res.attempted, res.failed, len(cases), len(cases)-1)
	}
}

func TestCheckPartitionedMergedError(t *testing.T) {
	w, err := workloadByName("tiled-part")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := w.build()
	if err != nil {
		t.Fatal(err)
	}
	// A partitioned run needs its report; a bogus merged error fails.
	res := &batchals.Result{Approx: golden.Clone(), FinalArea: batchals.Area(golden)}
	if err := checkFlow(w, 1, golden, flowOutput{res: res}); err == nil || !strings.Contains(err.Error(), "report") {
		t.Fatalf("missing report: got %v", err)
	}
	rep := &batchals.PartitionReport{MergedError: 0.5}
	if err := checkFlow(w, 1, golden, flowOutput{res: res, report: rep}); err == nil || !strings.Contains(err.Error(), "MergedError") {
		t.Fatalf("wrong merged error: got %v", err)
	}
	rep.MergedError = 0
	if err := checkFlow(w, 1, golden, flowOutput{res: res, report: rep}); err != nil {
		t.Fatalf("golden netlist as result: %v", err)
	}
}

func TestDigestMismatchFails(t *testing.T) {
	_, a := runSmall(t, smallWorkload, 1)
	_, b := runSmall(t, smallWorkload, 1)
	var first string
	for i, out := range []flowOutput{a, b} {
		if err := matchDigest(&first, digest(out.res)); err != nil {
			t.Fatalf("flow %d of one seed: %v", i+1, err)
		}
	}
	changed := *a.res
	changed.Approx = a.res.Approx.Clone()
	changed.Approx.SetName(changed.Approx.OutputDriver(0), "renamed")
	if err := matchDigest(&first, digest(&changed)); err == nil {
		t.Fatal("a different netlist matched the run's first digest")
	}
}

// TestSeedReachesTiledInput runs tiled-part on two run seeds: distinct
// digests show the seed reaches the flow's input.
func TestSeedReachesTiledInput(t *testing.T) {
	if testing.Short() {
		t.Skip("two full partitioned flows")
	}
	w, err := workloadByName("tiled-part")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := w.build()
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for _, seed := range []int64{1, 2} {
		ps := w.patternSeed(seed, 0)
		out := runFlow(context.Background(), golden, batchals.NewFlow(golden, w.options(ps)))
		if err := checkFlow(w, ps, golden, out); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		digests = append(digests, digest(out.res))
	}
	if digests[0] == digests[1] {
		t.Fatalf("seeds 1 and 2 gave the same digest %s", digests[0])
	}
}
