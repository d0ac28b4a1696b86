package batchals

// Overhead pin for the causal span recorder: attaching a timeline to the
// parallel estimation engine must cost at most 2% of
// BenchmarkParallelEstimate's workload (design constraint #1 of
// internal/obs/timeline). Two halves:
//
//   - allocations: recording must add zero allocations per estimation
//     pass beyond the recorder's own pre-sized rings (checked exactly
//     with testing.AllocsPerRun — allocation counts are deterministic,
//     so this is the strong cross-machine signal);
//   - time: median-of-pairs wall-clock comparison, interleaved so
//     frequency scaling and cache state hit both sides equally. Skipped
//     under -race (detector instrumentation dwarfs the recorder) and in
//     -short mode.

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"batchals/internal/bench"
	"batchals/internal/flow"
	"batchals/internal/obs/timeline"
	"batchals/internal/sasimi"
)

const tlOverheadPatterns = 2048

func tlEstimateOnce(tb testing.TB, golden *Network, rec *timeline.Recorder) {
	cands, err := sasimi.EstimateAll(golden, golden.Clone(), sasimi.Config{
		Budget: flow.Budget{
			Metric:      ErrorRate,
			Threshold:   0.05,
			NumPatterns: tlOverheadPatterns,
			Seed:        1,
		},
		Workers:  2,
		Timeline: rec,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if len(cands) == 0 {
		tb.Fatal("no candidates on c880")
	}
}

// BenchmarkTimelineOverhead reports the recorder's cost side by side:
// compare the recorder=off and recorder=on ns/op in the bench baseline.
func BenchmarkTimelineOverhead(b *testing.B) {
	golden, err := bench.ByName("c880")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("recorder=off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tlEstimateOnce(b, golden, nil)
		}
	})
	b.Run("recorder=on", func(b *testing.B) {
		rec := timeline.NewRecorder(3, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.Reset() // a full ring would drop spans and flatter the cost
			tlEstimateOnce(b, golden, rec)
		}
		b.ReportMetric(float64(rec.SpanCount()), "spans")
	})
}

// TestTimelineOverheadAllocations pins the allocation half exactly: one
// estimation pass with a recorder attached may allocate at most a handful
// of objects more than one without (the pool's one-time lane arrays);
// per-span recording itself allocates nothing.
func TestTimelineOverheadAllocations(t *testing.T) {
	golden, err := bench.ByName("c880")
	if err != nil {
		t.Fatal(err)
	}
	rec := timeline.NewRecorder(3, 0)
	// Warm both paths so lazy caches don't skew the counts.
	tlEstimateOnce(t, golden, nil)
	tlEstimateOnce(t, golden, rec)

	without := testing.AllocsPerRun(3, func() {
		tlEstimateOnce(t, golden, nil)
	})
	rec.Reset()
	with := testing.AllocsPerRun(3, func() {
		rec.Reset()
		tlEstimateOnce(t, golden, rec)
	})
	// The traced pass re-uses the recorder; the only extra allocations
	// permitted are the pool's AttachTimeline arrays and label context
	// (one-time, O(workers)). 64 is far below one allocation per span.
	const maxExtra = 64
	if with > without+maxExtra {
		t.Errorf("recorder adds %.0f allocations per estimation pass (%.0f -> %.0f), want <= %d",
			with-without, without, with, maxExtra)
	}
	if rec.SpanCount() == 0 {
		t.Fatal("recorder attached but recorded nothing; allocation pin is vacuous")
	}
}

// TestTimelineOverheadOnParallelEstimate pins the timing half: the median
// traced/untraced ratio over 101 interleaved pairs must stay within the 2%
// budget (plus a small absolute guard for sub-millisecond jitter).
func TestTimelineOverheadOnParallelEstimate(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation dwarfs the recorder's cost")
	}
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	golden, err := bench.ByName("c880")
	if err != nil {
		t.Fatal(err)
	}
	rec := timeline.NewRecorder(3, 0)
	// Warm-up: JIT-free, but caches, page faults and the lazy topo order
	// must not land on one side.
	tlEstimateOnce(t, golden, nil)
	tlEstimateOnce(t, golden, rec)

	// Each pair times both sides twice in the order untraced, traced,
	// traced, untraced, so neither side always runs first and a linear
	// drift in host speed cancels out of the pair's ratio. Every timed
	// run starts after a forced GC, so none pays for another's garbage.
	const pairs = 101
	timed := func(r *timeline.Recorder) time.Duration {
		rec.Reset()
		runtime.GC()
		start := time.Now()
		tlEstimateOnce(t, golden, r)
		return time.Since(start)
	}
	ratios := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		off := timed(nil)
		on := timed(rec)
		on += timed(rec)
		off += timed(nil)
		ratios = append(ratios, float64(on)/float64(off))
	}
	sort.Float64s(ratios)
	median := ratios[pairs/2]
	// 2% budget plus 1% measurement-noise guard: the recorder's real cost
	// is a few dozen Emit calls per pass, orders of magnitude below this.
	if median > 1.03 {
		t.Errorf("timeline recorder overhead: median traced/untraced = %.4f, want <= 1.03 (2%% budget + noise guard); ratios %v",
			median, ratios)
	}
	t.Logf("timeline overhead: median ratio %.4f over %d interleaved pairs", median, pairs)
}
