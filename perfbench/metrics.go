package main

import (
	"sort"
)

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract with BENCHMARK.json (pinned by a test).
type metricDef struct{ name, unit string }

// endToEnd is what the untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"flow_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"area_ratio", "ratio"},
}

// perLayer is what the traced run reports. A layer a workload does not
// exercise (partition on a monolithic flow, AEM queries on an ER flow)
// reads 0.
var perLayer = []metricDef{
	{"sim.simulate_s", "s"},
	{"sim.gate_evals", "count"},
	{"sim.cone_resims", "count"},
	{"core.cpm_build_s", "s"},
	{"core.cpm_builds", "count"},
	{"core.refresh_dirty_frac", "ratio"},
	{"core.delta_er_queries", "count"},
	{"core.delta_aem_queries", "count"},
	{"core.exact_delta_queries", "count"},
	{"sasimi.estimate_all_s", "s"},
	{"sasimi.candidates", "count"},
	{"sasimi.iterations", "count"},
	{"sasimi.candidates_scored", "count"},
	{"sasimi.scored_per_accept", "ratio"},
	{"sasimi.feasible_frac", "ratio"},
	{"sasimi.rollbacks", "count"},
	{"partition.plan_s", "s"},
	{"partition.extract_s", "s"},
	{"partition.merge_s", "s"},
	{"partition.parts", "count"},
	{"partition.max_cut", "count"},
	{"partition.rounds", "count"},
	{"partition.reverted", "count"},
	{"partition.part_flow_s_max", "s"},
	{"partition.part_skew", "ratio"},
	{"emetric.measure_s", "s"},
	{"flow.alloc_mb", "MB"},
	{"flow.gc_cycles", "count"},
	{"flow.cpu_util", "ratio"},
	{"obs.trace_overhead", "ratio"},
	{"trace.unattributed_frac", "ratio"},
}

// samples collects repeated observations of named metrics.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// median returns the median of name's samples and their count; 0 when
// there are none.
func (s samples) median(name string) (float64, int) {
	return median(s[name]), len(s[name])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
