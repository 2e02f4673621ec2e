package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one reported metric. BENCHMARK.json declares the
// same names, units and directions; a unit test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEndMetrics are what a user of the system sees. Every workload
// reports every one of them, measured with tracing off.
//
// The op latency is the window's fastest op, not its median: on the
// shared 2-vCPU host the benchmark was built on, stretches of 10 to 30
// seconds ran the same single-threaded op about 1.65x slower, so a
// run's median moved by a third depending on how much of the window
// such stretches covered, while its fastest op moved by about a tenth.
// The median, the tail and the throughput are extras of the result.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"min_ms", "ms", "lower"},
	{"snr_db", "dB", "higher"},
	{"rss_mb", "MiB", "lower"},
}

// perLayerMetrics come from the traced run: spans the benchmark records
// around its own calls into each layer's public functions, on the
// workload's own inputs, after the timed window.
var perLayerMetrics = []metricDef{
	{"sampling.sample_ms", "ms", "lower"},
	{"recon.plan_build_ms", "ms", "lower"},
	{"recon.nearest_table_ms", "ms", "lower"},
	{"kdtree.build_ms", "ms", "lower"},
	{"kdtree.knn_ns_per_query", "ns", "lower"},
	{"features.batch_ns_per_row", "ns", "lower"},
	{"features.build_ms", "ms", "lower"},
	{"nn.predict_ns_per_row", "ns", "lower"},
	{"nn.predict_gflops", "GFLOP/s", "higher"},
	{"nn.epoch_ms", "ms", "lower"},
	{"nn.train_rows_per_s", "rows/s", "higher"},
	{"core.fcnn_full_ms", "ms", "lower"},
	{"core.fcnn_roi_ms", "ms", "lower"},
	{"core.fcnn_allocs", "count", "lower"},
	{"core.fcnn_scaling_eff", "ratio", "higher"},
	{"interp.linear_scaling_eff", "ratio", "higher"},
	{"delaunay.build_ms", "ms", "lower"},
	{"interp.linear_ms", "ms", "lower"},
	{"interp.natural_ms", "ms", "lower"},
	{"interp.shepard_ms", "ms", "lower"},
	{"interp.nearest_ms", "ms", "lower"},
	{"server.decode_request_us", "us", "lower"},
	{"server.encode_response_us", "us", "lower"},
}

// value is one metric as printed: a number and its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect pairs every declared metric with its measured value. A
// declared metric without a finite value, or a value nobody declared,
// is an error: the output must hold exactly the declared set.
func collect(defs []metricDef, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", d.Name, v)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	return out, nil
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentiles are the candidates tailPercentile picks from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten of n samples beyond it, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// quartiles returns the three cut points statistics.quantiles(xs, n=4)
// gives in Python (the default "exclusive" method), so spreads computed
// here match the ones a Python checker computes from the same values.
// One value is its own three quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var r [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		r[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return r[0], r[1], r[2]
}
