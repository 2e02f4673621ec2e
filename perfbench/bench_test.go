package main

import (
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {1000, 99}, {3600, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	if q1, q2, q3 := quartiles([]float64{3, 1}); q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles(1, 3) = %v %v %v, want 0.5 2 3.5", q1, q2, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 50); a third runs past
		// the parent's end and only [90, 100) counts.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "a", Start: 20 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "b", Start: 90 * ms, End: 120 * ms},
		{ID: 5, Parent: 4, Name: "c", Start: 95 * ms, End: 105 * ms},
		{ID: 6, Name: "open", Start: 0, End: -1}, // never ended: ignored
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"op": 50 * ms, "a": 50 * ms, "b": 20 * ms, "c": 10 * ms}
	if len(got) != len(want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestRSSSamplerOfSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc on this platform")
	}
	s := sampleRSS("self")
	time.Sleep(3 * rssEvery)
	mib, err := s.finish()
	if err != nil {
		t.Fatal(err)
	}
	if mib <= 0 || len(s.samples) < 2 {
		t.Errorf("median RSS %v MiB from %d samples", mib, len(s.samples))
	}
}

func TestTracerDisabledIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.start("op", 0, 0)
	if d := tr.end(id); id != 0 || d != 0 {
		t.Errorf("nil tracer returned span %d, duration %v", id, d)
	}
	tr.record("x", 1)
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 80, 120, 100, 90, 110, 75, 125, 100}
	noisyFar := make([]float64, len(noisy))
	for i, x := range noisy {
		noisyFar[i] = 3 * x
	}
	for _, c := range []struct {
		name   string
		a, b   []float64
		bound  float64
		higher bool
		want   string
	}{
		{"identical", base, base, 0.1, false, "same"},
		{"within bound", base, scaled(1.05), 0.1, false, "same"},
		{"slower", base, scaled(1.2), 0.1, false, "worse"},
		{"faster", base, scaled(0.8), 0.1, false, "better"},
		{"throughput down", base, scaled(0.8), 0.1, true, "worse"},
		{"throughput up", base, scaled(1.2), 0.1, true, "better"},
		{"noisy and overlapping", base, noisy, 0.1, false, "unresolved"},
		{"noisy but apart", base, noisyFar, 0.1, false, "worse"},
	} {
		if got, _ := verdict(c.a, c.b, c.bound, c.higher); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCollectRequiresExactlyTheDeclaredSet(t *testing.T) {
	defs := []metricDef{{"a_ms", "ms", "lower"}, {"b_s", "s", "lower"}}
	if _, err := collect(defs, map[string]float64{"a_ms": 1}); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := collect(defs, map[string]float64{"a_ms": 1, "b_s": 2, "c": 3}); err == nil {
		t.Error("undeclared metric accepted")
	}
	if _, err := collect(defs, map[string]float64{"a_ms": 1, "b_s": math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
	got, err := collect(defs, map[string]float64{"a_ms": 1, "b_s": 2})
	if err != nil || got["b_s"] != (value{2, "s"}) {
		t.Errorf("collect = %v, %v", got, err)
	}
}

// TestBenchmarkJSONDeclaresWhatTheCodeEmits keeps BENCHMARK.json and
// the code's metric and workload tables in step, both ways.
func TestBenchmarkJSONDeclaresWhatTheCodeEmits(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, code []metricDef, declared []specMetric, bounded bool) {
		t.Helper()
		if len(code) != len(declared) {
			t.Errorf("%s: code emits %d metrics, BENCHMARK.json declares %d", kind, len(code), len(declared))
		}
		byName := map[string]specMetric{}
		for _, d := range declared {
			byName[d.Name] = d
		}
		for _, c := range code {
			d, ok := byName[c.Name]
			if !ok {
				t.Errorf("%s: %s is emitted but not declared", kind, c.Name)
				continue
			}
			if d.Unit != c.Unit || d.Better != c.Better {
				t.Errorf("%s: %s declared %s/%s, emitted %s/%s", kind, c.Name, d.Unit, d.Better, c.Unit, c.Better)
			}
			if (d.Bound != nil) != bounded {
				t.Errorf("%s: %s bound presence %v, want %v", kind, c.Name, d.Bound != nil, bounded)
			}
			delete(byName, c.Name)
		}
		for name := range byName {
			t.Errorf("%s: %s is declared but never emitted", kind, name)
		}
	}
	check("end_to_end", endToEndMetrics, spec.EndToEnd, true)
	check("per_layer", perLayerMetrics, spec.PerLayer, false)

	var code, declared []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(code)
	sort.Strings(declared)
	if len(code) != len(declared) {
		t.Fatalf("workloads: code %v, BENCHMARK.json %v", code, declared)
	}
	for i := range code {
		if code[i] != declared[i] {
			t.Errorf("workloads: code %v, BENCHMARK.json %v", code, declared)
		}
	}
	// setup_s carries the largest bound: set-up time is the noisiest
	// end-to-end metric, and work moved into set-up must still show.
	var setup float64
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if *m.Bound > setup || *m.Bound > 0.25 || *m.Bound <= 0 {
			t.Errorf("%s bound %v: bounds must be in (0, 0.25] and at most setup_s's %v", m.Name, *m.Bound, setup)
		}
	}
}
