package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is BENCHMARK.json, the benchmark's declaration.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// loadResults reads every result file matching pattern.
func loadResults(pattern string) ([]*result, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files match %q", pattern)
	}
	var out []*result
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", p, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

// verdict compares the candidate side b against the baseline side a for
// one metric. delta is the change of b's median relative to a's, signed
// so that positive is worse. A pair whose spread (interquartile range
// over median, the wider side's) exceeds the bound while the two
// interquartile ranges overlap is unresolved: the runs cannot tell the
// sides apart at that bound.
func verdict(a, b []float64, bound float64, higherBetter bool) (string, float64) {
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	delta := (mb - ma) / math.Abs(ma)
	if higherBetter {
		delta = -delta
	}
	spread := math.Max((qa3-qa1)/math.Abs(ma), (qb3-qb1)/math.Abs(mb))
	overlap := qa1 <= qb3 && qb1 <= qa3
	switch {
	case spread > bound && overlap:
		return "unresolved", delta
	case delta > bound:
		return "worse", delta
	case delta < -bound:
		return "better", delta
	default:
		return "same", delta
	}
}

// compareRow is one workload × metric line of a comparison.
type compareRow struct {
	workload, metric string
	a, b             []float64
	bound            float64 // NaN: per-layer, no bound
	verdict          string
	delta            float64
}

// compareSets pairs every declared metric of every workload present on
// both sides. End-to-end metrics come from untraced runs and get a
// verdict; per-layer metrics come from traced runs and are reported
// without one.
func compareSets(spec *benchSpec, as, bs []*result) []compareRow {
	values := func(rs []*result, workload, metric string, traced bool) []float64 {
		var xs []float64
		for _, r := range rs {
			if r.Workload != workload || r.Trace != traced {
				continue
			}
			m := r.EndToEnd
			if traced {
				m = r.PerLayer
			}
			if v, ok := m[metric]; ok {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	var rows []compareRow
	for _, w := range spec.Workloads {
		for _, group := range []struct {
			metrics []specMetric
			traced  bool
		}{{spec.EndToEnd, false}, {spec.PerLayer, true}} {
			for _, m := range group.metrics {
				a, b := values(as, w.Name, m.Name, group.traced), values(bs, w.Name, m.Name, group.traced)
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				row := compareRow{workload: w.Name, metric: m.Name, a: a, b: b, bound: math.NaN(), verdict: "-"}
				if m.Bound != nil {
					row.bound = *m.Bound
					row.verdict, row.delta = verdict(a, b, row.bound, m.Better == "higher")
				} else {
					_, ma, _ := quartiles(a)
					_, mb, _ := quartiles(b)
					row.delta = (mb - ma) / math.Abs(ma)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	aGlob := fs.String("a", "", "glob of the baseline side's result files")
	bGlob := fs.String("b", "", "glob of the candidate side's result files")
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark declaration holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *aGlob == "" || *bGlob == "" {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare -a 'runs/a*.json' -b 'runs/b*.json' [-bench BENCHMARK.json]")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	as, err := loadResults(*aGlob)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	bs, err := loadResults(*bGlob)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	rows := compareSets(spec, as, bs)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].workload < rows[j].workload })
	fmt.Printf("%-14s %-28s %-34s %-34s %8s %6s  %s\n", "workload", "metric", "a: median [q1, q3] (n)", "b: median [q1, q3] (n)", "delta", "bound", "verdict")
	worse := 0
	for _, r := range rows {
		bound := "-"
		if !math.IsNaN(r.bound) {
			bound = fmt.Sprintf("%.0f%%", r.bound*100)
		}
		fmt.Printf("%-14s %-28s %-34s %-34s %+7.1f%% %6s  %s\n", r.workload, r.metric, side(r.a), side(r.b), r.delta*100, bound, r.verdict)
		if r.verdict == "worse" {
			worse++
		}
	}
	if worse > 0 {
		fmt.Printf("compare: %d workload x metric pair(s) worse\n", worse)
		return 1
	}
	return 0
}

// ledgerStat is one workload × metric summary in a ledger entry.
type ledgerStat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (q3 - q1) / median, the share the bounds are set from.
	Spread float64 `json:"spread"`
	N      int     `json:"n"`
}

// ledgerMain summarizes a set of result files into one ledger entry:
// per workload and metric, the median and quartiles across the runs,
// with the host the runs were made on.
func ledgerMain(args []string) int {
	fs := flag.NewFlagSet("ledger", flag.ContinueOnError)
	in := fs.String("in", "", "glob of the result files to summarize")
	outPath := fs.String("out", "", "ledger entry to write")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *in == "" || *outPath == "" {
		fmt.Fprintln(os.Stderr, "usage: perfbench ledger -in 'runs/*.json' -out perfbench/ledger/<commit>.json")
		return 2
	}
	rs, err := loadResults(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ledger: %v\n", err)
		return 2
	}
	type key struct{ workload, metric string }
	vals := map[key][]float64{}
	units := map[string]string{}
	entry := struct {
		Host      hostInfo                         `json:"host"`
		Workloads map[string]map[string]ledgerStat `json:"workloads"`
	}{Host: rs[0].Host, Workloads: map[string]map[string]ledgerStat{}}
	for _, r := range rs {
		// A traced run's end-to-end numbers carry the tracing overhead;
		// only its per-layer numbers belong in the ledger.
		m := r.EndToEnd
		if r.Trace {
			m = r.PerLayer
		}
		for name, v := range m {
			k := key{r.Workload, name}
			vals[k] = append(vals[k], v.Value)
			units[name] = v.Unit
		}
	}
	for k, xs := range vals {
		q1, q2, q3 := quartiles(xs)
		if entry.Workloads[k.workload] == nil {
			entry.Workloads[k.workload] = map[string]ledgerStat{}
		}
		entry.Workloads[k.workload][k.metric] = ledgerStat{
			Unit: units[k.metric], Median: q2, Q1: q1, Q3: q3, Spread: (q3 - q1) / math.Abs(q2), N: len(xs),
		}
	}
	b, err := json.MarshalIndent(entry, "", "  ")
	if err == nil {
		err = os.WriteFile(*outPath, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ledger: %v\n", err)
		return 1
	}
	return 0
}

func side(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q2, q1, q3, len(xs))
}
