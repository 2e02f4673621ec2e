// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp fig9                 # one experiment, small scale
//	experiments -exp all -scale medium    # everything, bigger workloads
//	experiments -exp fig2 -out ./renders  # write qualitative images
//	experiments -list                     # show the experiment index
//
// Output is an aligned text table per experiment (and optional CSV
// files via -csv), matching the rows/series the paper reports. With
// -bench-out a machine-readable run summary (per-experiment wall time,
// the table rows including SNR, and the full telemetry snapshot with
// per-stage span timings) is written as JSON.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fillvoid/internal/bench"
	"fillvoid/internal/experiments"
	"fillvoid/internal/telemetry"
	"fillvoid/internal/trace"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (fig2..fig14, table1, table2, or 'all')")
		scale    = flag.String("scale", "small", "workload scale: small, medium, paper")
		dataset  = flag.String("dataset", "", "restrict multi-dataset experiments: isabel, combustion, ionization")
		seed     = flag.Int64("seed", 42, "seed for sampling, init, and shuffles")
		out      = flag.String("out", "", "directory for rendered images (fig2/fig3)")
		csvDir   = flag.String("csv", "", "directory to also write <id>.csv files into")
		workers  = flag.Int("workers", 0, "parallelism (0 = all cores)")
		quant    = flag.String("quant", "", "quantized fcnn inference: f16 or int8 (empty = f64)")
		quiet    = flag.Bool("quiet", false, "suppress progress logging")
		list     = flag.Bool("list", false, "list available experiments and exit")
		benchOut = flag.String("bench-out", "", "write a machine-readable run summary (e.g. BENCH_experiments.json)")
	)
	tf := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Println("available experiments:")
		for _, r := range experiments.Registry() {
			fmt.Printf("  %-7s %s\n", r.ID, r.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: experiments -exp <id|all> [-scale small|medium|paper] (see -list)")
		os.Exit(2)
	}
	sc, ok := experiments.Scales()[*scale]
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	// The bench summary embeds a telemetry snapshot, so it implies
	// metric collection even without -metrics-out / -pprof.
	if *benchOut != "" {
		telemetry.Enable()
	}
	stop, err := tf.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	cfg := &experiments.Config{
		Scale:   sc,
		Dataset: *dataset,
		Seed:    *seed,
		OutDir:  *out,
		Workers: *workers,
		Quant:   *quant,
		Quiet:   *quiet,
		Log:     os.Stderr,
	}

	var runners []experiments.Runner
	if *exp == "all" {
		runners = experiments.Registry()
	} else {
		r, err := experiments.RunnerByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runners = []experiments.Runner{r}
	}

	summary := bench.Summary{
		GeneratedUnixNS: time.Now().UnixNano(),
		Scale:           *scale,
		Dataset:         *dataset,
		Seed:            *seed,
		Quant:           *quant,
	}
	for _, r := range runners {
		var msBefore runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		start := time.Now()
		// The trace root is named run/<id> so the telemetry span
		// experiment/<id> nests under it instead of duplicating it.
		ctx, rootSp := trace.Default().Start(context.Background(), "run/"+r.ID)
		ctx, sp := telemetry.Default().Start(ctx, "experiment/"+r.ID)
		res, err := r.Run(ctx, cfg)
		sp.End()
		rootSp.End()
		wall := time.Since(start)
		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		if err := res.Fprint(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *csvDir != "" {
			path := filepath.Join(*csvDir, res.ID+".csv")
			if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		summary.Experiments = append(summary.Experiments, bench.Experiment{
			ID:      res.ID,
			Title:   res.Title,
			WallMS:  float64(wall) / float64(time.Millisecond),
			Columns: res.Columns,
			Rows:    res.Rows,
			SNRdB:   snrColumn(res),
			Allocs:  msAfter.Mallocs - msBefore.Mallocs,
			Notes:   res.Notes,
		})
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[%s] completed in %s\n", r.ID, wall.Round(time.Millisecond))
		}
	}

	if *benchOut != "" {
		summary.Telemetry = telemetry.Default().Snapshot()
		if err := summary.WriteFile(*benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote run summary to %s\n", *benchOut)
		}
	}
	if err := stop(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// snrColumn parses the first SNR column out of the result rows: a
// header mentioning "snr" ("snr_dB", "fcnn_snr", ...) or, in the
// quality sweeps where every method column is an SNR in dB, the "fcnn"
// column (the paper's method).
func snrColumn(res *experiments.Result) []float64 {
	col := -1
	for i, c := range res.Columns {
		lc := strings.ToLower(c)
		if strings.Contains(lc, "snr") || lc == "fcnn" {
			col = i
			break
		}
	}
	if col < 0 {
		return nil
	}
	var vals []float64
	for _, row := range res.Rows {
		if col >= len(row) {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(row[col]), 64)
		if err != nil {
			continue
		}
		vals = append(vals, v)
	}
	return vals
}
