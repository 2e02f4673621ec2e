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
// files via -csv), matching the rows/series the paper reports.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fillvoid/internal/experiments"
	"fillvoid/internal/telemetry"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (fig2..fig14, table1, table2, or 'all')")
		scale   = flag.String("scale", "small", "workload scale: small, medium, paper")
		dataset = flag.String("dataset", "", "restrict multi-dataset experiments: isabel, combustion, ionization")
		seed    = flag.Int64("seed", 42, "seed for sampling, init, and shuffles")
		out     = flag.String("out", "", "directory for rendered images (fig2/fig3)")
		csvDir  = flag.String("csv", "", "directory to also write <id>.csv files into")
		workers = flag.Int("workers", 0, "parallelism (0 = all cores)")
		quant   = flag.String("quant", "", "quantized fcnn inference: f16 or int8 (empty = f64)")
		quiet   = flag.Bool("quiet", false, "suppress progress logging")
		list    = flag.Bool("list", false, "list available experiments and exit")
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

	for _, r := range runners {
		start := time.Now()
		ctx, sp := telemetry.Default().StartTrace(context.Background(), "experiment/"+r.ID, "")
		res, err := r.Run(ctx, cfg)
		sp.End()
		wall := time.Since(start)
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
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[%s] completed in %s\n", r.ID, wall.Round(time.Millisecond))
		}
	}

	if err := stop(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
