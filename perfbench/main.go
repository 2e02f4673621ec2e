// Command perfbench is fillvoid's benchmark. It drives two seeded
// workloads from one process — the reconstruction library in-process,
// and a child `fillvoid serve` on loopback — checks that every output
// is correct, and prints each metric by name with its unit. The last
// line of standard output is a one-line JSON summary.
//
// Build and run it from the repository root with perfbench/run.sh,
// which compiles the server and this program into .bench_build/:
//
//	bash perfbench/run.sh --workload serve-roi --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh --workload serve-roi --seed 1 --seconds 40 --trace 1
//
// --trace 1 reports per-layer metrics instead of end-to-end ones and
// writes a Chrome trace next to the result file. To compare two sets of
// result files against the bounds in BENCHMARK.json:
//
//	.bench_build/bin/perfbench compare -a 'runs/a/*.json' -b 'runs/b/*.json'
//
// compare exits 1 when any workload × metric pair got worse. To record
// a set of runs as a ledger entry (medians and quartiles per workload
// and metric, with the host):
//
//	.bench_build/bin/perfbench ledger -in 'runs/*.json' -out perfbench/ledger/<commit>.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "ledger":
			os.Exit(ledgerMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: offline-sweep or serve-roi")
	seed := fs.Int64("seed", 1, "seed for all data, cloud and request generation")
	seconds := fs.Int("seconds", 40, "length of the timed window")
	traced := fs.Int("trace", 0, "1 traces the run and reports per-layer metrics instead of end-to-end ones")
	root := fs.String("dir", ".bench_build", "directory holding bin/fillvoid; results and scratch files go under it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := runOnce(ctx, *name, *seed, *seconds, *traced == 1, *root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := printResult(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
