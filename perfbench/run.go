package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"fillvoid/perfbench/serveproc"
)

// runDeadline keeps every run, set-ups included, inside the three
// minutes a benchmark run may take.
const runDeadline = 170 * time.Second

// benchProcs is the GOMAXPROCS of the benchmark and of every server it
// starts. On a shared 2-vCPU host the speed of work spread over both
// virtual CPUs depends on where the hypervisor places them: the FCNN
// full grid at GOMAXPROCS=2 switched between about 135 and 240 ms every
// few seconds, while at GOMAXPROCS=1 it ran at about 260 ms whenever
// the host was not busy. Parallel scaling is measured on its own, as
// the per-layer core.fcnn_scaling_eff.
const benchProcs = 1

// scale sets the length and size of one run.
type scale struct {
	window    time.Duration // timed measurement window
	setups    int           // set-ups per run; setup_s is their median
	warmOps   int           // untimed ops that end each set-up
	epochs    int           // pretraining epochs of the model
	layerReps int           // inputs the per-layer probe runs on
}

// scaleFor pretrains for 10 epochs: three set-ups a run are most of its
// fixed cost, and the window gets the time instead.
func scaleFor(seconds int) scale {
	return scale{
		window:    time.Duration(seconds) * time.Second,
		setups:    3,
		warmOps:   2,
		epochs:    10,
		layerReps: 3,
	}
}

// env is what a workload needs from the run.
type env struct {
	sc        scale
	seed      int64
	serverBin string
	tr        *tracer // nil unless the run is traced
}

// workload is one benchmark workload. setup builds everything the timed
// window needs; it runs several times per run, and all but the last
// instance are closed straight away.
type workload struct {
	name  string
	setup func(ctx context.Context, e *env, dir string) (instance, error)
}

type instance interface {
	// measure runs the timed window, then checks the outputs.
	measure(ctx context.Context, e *env) (*outcome, error)
	// layerInputs returns n of the workload's own inputs for the
	// per-layer probe.
	layerInputs(n int) []layerInput
	fixture() *fixture
	// memPID names the process whose memory the run reports: the
	// server, or "self" when the workload runs in-process.
	memPID() string
	close() error
}

// outcome is what one timed window measured.
type outcome struct {
	lat       []float64 // latency of each successful timed op, ms
	snr       float64
	attempted int
	failed    int // errors, timeouts and wrong outputs
	wrong     int // outputs that failed a correctness check
	extra     map[string]float64
}

func newOutcome() *outcome { return &outcome{extra: map[string]float64{}} }

// fail counts one failed op and logs why.
func (o *outcome) fail(what string, err error) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
}

// wrongOutput counts one op whose output failed a check.
func (o *outcome) wrongOutput(what string, err error) {
	o.wrong++
	o.fail(what, err)
}

// workloads are the engine without HTTP and the served read path: one
// exercises the reconstruction kernels over full grids, the other the
// serving layers around small reconstructions. Each run measures one
// workload for tens of seconds, and the time every run may take caps how
// many workloads fit; see README.md for the ones left out.
var workloads = []workload{
	{"offline-sweep", setupOffline},
	{"serve-roi", setupServeROI},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// result is the file a run writes; compare reads a set of them.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	Host       hostInfo           `json:"host"`
	SetupEach  []float64          `json:"setup_s_each"`
	Samples    int                `json:"samples"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Correct    bool               `json:"correct"`
	EndToEnd   map[string]value   `json:"end_to_end"`
	PerLayer   map[string]value   `json:"per_layer,omitempty"`
	Extra      map[string]float64 `json:"extra"`
	SelfTimeMS map[string]float64 `json:"self_time_ms,omitempty"`
	// OpMS is every successful timed op's latency in order, for
	// reanalysis.
	OpMS []float64 `json:"op_ms"`
}

// runWorkload sets w up e.sc.setups times, measures the last instance,
// and, when traced, probes each layer on the workload's inputs. dir is
// scratch space the caller removes.
func runWorkload(ctx context.Context, w workload, e *env, dir string) (res *result, err error) {
	var inst instance
	defer func() {
		if inst != nil {
			if cerr := inst.close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing %s: %w", w.name, cerr)
			}
		}
	}()
	var setups []float64
	for i := 0; i < e.sc.setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				inst = nil
				return nil, fmt.Errorf("closing set-up %d: %w", i, err)
			}
			inst = nil
		}
		sdir := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		in, err := w.setup(ctx, e, sdir)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst = in
		// Each set-up starts from the same heap state, so garbage one
		// set-up leaves does not bill the next.
		runtime.GC()
	}

	total0, steal0, statErr := cpuTimes()
	rss := sampleRSS(inst.memPID())
	out, err := inst.measure(ctx, e)
	rssMiB, rssErr := rss.finish()
	if err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	peak, err := serveproc.StatusMiB(inst.memPID(), "VmHWM")
	if err != nil {
		return nil, err
	}
	out.extra["peak_rss_mb"] = peak
	if total1, steal1, err := cpuTimes(); err == nil && statErr == nil && total1 > total0 {
		out.extra["host.steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	if len(out.lat) == 0 {
		return nil, errors.New("no op succeeded")
	}
	vals := map[string]float64{
		"setup_s": median(setups),
		"min_ms":  quantile(out.lat, 0),
		"snr_db":  out.snr,
		"rss_mb":  rssMiB,
	}
	res = &result{
		Workload:  w.name,
		Seed:      e.seed,
		Seconds:   int(e.sc.window / time.Second),
		Trace:     e.tr != nil,
		SetupEach: setups,
		Samples:   len(out.lat),
		OpMS:      out.lat,
		Attempted: out.attempted,
		Failed:    out.failed,
		Correct:   out.wrong == 0,
		Extra:     out.extra,
	}
	if res.EndToEnd, err = collect(endToEndMetrics, vals); err != nil {
		return nil, err
	}
	res.Extra["p50_ms"] = median(out.lat)
	if p := tailPercentile(len(out.lat)); p > 0 {
		res.Extra["tail_pct"] = p
		res.Extra["tail_ms"] = quantile(out.lat, p/100)
	}
	res.Extra["err_frac"] = float64(out.failed) / float64(max(out.attempted, 1))

	if e.tr != nil {
		if err := probeLayers(ctx, e.tr, inst.fixture(), inst.layerInputs(e.sc.layerReps)); err != nil {
			return nil, fmt.Errorf("per-layer probe: %w", err)
		}
		if res.PerLayer, err = collect(perLayerMetrics, e.tr.layerMetrics()); err != nil {
			return nil, err
		}
		res.SelfTimeMS = e.tr.selfTimeMS()
	}
	return res, nil
}

// runOnce runs one workload with its guards and writes the result file
// (and the Chrome trace, when traced) under root/results.
func runOnce(ctx context.Context, name string, seed int64, seconds int, traced bool, root string) (*result, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	}
	// The benchmark and its server each run on one core (the server
	// inherits the environment).
	runtime.GOMAXPROCS(benchProcs)
	if err := os.Setenv("GOMAXPROCS", strconv.Itoa(benchProcs)); err != nil {
		return nil, err
	}
	host := readHost()
	if pids, err := runningServers(); err != nil {
		return nil, err
	} else if len(pids) > 0 {
		return nil, fmt.Errorf("refusing to start: fillvoid processes %v are running and would skew the timings", pids)
	}
	bin, err := filepath.Abs(filepath.Join(root, "bin", "fillvoid"))
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("server binary: %w (build it with perfbench/run.sh)", err)
	}
	e := &env{sc: scaleFor(seconds), seed: seed, serverBin: bin}
	if traced {
		e.tr = newTracer()
	}
	for _, d := range []string{"work", "results"} {
		if err := os.MkdirAll(filepath.Join(root, d), 0o755); err != nil {
			return nil, err
		}
	}
	work, err := os.MkdirTemp(filepath.Join(root, "work"), name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	res, err := runWorkload(ctx, w, e, work)
	if err != nil {
		return nil, err
	}
	res.Host = host

	stem := filepath.Join(root, "results", fmt.Sprintf("%s-seed%d-trace%d-%d", name, seed, b2i(traced), time.Now().UnixNano()))
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(stem+".json", append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: result written to %s.json\n", stem)
	if traced {
		if err := e.tr.writeChrome(stem + ".trace.json"); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: Chrome trace written to %s.trace.json\n", stem)
	}
	return res, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printResult prints every reported metric by name with its unit, then
// the one-line JSON summary as the last line of standard output.
func printResult(res *result) error {
	metrics := res.EndToEnd
	if res.Trace {
		metrics = res.PerLayer
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-14s %-28s %14.4f %s\n", res.Workload, n, metrics[n].Value, metrics[n].Unit)
	}
	extras := make([]string, 0, len(res.Extra))
	for n := range res.Extra {
		extras = append(extras, n)
	}
	sort.Strings(extras)
	for _, n := range extras {
		fmt.Printf("%-14s %-28s %14.4f (extra)\n", res.Workload, n, res.Extra[n])
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
