package telemetry

import (
	"flag"
	"fmt"
	"time"
)

// Flags bundles the standard observability CLI flags shared by the
// fillvoid and experiments commands:
//
//	-log-level <debug|info|warn|error|off>   structured stderr logging
//	-metrics-out <file.json>                 write a telemetry snapshot on exit
//	-pprof <addr>                            serve /metrics, expvar and pprof
//	-trace-out <file.json>                   collect traces and write them
//	                                         as Chrome trace-event JSON on exit
//
// Register with RegisterFlags before fs.Parse, then call Start after;
// the returned stop function flushes the snapshot and the trace file
// and shuts the server down.
type Flags struct {
	LogLevel   string
	MetricsOut string
	PprofAddr  string
	TraceOut   string
}

// RegisterFlags installs the telemetry flags on a FlagSet.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.LogLevel, "log-level", "warn", "log level: debug, info, warn, error, off")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write a telemetry JSON snapshot to this file on exit")
	fs.StringVar(&f.PprofAddr, "pprof", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write collected traces as Chrome trace-event JSON (Perfetto) to this file on exit")
	return f
}

// Start applies the parsed flags: sets the log level, enables the
// default registry, and with it its traces, when any output is
// requested (plus, for -metrics-out and -pprof, a 1s runtime sampler
// feeding heap/GC/goroutine/sched-latency metrics into it), and starts
// the HTTP server when -pprof is given. The returned stop function
// writes the -metrics-out snapshot and the -trace-out file (if any),
// stops the sampler and closes the server; call it once, after the
// command's work and its root span are done.
func (f *Flags) Start() (stop func() error, err error) {
	level, err := ParseLevel(f.LogLevel)
	if err != nil {
		return nil, err
	}
	SetLogLevel(level)
	var srv *Server
	var sampler *RuntimeSampler
	if f.MetricsOut != "" || f.PprofAddr != "" || f.TraceOut != "" {
		Enable()
	}
	if f.MetricsOut != "" || f.PprofAddr != "" {
		sampler = StartRuntimeSampler(Default(), time.Second)
	}
	if f.PprofAddr != "" {
		srv, err = Serve(f.PprofAddr, Default())
		if err != nil {
			return nil, fmt.Errorf("telemetry: starting -pprof server: %w", err)
		}
		Infof("telemetry server listening", "addr", srv.Addr())
	}
	return func() error {
		var firstErr error
		if sampler != nil {
			sampler.Stop()
		}
		if f.MetricsOut != "" {
			if err := Default().WriteSnapshotFile(f.MetricsOut); err != nil {
				firstErr = err
			} else {
				Infof("wrote telemetry snapshot", "path", f.MetricsOut)
			}
		}
		if f.TraceOut != "" {
			traces := Default().Traces()
			if err := writeChromeFile(f.TraceOut, traces); err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				Infof("wrote trace file", "path", f.TraceOut, "traces", len(traces))
			}
		}
		if srv != nil {
			if err := srv.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}, nil
}
