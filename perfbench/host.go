package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"fillvoid/perfbench/serveproc"
)

// hostInfo records where a result was measured, so results from
// different machines or loads are never compared unknowingly.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	LoadAvg    string `json:"load_avg_at_start"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
		LoadAvg:    "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			h.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			h.Commit = rev
			if dirty {
				h.Commit += "+dirty"
			}
		}
	}
	return h
}

// rssEvery is how often the resident set size is sampled in a window.
const rssEvery = 100 * time.Millisecond

// rssSampler samples one process's resident set size until finished. A
// Go process's resident memory swings with each garbage collection, so
// the window's median describes its footprint under the load far more
// steadily than one reading or the peak.
type rssSampler struct {
	pid     string
	stop    chan struct{}
	done    chan struct{}
	samples []float64
	err     error
}

func sampleRSS(pid string) *rssSampler {
	s := &rssSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	//lint:allow rawgoroutine: the sampler ticks until finish closes stop, and finish waits for done
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			mib, err := serveproc.StatusMiB(s.pid, "VmRSS")
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, mib)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the median resident set size in MiB.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, s.err
	}
	return median(s.samples), nil
}

// cpuTimes returns the host's total and stolen CPU time so far, in
// clock ticks, from the first line of /proc/stat. Stolen time is time a
// virtual CPU was ready but the hypervisor ran someone else: on a shared
// machine it explains runs that are slow for reasons outside the code.
func cpuTimes() (total, steal uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, s := range f[1:] {
		var v uint64
		if _, err := fmt.Sscan(s, &v); err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// runningServers lists the pids of fillvoid processes other than this
// one. A leftover server or background training run competes for the
// same cores and skews timings about 2x, so a run refuses to start
// while any exists.
func runningServers() ([]string, error) {
	dirs, err := filepath.Glob("/proc/[0-9]*")
	if err != nil {
		return nil, err
	}
	self := fmt.Sprint(os.Getpid())
	var pids []string
	for _, d := range dirs {
		pid := filepath.Base(d)
		if pid == self {
			continue
		}
		comm, err := os.ReadFile(filepath.Join(d, "comm"))
		if err != nil {
			continue // exited while we looked
		}
		if strings.TrimSpace(string(comm)) == "fillvoid" {
			pids = append(pids, pid)
		}
	}
	return pids, nil
}
