package mathutil_test

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"fillvoid/internal/kdtree"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/nn"
)

// TestAVXDetectionMatchesCPUInfo checks the CPUID/XGETBV probes, and
// the kernel lists nn and kdtree build from them, against the kernel's
// own view: the flags line of /proc/cpuinfo lists avx and avx512f only
// when the CPU has them and the OS saves their register state. A wrong
// bit or mask would either fault on the first vector instruction or
// silently route every dense GEMM or leaf scan onto a slower kernel. It
// logs the kernels this host covers, so a run without AVX-512 says so.
func TestAVXDetectionMatchesCPUInfo(t *testing.T) {
	lists := []struct {
		pkg   string
		names []string
	}{
		{"nn", nn.HostKernels()},
		{"kdtree", kdtree.HostKernels()},
	}
	for _, l := range lists {
		t.Logf("%s kernels on this host, widest first: %s", l.pkg, strings.Join(l.names, ", "))
	}
	if runtime.GOOS != "linux" {
		t.Skip("/proc/cpuinfo is Linux-only")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("reading cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		for _, p := range []struct {
			flag, kernel string
			probe        bool
		}{
			{"avx", "avx", mathutil.HasAVX()},
			{"avx512f", "avx512", mathutil.HasAVX512()},
		} {
			want := slices.Contains(strings.Fields(flags), p.flag)
			if p.probe != want {
				t.Errorf("probe for %s = %v, /proc/cpuinfo lists %s: %v", p.kernel, p.probe, p.flag, want)
			}
			for _, l := range lists {
				if got := slices.Contains(l.names, p.kernel); got != want {
					t.Errorf("%s kernels have %s: %v, /proc/cpuinfo lists %s: %v", l.pkg, p.kernel, got, p.flag, want)
				}
			}
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
