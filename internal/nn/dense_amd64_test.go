package nn

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestAVXDetectionMatchesCPUInfo checks the CPUID/XGETBV probes behind
// hostKernels against the kernel's own view: the flags line of
// /proc/cpuinfo lists avx and avx512f only when the CPU has them and
// the OS saves their register state. A wrong bit or mask would either
// fault on the first vector instruction or silently route every dense
// GEMM onto a slower kernel. It logs the kernels this host covers, so a
// run without AVX-512 says so.
func TestAVXDetectionMatchesCPUInfo(t *testing.T) {
	names := make([]string, len(hostKernels))
	for i, k := range hostKernels {
		names[i] = k.name
	}
	t.Logf("kernels on this host, widest first: %s", strings.Join(names, ", "))
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
			{"avx", "avx", cpuHasAVX()},
			{"avx512f", "avx512", cpuHasAVX512()},
		} {
			want := slices.Contains(strings.Fields(flags), p.flag)
			if p.probe != want {
				t.Errorf("probe for %s = %v, /proc/cpuinfo lists %s: %v", p.kernel, p.probe, p.flag, want)
			}
			if got := slices.Contains(names, p.kernel); got != want {
				t.Errorf("hostKernels has %s: %v, /proc/cpuinfo lists %s: %v", p.kernel, got, p.flag, want)
			}
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
