package nn

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestAVXDetectionMatchesCPUInfo checks the CPUID/XGETBV probe behind
// useAVX against the kernel's own view: the flags line of /proc/cpuinfo
// lists avx only when the CPU has it and the OS saves YMM state. A
// wrong bit or mask would silently route every forward pass onto the
// slower Go kernel.
func TestAVXDetectionMatchesCPUInfo(t *testing.T) {
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
		want := slices.Contains(strings.Fields(flags), "avx")
		if useAVX != want {
			t.Fatalf("useAVX = %v, /proc/cpuinfo lists avx: %v", useAVX, want)
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
