package mathutil

// HasAVX and HasAVX512 are the CPUID/XGETBV probes in cpu_amd64.s, the
// one place every package with vector kernels (nn's dense GEMMs,
// kdtree's leaf scans) learns what the host runs.

// HasAVX reports whether the CPU has AVX and the OS saves the YMM
// registers across context switches.
func HasAVX() bool

// HasAVX512 reports whether the CPU has AVX-512F and the OS saves the
// opmask and all 32 ZMM registers across context switches.
func HasAVX512() bool
