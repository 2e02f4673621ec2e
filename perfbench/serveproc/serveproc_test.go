package serveproc

import (
	"os"
	"strconv"
	"testing"
)

func TestParseBanner(t *testing.T) {
	for _, c := range []struct {
		line string
		want string
		ok   bool
	}{
		{"fillvoid serve: listening on http://127.0.0.1:40123 (methods: [fcnn linear])", "http://127.0.0.1:40123", true},
		{"fillvoid serve: listening on http://[::1]:8080", "http://[::1]:8080", true},
		{"fillvoid serve: replica r0 of 3 (shards=3)", "", false},
		{"fillvoid serve: drained, bye", "", false},
		{"peer at http://10.0.0.1:80 joined", "", false},
		{"fillvoid serve: listening on http:// (methods: [])", "", false},
	} {
		got, ok := ParseBanner(c.line)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseBanner(%q) = %q, %v; want %q, %v", c.line, got, ok, c.want, c.ok)
		}
	}
}

func TestStatusMiBOfSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc on this platform")
	}
	rss, err := StatusMiB(strconv.Itoa(os.Getpid()), "VmRSS")
	if err != nil {
		t.Fatal(err)
	}
	peak, err := StatusMiB("self", "VmHWM")
	if err != nil {
		t.Fatal(err)
	}
	if rss <= 0 || peak < rss {
		t.Errorf("VmRSS %v MiB, VmHWM %v MiB: want 0 < VmRSS <= VmHWM", rss, peak)
	}
	if _, err := StatusMiB("self", "VmNoSuchField"); err == nil {
		t.Error("missing field accepted")
	}
}
