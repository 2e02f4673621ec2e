package serveproc

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"
)

// fakeEnv selects how the test binary behaves when Start re-runs it as
// a fake `serve` (the way os/exec's own tests use helper processes).
const fakeEnv = "SERVEPROC_FAKE_SERVE"

func TestMain(m *testing.M) {
	if mode := os.Getenv(fakeEnv); mode != "" {
		fakeServe(mode)
		return
	}
	os.Exit(m.Run())
}

// fakeServe mimics `fillvoid serve -addr ADDR`: it prints the banner and
// answers /healthz. Mode "healthy" drains on SIGTERM and exits 0,
// "ignore-term" ignores SIGTERM, and "exit-early" fails before the
// banner.
func fakeServe(mode string) {
	if mode == "exit-early" {
		fmt.Println("fillvoid serve: loading model failed")
		os.Exit(3)
	}
	if len(os.Args) < 4 || os.Args[1] != "serve" || os.Args[2] != "-addr" {
		fmt.Fprintf(os.Stderr, "fake serve: unexpected args %q\n", os.Args[1:])
		os.Exit(2)
	}
	term := make(chan os.Signal, 1)
	if mode == "ignore-term" {
		signal.Ignore(syscall.SIGTERM)
	} else {
		signal.Notify(term, syscall.SIGTERM)
	}
	ln, err := net.Listen("tcp", os.Args[3])
	if err != nil {
		fmt.Fprintln(os.Stderr, "fake serve:", err)
		os.Exit(2)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
		}
	})}
	fmt.Printf("fillvoid serve: listening on http://%s (methods: [fake])\n", ln.Addr())
	//lint:allow rawgoroutine: the fake server runs until the helper process exits
	go srv.Serve(ln)
	<-term
	fmt.Println("fillvoid serve: drained, bye")
	os.Exit(0)
}

func startFake(t *testing.T, mode string) (*Proc, error) {
	t.Helper()
	t.Setenv(fakeEnv, mode)
	ctx, cancel := context.WithTimeout(context.Background(), BootTimeout)
	defer cancel()
	return Start(ctx, os.Args[0], nil, os.Stderr)
}

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

func TestStartHealthyThenStop(t *testing.T) {
	p, err := startFake(t, "healthy")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(p.Base, "http://127.0.0.1:") {
		t.Errorf("Base = %q, want a loopback URL", p.Base)
	}
	if err := p.Stop(10 * time.Second); err != nil {
		t.Fatalf("Stop = %v, want a clean exit", err)
	}
	if p.cmd.ProcessState == nil || !p.cmd.ProcessState.Success() {
		t.Fatalf("child not reaped with success: %v", p.cmd.ProcessState)
	}
}

func TestStartReportsExitBeforeBanner(t *testing.T) {
	p, err := startFake(t, "exit-early")
	if err == nil {
		t.Fatalf("Start succeeded for a child that exited before its banner (Stop: %v)", p.Stop(time.Second))
	}
	if !strings.Contains(err.Error(), "exited before printing its address") {
		t.Fatalf("Start error = %v, want it to say the child exited before its banner", err)
	}
}

func TestStopKillsChildThatIgnoresSIGTERM(t *testing.T) {
	p, err := startFake(t, "ignore-term")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = p.Stop(200 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "did not exit within") {
		t.Fatalf("Stop = %v, want a did-not-exit error", err)
	}
	if waited := time.Since(start); waited < 200*time.Millisecond {
		t.Errorf("Stop returned after %s, before its 200ms timeout", waited)
	}
	// Stop returns only after the reader goroutine has reaped the child.
	if p.cmd.ProcessState == nil {
		t.Fatal("child not reaped after Stop")
	}
	if status, ok := p.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && status.Signal() != syscall.SIGKILL {
		t.Errorf("child ended by %v, want SIGKILL", status.Signal())
	}
}
