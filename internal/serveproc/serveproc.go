// Package serveproc boots a `fillvoid serve` child process on a loopback
// port, waits until it answers /healthz, and stops it again. It depends
// only on the standard library, so any harness that drives the server
// binary can share it.
//
// One goroutine owns the child's stdout: it scans for the banner, drains
// the rest, and only then reaps the child, because os/exec forbids
// calling Wait while a read from the pipe may still be running.
package serveproc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// BootTimeout bounds how long Start waits for the banner and for the
// first healthy /healthz answer.
const BootTimeout = 20 * time.Second

// Proc is a running `fillvoid serve` child.
type Proc struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:40123".
	Base string
	cmd  *exec.Cmd
	// done receives the child's exit status once its stdout has been
	// drained and Wait has returned.
	done chan error
}

// ParseBanner extracts the base URL from the serve banner line
// ("fillvoid serve: listening on http://127.0.0.1:PORT (methods: ...)").
func ParseBanner(line string) (string, bool) {
	i := strings.Index(line, "http://")
	if i < 0 || !strings.Contains(line[:i], "listening on") {
		return "", false
	}
	addr := line[i:]
	if j := strings.IndexByte(addr, ' '); j >= 0 {
		addr = addr[:j]
	}
	if addr == "http://" {
		return "", false
	}
	return addr, true
}

// Start runs `bin serve -addr 127.0.0.1:0 args...`, parses the bound
// address from its banner and waits for /healthz to answer 200. An
// -addr in args overrides the ephemeral port, since the last value of
// a flag wins. The child's stderr goes to stderr. On error the child
// has been stopped and reaped.
func Start(ctx context.Context, bin string, args []string, stderr io.Writer) (*Proc, error) {
	cmd := exec.Command(bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("serveproc: stdout pipe: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("serveproc: starting %s serve: %w", bin, err)
	}
	p := &Proc{cmd: cmd, done: make(chan error, 1)}
	banner := make(chan string, 1)
	//lint:allow rawgoroutine: owns the child's stdout; ends when the child exits and Stop waits for it via done
	go func() {
		sc := bufio.NewScanner(stdout)
		found := false
		for sc.Scan() {
			if addr, ok := ParseBanner(sc.Text()); ok && !found {
				found = true
				banner <- addr
			}
		}
		// Drain anything the scanner gave up on, then reap the child:
		// Wait must not run before every read from the pipe has ended.
		//lint:allow errdrop: the pipe closes with the child, whose exit status Wait reports
		io.Copy(io.Discard, stdout)
		p.done <- cmd.Wait()
		close(p.done)
	}()

	deadline := time.NewTimer(BootTimeout)
	defer deadline.Stop()
	select {
	case p.Base = <-banner:
	case err := <-p.done:
		return nil, fmt.Errorf("serveproc: serve exited before printing its address: %v", err)
	case <-deadline.C:
		p.kill()
		return nil, errors.New("serveproc: timed out waiting for the serve banner")
	case <-ctx.Done():
		p.kill()
		return nil, ctx.Err()
	}
	if err := p.waitHealthy(ctx); err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

func (p *Proc) waitHealthy(ctx context.Context) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(BootTimeout)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.Base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			//lint:allow errdrop: health poll of an empty body; only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("serveproc: server not healthy within %s: %v", BootTimeout, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Stop sends SIGTERM, waits up to timeout for a graceful drain, then
// kills the child. It returns once the child has exited and its output
// reader has finished; the error reports an unclean exit.
func (p *Proc) Stop(timeout time.Duration) error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		// Already exited: collect the status.
		return <-p.done
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case err := <-p.done:
		return err
	case <-t.C:
		p.kill()
		return fmt.Errorf("serveproc: serve did not exit within %s of SIGTERM", timeout)
	}
}

// kill stops the child immediately and waits for it to be reaped.
func (p *Proc) kill() {
	//lint:allow errdrop: fails only when the child already exited, which done then reports
	p.cmd.Process.Kill()
	<-p.done
}
