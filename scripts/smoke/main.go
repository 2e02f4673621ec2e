// Command smoke drives a built fillvoid binary end to end through one
// scenario per run:
//
//	go run ./scripts/smoke -bin ./fillvoid.smoke serve
//	go run ./scripts/smoke -bin ./fillvoid.smoke cluster
//	go run ./scripts/smoke -bin ./fillvoid.smoke train
//
// serve checks ROI reconstruction and the plan cache on one server,
// cluster checks that a three-replica fan-out equals a standalone
// server's answer bit for bit, and train checks that a training job
// SIGTERMed mid-run resumes to the uninterrupted model id. Each
// scenario runs under a deadline, so a hung server fails the run with
// the scenario and the step named. Any failure exits non-zero.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"time"

	"fillvoid/internal/serveproc"
)

// scenarios maps each scenario name to its driver and deadline.
var scenarios = map[string]struct {
	run      func(ctx context.Context, h *harness) error
	deadline time.Duration
}{
	"serve":   {serveScenario, time.Minute},
	"cluster": {clusterScenario, time.Minute},
	// The train scenario's own job waits add up to 5 minutes.
	"train": {trainScenario, 6 * time.Minute},
}

func main() {
	bin := flag.String("bin", "./fillvoid", "fillvoid binary to exercise")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: smoke [-bin path] serve|cluster|train")
		flag.PrintDefaults()
	}
	flag.Parse()
	sc, ok := scenarios[flag.Arg(0)]
	if flag.NArg() != 1 || !ok {
		flag.Usage()
		os.Exit(2)
	}
	name := flag.Arg(0)
	ctx, cancel := context.WithTimeout(context.Background(), sc.deadline)
	h := &harness{bin: *bin}
	err := sc.run(ctx, h)
	h.cleanup()
	cancel()
	if err != nil {
		fmt.Fprintf(os.Stderr, "smoke %s: FAIL: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Printf("smoke %s: PASS\n", name)
}

// harness boots the `fillvoid serve` children of one scenario.
type harness struct {
	bin      string
	children []*child
}

// child is one named `fillvoid serve` process.
type child struct {
	name string
	*serveproc.Proc
}

// start boots `bin serve args...` and waits until it is healthy.
func (h *harness) start(ctx context.Context, name string, args ...string) (*child, error) {
	p, err := serveproc.Start(ctx, h.bin, args, os.Stderr)
	if err != nil {
		return nil, fmt.Errorf("booting %s: %w", name, err)
	}
	c := &child{name: name, Proc: p}
	h.children = append(h.children, c)
	return c, nil
}

// cleanup stops every child a failed scenario left running; it returns
// at once for children already stopped.
func (h *harness) cleanup() {
	for _, c := range h.children {
		//lint:allow errdrop: the scenario's own result is the one reported; this only reaps leftovers
		c.Stop(time.Second)
	}
}

// stop SIGTERMs the child and requires a clean exit within timeout.
func (c *child) stop(timeout time.Duration) error {
	if err := c.Stop(timeout); err != nil {
		return fmt.Errorf("stopping %s: %w", c.name, err)
	}
	return nil
}

// client sends every request; its timeout fails a server that accepts
// a connection but never answers.
var client = &http.Client{Timeout: 30 * time.Second}

// call GETs url (POSTs body as JSON when it is non-nil) and decodes the
// answer into out. The status must be one of want, by default 200.
func call(ctx context.Context, url string, body, out any, want ...int) error {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		method, rd = http.MethodPost, bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if len(want) == 0 {
		want = []int{http.StatusOK}
	}
	if !slices.Contains(want, resp.StatusCode) {
		return fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, out)
}

// cloud is the /v1/clouds upload body.
type cloud struct {
	Name   string       `json:"name"`
	Points [][3]float64 `json:"points"`
	Values []float64    `json:"values"`
}

// randomCloud samples f at n seeded uniform points of the unit cube.
func randomCloud(seed int64, n int, f func(x, y, z float64) float64) *cloud {
	rng := rand.New(rand.NewSource(seed))
	c := &cloud{Name: "pressure"}
	for i := 0; i < n; i++ {
		x, y, z := rng.Float64(), rng.Float64(), rng.Float64()
		c.Points = append(c.Points, [3]float64{x, y, z})
		c.Values = append(c.Values, f(x, y, z))
	}
	return c
}

// upload posts c and returns its content-addressed id, checking that
// the server counted every point.
func upload(ctx context.Context, base string, c *cloud) (string, error) {
	var resp struct {
		CloudID string `json:"cloud_id"`
		Points  int    `json:"points"`
	}
	if err := call(ctx, base+"/v1/clouds", c, &resp); err != nil {
		return "", fmt.Errorf("uploading cloud: %w", err)
	}
	if resp.CloudID == "" || resp.Points != len(c.Points) {
		return "", fmt.Errorf("bad upload response %+v for %d points", resp, len(c.Points))
	}
	return resp.CloudID, nil
}

// grid16 is the 16x16x8 unit-cube grid every scenario reconstructs on,
// and roiBox an 8x8x4 box inside it.
var (
	grid16 = map[string]any{
		"dims":    [3]int{16, 16, 8},
		"spacing": [3]float64{1.0 / 15, 1.0 / 15, 1.0 / 7},
	}
	roiBox = map[string]any{"box": [6]int{4, 4, 2, 12, 12, 6}}
)

const roiLen = 8 * 8 * 4

// reconstruction is the /v1/reconstruct answer, with the fields any
// scenario checks.
type reconstruction struct {
	Method     string    `json:"method"`
	ModelID    string    `json:"model_id"`
	Values     []float64 `json:"values"`
	PlanCached bool      `json:"plan_cached"`
	Shards     int       `json:"shards"`
}
