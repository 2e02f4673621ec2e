package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
	"fillvoid/internal/server"
)

// requestTimeout is the client-side limit after which a request counts
// as failed.
const requestTimeout = 5 * time.Second

// client talks to one server over one kept-alive connection: the
// workloads send one request at a time.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response. A non-2xx status
// is an error. wire is request plus response body bytes.
func (c *client) do(ctx context.Context, method, path string, body []byte) (resp []byte, wire int, err error) {
	r, err := c.send(ctx, method, path, body)
	if err != nil {
		return nil, len(body), err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	wire = len(body) + len(resp)
	if err != nil {
		return nil, wire, fmt.Errorf("%s %s: reading response: %w", method, path, err)
	}
	return resp, wire, nil
}

func (c *client) send(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if r.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(r.Body, 512)) //lint:allow errdrop: the status is the error; the body is only a hint
		//lint:allow errdrop: response already failed; closing is best effort
		r.Body.Close()
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, r.StatusCode, bytes.TrimSpace(msg))
	}
	return r, nil
}

// postJSON posts body and decodes the response into into.
func (c *client) postJSON(ctx context.Context, path string, body []byte, into any) (wire int, err error) {
	resp, wire, err := c.do(ctx, http.MethodPost, path, body)
	if err != nil {
		return wire, err
	}
	if err := json.Unmarshal(resp, into); err != nil {
		return wire, fmt.Errorf("POST %s: decoding response: %w", path, err)
	}
	return wire, nil
}

// getJSON fetches path and decodes the response into into.
func (c *client) getJSON(ctx context.Context, path string, into any) error {
	resp, _, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(resp, into); err != nil {
		return fmt.Errorf("GET %s: decoding response: %w", path, err)
	}
	return nil
}

// uploadCloud posts an encoded cloud to /v1/clouds and checks the
// returned id is the cloud's content hash.
func (c *client) uploadCloud(ctx context.Context, body []byte, want recon.CloudHash) (wire int, err error) {
	var up server.UploadResponse
	if wire, err = c.postJSON(ctx, "/v1/clouds", body, &up); err != nil {
		return wire, err
	}
	if up.CloudID != want.String() {
		return wire, fmt.Errorf("upload returned cloud id %s, want %s", up.CloudID, want)
	}
	return wire, nil
}

// metricsCounters returns the server's telemetry counters.
func (c *client) metricsCounters(ctx context.Context) (map[string]int64, error) {
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := c.getJSON(ctx, "/metrics", &snap); err != nil {
		return nil, err
	}
	return snap.Counters, nil
}

// cloudBody encodes a cloud as the /v1/clouds wire form.
func cloudBody(c *pointcloud.Cloud) ([]byte, error) {
	cj := server.CloudJSON{Name: c.Name, Points: make([][3]float64, c.Len()), Values: c.Values}
	for i, p := range c.Points {
		cj.Points[i] = [3]float64{p.X, p.Y, p.Z}
	}
	return json.Marshal(&cj)
}

// gridJSON is the wire form of spec.
func gridJSON(spec recon.GridSpec) server.GridJSON {
	return server.GridJSON{
		Dims:    [3]int{spec.NX, spec.NY, spec.NZ},
		Origin:  &[3]float64{spec.Origin.X, spec.Origin.Y, spec.Origin.Z},
		Spacing: &[3]float64{spec.Spacing.X, spec.Spacing.Y, spec.Spacing.Z},
	}
}

// regionJSON is the wire form of region (nil for the full grid).
func regionJSON(spec recon.GridSpec, region recon.Region) server.RegionJSON {
	switch {
	case region.IsPoints():
		pts := make([][3]float64, len(region.Points))
		for i, p := range region.Points {
			pts[i] = [3]float64{p.X, p.Y, p.Z}
		}
		return server.RegionJSON{Points: pts}
	case region.IsFull(spec):
		return server.RegionJSON{}
	default:
		return server.RegionJSON{Box: &[6]int{region.I0, region.J0, region.K0, region.I1, region.J1, region.K1}}
	}
}

// reconstructBody encodes a /v1/reconstruct request against an
// uploaded cloud. Every workload builds its requests here, and the
// per-layer JSON probes decode the same bytes.
func reconstructBody(method string, cloud recon.CloudHash, spec recon.GridSpec, region recon.Region) ([]byte, error) {
	return json.Marshal(&server.ReconstructRequest{
		Method:  method,
		CloudID: cloud.String(),
		Grid:    gridJSON(spec),
		Region:  regionJSON(spec, region),
	})
}
