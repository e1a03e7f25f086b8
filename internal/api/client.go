package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"lazyrc/internal/exp"
	"lazyrc/internal/obs"
	"lazyrc/internal/runner"
)

// Client is a typed client for the lrcsimd HTTP API.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:7077".
	Base string
	// HTTPClient overrides http.DefaultClient when non-nil. Streaming
	// endpoints need a client without a global timeout.
	HTTPClient *http.Client
}

func (c *Client) hc() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

// do issues one JSON request; out, when non-nil, receives the decoded
// response body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("api: %s %s: %s: %s%s", method, path, resp.Status,
			strings.TrimSpace(string(msg)), requestIDSuffix(resp))
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// requestIDSuffix renders the response's X-Request-Id for error
// messages, so a client-side failure names the exact server-side log
// lines to grep.
func requestIDSuffix(resp *http.Response) string {
	if id := resp.Header.Get(obs.RequestIDHeader); id != "" {
		return " (request_id " + id + ")"
	}
	return ""
}

// Health probes the daemon's liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Readyz probes the daemon's readiness endpoint: an error means the
// daemon is absent, starting, or draining — stop routing work to it.
func (c *Client) Readyz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}

// Metrics fetches the daemon's Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) ([]byte, error) {
	return c.raw(ctx, "/metrics")
}

// SubmitSweep submits a sweep spec (idempotent: an identical spec
// returns the existing record).
func (c *Client) SubmitSweep(ctx context.Context, spec exp.Spec) (SweepStatus, error) {
	var st SweepStatus
	err := c.do(ctx, http.MethodPost, "/api/v1/sweeps", spec, &st)
	return st, err
}

// Sweep fetches one sweep's status.
func (c *Client) Sweep(ctx context.Context, id string) (SweepStatus, error) {
	var st SweepStatus
	err := c.do(ctx, http.MethodGet, "/api/v1/sweeps/"+id, nil, &st)
	return st, err
}

// Sweeps lists all sweeps.
func (c *Client) Sweeps(ctx context.Context) ([]SweepStatus, error) {
	var out []SweepStatus
	err := c.do(ctx, http.MethodGet, "/api/v1/sweeps", nil, &out)
	return out, err
}

// CancelSweep cancels a sweep.
func (c *Client) CancelSweep(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/api/v1/sweeps/"+id, nil, nil)
}

// SweepReport fetches a finished sweep's stable report JSON.
func (c *Client) SweepReport(ctx context.Context, id string) ([]byte, error) {
	return c.raw(ctx, "/api/v1/sweeps/"+id+"/report.json")
}

// SweepHTML fetches a finished sweep's HTML report.
func (c *Client) SweepHTML(ctx context.Context, id string) ([]byte, error) {
	return c.raw(ctx, "/api/v1/sweeps/"+id+"/report.html")
}

// SweepCells fetches a sweep's expansion: the fingerprint of every cell
// it names, by cell key (variant/app/protocol).
func (c *Client) SweepCells(ctx context.Context, id string) (map[string]string, error) {
	var cells map[string]string
	err := c.do(ctx, http.MethodGet, "/api/v1/sweeps/"+id+"/cells", nil, &cells)
	return cells, err
}

// JobTrace fetches the Perfetto trace of a cell some sweep names, by its
// fingerprint (the daemon re-runs it with span retention).
func (c *Client) JobTrace(ctx context.Context, fp string) ([]byte, error) {
	return c.raw(ctx, "/api/v1/jobs/"+fp+"/trace")
}

func (c *Client) raw(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("api: GET %s: %s: %s%s", path, resp.Status,
			strings.TrimSpace(string(msg)), requestIDSuffix(resp))
	}
	return io.ReadAll(resp.Body)
}

// Job fetches a stored result by fingerprint.
func (c *Client) Job(ctx context.Context, fp string) (*runner.Result, error) {
	var res runner.Result
	err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+fp, nil, &res)
	return &res, err
}

// Stats fetches the daemon's counters.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var st StatsResponse
	err := c.do(ctx, http.MethodGet, "/api/v1/stats", nil, &st)
	return st, err
}

// WaitSweep follows a sweep's SSE stream until the terminal "sweep"
// event arrives, forwarding each job event to onEvent (which may be
// nil). It returns the sweep's terminal status.
func (c *Client) WaitSweep(ctx context.Context, id string, onEvent func(runner.Event)) (SweepStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/api/v1/sweeps/"+id+"/events"), nil)
	if err != nil {
		return SweepStatus{}, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc().Do(req)
	if err != nil {
		return SweepStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return SweepStatus{}, fmt.Errorf("api: sweep events: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}

	var final *SweepStatus
	err = readSSE(resp.Body, func(name string, data []byte) error {
		switch name {
		case "job":
			if onEvent != nil {
				var ev runner.Event
				if err := json.Unmarshal(data, &ev); err == nil {
					onEvent(ev)
				}
			}
		case "sweep":
			var st SweepStatus
			if err := json.Unmarshal(data, &st); err != nil {
				return err
			}
			final = &st
		}
		return nil
	})
	if final != nil {
		return *final, nil
	}
	if err == nil {
		// Stream ended without a terminal event (daemon shut its bus
		// down mid-sweep); fall back to one status read.
		return c.Sweep(ctx, id)
	}
	return SweepStatus{}, err
}

// readSSE parses a Server-Sent-Events stream, invoking handle once per
// event with the event name and the concatenated data payload. Returns
// nil at a clean end of stream, or handle's first error.
func readSSE(r io.Reader, handle func(name string, data []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	name := ""
	var data []byte
	flush := func() error {
		if len(data) == 0 && name == "" {
			return nil
		}
		err := handle(name, data)
		name, data = "", nil
		return err
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				return err
			}
		case strings.HasPrefix(line, "event:"):
			name = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			if len(data) > 0 {
				data = append(data, '\n')
			}
			data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:"))...)
		}
	}
	if err := flush(); err != nil {
		return err
	}
	return sc.Err()
}
