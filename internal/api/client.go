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

// send issues one request with in, when non-nil, as its JSON body, and
// returns the response to a 2xx answer; any other status is an error
// quoting the start of the body. The caller closes the body.
func (c *Client) send(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(c.Base, "/")+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("api: %s %s: %s: %s%s", method, path, resp.Status,
			strings.TrimSpace(string(msg)), requestIDSuffix(resp))
	}
	return resp, nil
}

// do issues one JSON request; out, when non-nil, receives the decoded
// response body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	resp, err := c.send(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
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

func (c *Client) raw(ctx context.Context, path string) ([]byte, error) {
	resp, err := c.send(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// A declared length (the report routes declare theirs) is read in
	// one allocation, up to 64 MB; a larger claim is not trusted with one.
	if n := resp.ContentLength; n >= 0 && n <= 64<<20 {
		b := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	return io.ReadAll(resp.Body)
}

// WaitSweep follows a sweep's SSE stream until the terminal "sweep"
// event arrives, forwarding each job event to onEvent (which may be
// nil). It returns the sweep's terminal status.
func (c *Client) WaitSweep(ctx context.Context, id string, onEvent func(runner.Event)) (SweepStatus, error) {
	resp, err := c.send(ctx, http.MethodGet, "/api/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		return SweepStatus{}, err
	}
	defer resp.Body.Close()

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
	sc.Buffer(nil, 16<<20) // starts at 4 KB; a status with many cells grows it
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
