package relpipe

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// transport is the HTTP plumbing JobsClient and FleetClient share: JSON
// calls that turn the service's error document into an error, and one
// Server-Sent Events reader.
type transport struct {
	base string       // service root, no trailing slash
	hc   *http.Client // never nil
	area string       // error prefix: "jobs" or "fleet"
}

func newTransport(base string, hc *http.Client, area string) transport {
	if hc == nil {
		hc = http.DefaultClient
	}
	return transport{base: strings.TrimRight(base, "/"), hc: hc, area: area}
}

// apiError converts an unexpected answer into an error carrying the
// service's error text when the body is an ErrorResponse.
func (t transport) apiError(status int, body []byte) error {
	var e ErrorResponse
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s (HTTP %d)", t.area, e.Error, status)
	}
	return fmt.Errorf("%s: HTTP %d", t.area, status)
}

// call sends in (JSON-encoded when non-nil) to path and decodes the
// answer into out (when non-nil) if its status is want.
func (t transport) call(ctx context.Context, method, path string, in, out any, want int) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, t.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return t.apiError(resp.StatusCode, b)
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

// stream opens path as a Server-Sent Events stream and hands fn every
// event that carries data, until fn reports done or fails. A stream
// that ends first returns ctx's error when ctx is done, else
// io.ErrUnexpectedEOF.
func (t transport) stream(ctx context.Context, path string, fn func(event string, data []byte) (done bool, err error)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := t.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return t.apiError(resp.StatusCode, b)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	event, data := "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case line == "" && data != "":
			if done, err := fn(event, []byte(data)); done || err != nil {
				return err
			}
			event, data = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return io.ErrUnexpectedEOF
}
