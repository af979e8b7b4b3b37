package service

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"relpipe"
)

// sseFrame renders one event exactly as the service puts it on the
// wire.
func sseFrame(event, data string) string {
	return "event: " + event + "\ndata: " + data + "\n\n"
}

// readSSEFrame reads one raw event frame, blank-line terminator
// included.
func readSSEFrame(t *testing.T, br *bufio.Reader) string {
	t.Helper()
	var b strings.Builder
	for {
		line, err := br.ReadString('\n')
		b.WriteString(line)
		if err != nil {
			t.Fatalf("stream ended mid-frame after %q: %v", b.String(), err)
		}
		if line == "\n" {
			return b.String()
		}
	}
}

// getOK GETs url and returns the raw body of its 200 answer.
func getOK(t *testing.T, url string) string {
	t.Helper()
	code, body := getBody(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, code, body)
	}
	return body
}

// openStream GETs an SSE endpoint and checks the stream headers.
func openStream(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct, cc := resp.Header.Get("Content-Type"), resp.Header.Get("Cache-Control"); ct != "text/event-stream" || cc != "no-cache" {
		t.Fatalf("stream headers Content-Type=%q Cache-Control=%q", ct, cc)
	}
	return resp
}

// TestSSEWireBytes pins the exact bytes of both event streams. The job
// stream opens with a "progress" frame carrying the document GET
// /v1/jobs/{id} answers at that moment, every later frame is a
// "progress" frame whose data is a compact JobStatus, and the stream
// ends with a "done" frame carrying the terminal document byte for
// byte. The fleet stream of an idle deployment that is then removed is
// exactly status, one decision frame per logged decision, and
// deregistered.
func TestSSEWireBytes(t *testing.T) {
	t.Run("job", func(t *testing.T) {
		s, ts := newTestServer(t, Options{Workers: 1, CacheSize: -1})
		// Hold the only worker so the job is still queued when the
		// stream attaches.
		block, started := make(chan struct{}), make(chan struct{})
		release := sync.OnceFunc(func() { close(block) })
		t.Cleanup(release)
		go s.pool.DoWait(context.Background(), func() (any, error) { close(started); <-block; return nil, nil })
		<-started
		st := submitJobHTTP(t, ts.URL, "frontier", relpipe.FrontierRequest{Instance: testInstance(1)}, "pin")
		jobURL := ts.URL + "/v1/jobs/" + st.ID
		queued := getOK(t, jobURL)

		br := bufio.NewReader(openStream(t, jobURL+"/events").Body)
		if got, want := readSSEFrame(t, br), sseFrame("progress", queued); got != want {
			t.Fatalf("first frame:\n got %q\nwant %q", got, want)
		}
		release()
		rest, err := io.ReadAll(br)
		if err != nil {
			t.Fatal(err)
		}
		frames := strings.SplitAfter(string(rest), "\n\n")
		if frames[len(frames)-1] != "" {
			t.Fatalf("stream does not end on a frame boundary: %q", rest)
		}
		frames = frames[:len(frames)-1]
		if got, want := frames[len(frames)-1], sseFrame("done", getOK(t, jobURL)); got != want {
			t.Fatalf("last frame:\n got %q\nwant %q", got, want)
		}
		for _, f := range frames[:len(frames)-1] {
			data, ok := strings.CutPrefix(strings.TrimSuffix(f, "\n\n"), "event: progress\ndata: ")
			var doc relpipe.JobStatus
			if !ok || json.Unmarshal([]byte(data), &doc) != nil || mustJSON(t, doc) != data {
				t.Fatalf("middle frame %q is not a compact progress document", f)
			}
		}
	})

	t.Run("fleet", func(t *testing.T) {
		_, ts := newTestServer(t, Options{FleetTick: time.Hour})
		if code := postJSON(t, ts.URL+"/v1/fleet/deployments", fleetTestSetup(t, "pin"), nil); code != http.StatusCreated {
			t.Fatalf("register = %d", code)
		}
		depURL := ts.URL + "/v1/fleet/deployments/pin"
		status := getOK(t, depURL)
		var log struct{ Decisions []json.RawMessage }
		if err := json.Unmarshal([]byte(status), &log); err != nil || len(log.Decisions) == 0 {
			t.Fatalf("status decisions: %v %s", err, status)
		}
		want := sseFrame("status", status)
		for _, d := range log.Decisions {
			want += sseFrame("decision", string(d))
		}
		want += sseFrame("deregistered", `{"id":"pin"}`)

		br := bufio.NewReader(openStream(t, depURL+"/events").Body)
		var got strings.Builder
		for range 1 + len(log.Decisions) {
			got.WriteString(readSSEFrame(t, br))
		}
		req, _ := http.NewRequest(http.MethodDelete, depURL, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		rest, err := io.ReadAll(br)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(rest)
		if got.String() != want {
			t.Fatalf("fleet stream:\n got %q\nwant %q", got.String(), want)
		}
	})
}
