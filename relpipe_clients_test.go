package relpipe_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"relpipe"
)

// sseServer answers GET path with the given raw event-stream body.
func sseServer(t *testing.T, path, query, body string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != path || r.URL.RawQuery != query || r.Header.Get("Accept") != "text/event-stream" {
			http.Error(w, `{"error":"unexpected request"}`, http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestFleetClientWatch drives Watch over recorded streams: the status
// and decision callbacks fire in order, and the two terminal events
// map to ErrFleetDeregistered and ErrFleetShutdown.
func TestFleetClientWatch(t *testing.T) {
	const (
		status   = "event: status\ndata: {\"id\":\"d\",\"remaps\":0}\n\n"
		decision = "event: decision\ndata: {\"seq\":%d,\"kind\":\"registered\",\"proc\":-1}\n\n"
	)
	for _, tc := range []struct {
		name, tail string
		statuses   []uint64 // Remaps of each status callback
		want       error
	}{
		{"deregistered", "event: deregistered\ndata: {\"id\":\"d\"}\n\n", []uint64{0}, relpipe.ErrFleetDeregistered},
		{"shutdown", "event: shutdown\ndata: {\"id\":\"d\",\"remaps\":1}\n\n", []uint64{0, 1}, relpipe.ErrFleetShutdown},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := status + fmt.Sprintf(decision, 3) + fmt.Sprintf(decision, 4) + tc.tail
			ts := sseServer(t, "/v1/fleet/deployments/d/events", "after=2", body)
			c := &relpipe.FleetClient{BaseURL: ts.URL + "/"}
			var statuses []uint64
			var seqs []uint64
			err := c.Watch(context.Background(), "d", 2,
				func(st relpipe.FleetDeployment) { statuses = append(statuses, st.Remaps) },
				func(d relpipe.FleetDecision) { seqs = append(seqs, d.Seq) })
			if !errors.Is(err, tc.want) {
				t.Fatalf("Watch = %v, want %v", err, tc.want)
			}
			if fmt.Sprint(statuses) != fmt.Sprint(tc.statuses) || fmt.Sprint(seqs) != "[3 4]" {
				t.Fatalf("statuses %v decisions %v", statuses, seqs)
			}
		})
	}

	t.Run("error", func(t *testing.T) {
		ts := sseServer(t, "/v1/fleet/deployments/other/events", "", "")
		c := &relpipe.FleetClient{BaseURL: ts.URL}
		err := c.Watch(context.Background(), "d", 0, nil, nil)
		if err == nil || !strings.Contains(err.Error(), "unexpected request") {
			t.Fatalf("Watch = %v, want the server's error text", err)
		}
	})
}

// TestJobsClientListError: a non-200 listing reports the server's error
// document, like every other JobsClient call.
func TestJobsClientListError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"jobs: server is draining"}`)
	}))
	defer ts.Close()
	c := &relpipe.JobsClient{BaseURL: ts.URL}
	_, err := c.List(context.Background(), "me")
	if err == nil || !strings.Contains(err.Error(), "server is draining") || !strings.Contains(err.Error(), "503") {
		t.Fatalf("List = %v, want the server's error text and status", err)
	}
}

// TestJobsClientWatch drives Watch over recorded streams: every status
// frame reaches the callback, "done" returns the terminal status and
// "shutdown" returns ErrJobShutdown.
func TestJobsClientWatch(t *testing.T) {
	const progress = "event: progress\ndata: {\"id\":\"j\",\"state\":\"running\"}\n\n"
	for _, tc := range []struct {
		name, tail string
		state      relpipe.JobState
		want       error
	}{
		{"done", "event: done\ndata: {\"id\":\"j\",\"state\":\"succeeded\"}\n\n", relpipe.JobSucceeded, nil},
		{"shutdown", "event: shutdown\ndata: {\"id\":\"j\",\"state\":\"running\"}\n\n", relpipe.JobRunning, relpipe.ErrJobShutdown},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := sseServer(t, "/v1/jobs/j/events", "", progress+tc.tail)
			c := &relpipe.JobsClient{BaseURL: ts.URL}
			seen := 0
			last, err := c.Watch(context.Background(), "j", func(relpipe.JobStatus) { seen++ })
			if !errors.Is(err, tc.want) || last.State != tc.state || seen != 2 {
				t.Fatalf("Watch = %+v, %v after %d callbacks; want state %s, %v after 2", last, err, seen, tc.state, tc.want)
			}
		})
	}
}
