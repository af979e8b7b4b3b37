package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conns is the number of keep-alive connections (and sending
// goroutines) of every phase: one per core of the machine the
// benchmark was sized on.
const conns = 2

// client sends workload requests to one node over at most conns
// keep-alive connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do posts one request and returns the status and response body; a
// transport error is reported as status 0.
func (c *client) do(ctx context.Context, q request) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/"+q.kind, bytes.NewReader(q.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// outcome is one sent request as the gate and the metrics see it.
type outcome struct {
	q       request
	status  int    // 0 on a transport error
	body    []byte // kept for sampled and failed requests only
	latency time.Duration
}

// phaseResult is what one load phase measured.
type phaseResult struct {
	attempted, ok int
	latencies     []float64 // successful requests, milliseconds
	lateness      []float64 // generator lateness samples, milliseconds
	checked       []outcome // sampled 200s and every non-200, for the gate
	elapsed       time.Duration
}

// failed returns the phase's non-200 and transport-error count.
func (p phaseResult) failed() int { return p.attempted - p.ok }

// sampleIndices picks k requests spread evenly over jobs, skipping
// bodies already picked, for the correctness gate.
func sampleIndices(jobs []request, k int) map[int]bool {
	picked := map[int]bool{}
	seen := map[string]bool{}
	stride := max(len(jobs)/k, 1)
	for i := 0; i < len(jobs) && len(picked) < k; i += stride {
		for j := i; j < len(jobs) && j < i+stride; j++ {
			if !seen[string(jobs[j].body)] {
				seen[string(jobs[j].body)] = true
				picked[j] = true
				break
			}
		}
	}
	return picked
}

// gateSamples is how many distinct open-loop requests of a workload
// run the correctness gate re-solves in-process.
const gateSamples = 32

// openLoop sends the arrivals on their schedule over conns connections
// and times each request from its due time, so a stall also charges the
// wait it imposes on the requests queued behind it. Generator lateness
// (send time minus due time) is sampled only for requests that found a
// connection free, so it measures the generator, not the server. It
// keeps the answers of samples distinct requests for the gate.
func openLoop(ctx context.Context, c *client, arrivals []arrival, samples int) phaseResult {
	type job struct {
		due time.Duration
		q   request
	}
	var jobs []job
	var flat []request
	for _, a := range arrivals {
		for _, q := range a.reqs {
			jobs = append(jobs, job{a.due, q})
			flat = append(flat, q)
		}
	}
	keep := sampleIndices(flat, samples)
	outs := make([]outcome, len(jobs))
	lateness := make([]float64, 0, len(jobs))
	ch := make(chan int, len(jobs)) // sized to the number of sends
	var idle atomic.Int32
	idle.Store(conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				idle.Add(-1)
				status, body, _ := c.do(ctx, jobs[i].q)
				o := outcome{q: jobs[i].q, status: status, latency: time.Since(start) - jobs[i].due}
				if status != http.StatusOK || keep[i] {
					o.body = body
				}
				outs[i] = o
				idle.Add(1)
			}
		}()
	}
	func() {
		// The slice is restored before the thread is unlocked: a thread
		// must never be destroyed (as it would be if its locked goroutine
		// exited), since servers started from it carry Pdeathsig, which
		// fires on the death of the forking thread.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		if setSlice(generatorSliceNs) == nil {
			defer setSlice(0)
		}
		for i, j := range jobs {
			sleepUntil(ctx, start.Add(j.due))
			if ctx.Err() != nil {
				return
			}
			if idle.Load() > 0 {
				lateness = append(lateness, ms(time.Since(start)-j.due))
			}
			ch <- i
		}
	}()
	close(ch)
	wg.Wait()
	res := phaseResult{lateness: lateness, elapsed: time.Since(start)}
	for i, o := range outs {
		if o.q.kind == "" {
			continue // never sent: the run was interrupted
		}
		res.add(o, keep[i])
	}
	return res
}

// sleepUntil blocks the calling goroutine's thread until t or until ctx
// is done. It does not use a Go timer: an idle Go process services its
// timers from the network poller, whose wait has millisecond
// granularity, which would make every open-loop send up to 1 ms late.
// nanosleep wakes within the kernel's timer slack (about 50 µs).
func sleepUntil(ctx context.Context, t time.Time) {
	for ctx.Err() == nil {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		// Sleep in slices of at most 10 ms so a cancelled run stops soon.
		ts := syscall.NsecToTimespec(int64(min(d, 10*time.Millisecond)))
		syscall.Nanosleep(&ts, nil)
	}
}

func (p *phaseResult) add(o outcome, keep bool) {
	p.attempted++
	if o.status == http.StatusOK {
		p.ok++
		p.latencies = append(p.latencies, ms(o.latency))
	}
	if o.status != http.StatusOK || keep {
		p.checked = append(p.checked, o)
	}
}

// closedLoop runs conns clients for d, each sending its next request as
// soon as the previous one completes, and counts completions within d.
func closedLoop(ctx context.Context, c *client, s *stream, d time.Duration, clients int) phaseResult {
	var mu sync.Mutex
	var res phaseResult
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				mu.Lock()
				q := s.next()
				mu.Unlock()
				t0 := time.Now()
				status, body, _ := c.do(ctx, q)
				if time.Now().After(deadline) {
					return
				}
				mu.Lock()
				res.add(outcome{q: q, status: status, body: body, latency: time.Since(t0)}, false)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = d
	return res
}

// sendAll sends requests over conns connections as fast as they
// complete (the setup prefill and warm-up) and fails on any non-200.
func sendAll(ctx context.Context, c *client, reqs []request) error {
	var next atomic.Int64
	errs := make(chan error, conns)
	for w := 0; w < conns; w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || ctx.Err() != nil {
					errs <- ctx.Err()
					return
				}
				status, body, err := c.do(ctx, reqs[i])
				if err != nil || status != http.StatusOK {
					next.Store(int64(len(reqs))) // stop the other sender
					errs <- fmt.Errorf("setup %s request %d: status %d: %v %s", reqs[i].kind, i, status, err, truncate(body))
					return
				}
			}
		}()
	}
	var first error
	for w := 0; w < conns; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}
