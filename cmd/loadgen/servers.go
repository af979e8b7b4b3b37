package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServe compiles cmd/serve from the repository in the working
// directory into dir. The build is never timed.
func buildServe(ctx context.Context, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/serve")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build cmd/serve: %w", err)
	}
	return bin, nil
}

// node is one running cmd/serve process.
type node struct {
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
	err  error         // the exit status, valid after done
}

// cluster is the set of server processes one workload phase runs
// against; load enters nodes[0].
type cluster struct {
	nodes []*node
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// clusterPorts are the loopback ports of a two-node cluster, tried in
// order while one is taken. Each pair makes the service's consistent-hash
// ring split the key space evenly between the nodes. Node addresses are
// the ring's input, and over random ports a two-node split ranges from
// 6% to 85% of the keys, and with it which node does the work. The
// ports lie below the kernel's ephemeral range.
var clusterPorts = [][2]int{{23024, 23025}, {22100, 22101}, {21940, 21941}, {22956, 22957}}

// startCluster starts n cmd/serve processes with default flags plus
// -traces traces (and -peers/-self when n > 1) and waits until every
// node's /readyz answers 200. A port taken by another process shows up
// as an early exit, and the start is retried on other ports.
func startCluster(ctx context.Context, bin string, n, traces int) (*cluster, error) {
	var err error
	for attempt := range clusterPorts {
		var ports []int
		if ports, err = nodePorts(n, attempt); err != nil {
			return nil, err
		}
		var c *cluster
		if c, err = tryStart(ctx, bin, ports, traces); err == nil {
			return c, nil
		}
		if ctx.Err() != nil {
			break
		}
	}
	return nil, err
}

// nodePorts returns the ports of an n-node start: a pair from
// clusterPorts for two nodes, free ports otherwise.
func nodePorts(n, attempt int) ([]int, error) {
	if n == 2 {
		return clusterPorts[attempt][:], nil
	}
	ports := make([]int, n)
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, err
		}
		ports[i] = p
	}
	return ports, nil
}

func tryStart(ctx context.Context, bin string, ports []int, traces int) (*cluster, error) {
	urls := make([]string, len(ports))
	for i, p := range ports {
		urls[i] = "http://127.0.0.1:" + strconv.Itoa(p)
	}
	c := &cluster{}
	for _, u := range urls {
		args := []string{"-addr", strings.TrimPrefix(u, "http://"), "-traces", strconv.Itoa(traces)}
		if len(urls) > 1 {
			args = append(args, "-peers", strings.Join(urls, ","), "-self", u)
		}
		cmd := exec.Command(bin, args...)
		// Server logs go nowhere (nil Stdout/Stderr is /dev/null); the
		// kernel kills the server if the benchmark dies first.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			c.stop()
			return nil, fmt.Errorf("start %s: %w", bin, err)
		}
		nd := &node{url: u, cmd: cmd, done: make(chan struct{})}
		go func() {
			nd.err = cmd.Wait()
			close(nd.done)
		}()
		c.nodes = append(c.nodes, nd)
	}
	for _, nd := range c.nodes {
		if err := nd.waitReady(ctx); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// waitReady polls /readyz until it answers 200, the process exits, or
// ten seconds pass.
func (nd *node) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-nd.done:
			return fmt.Errorf("server %s exited before it was ready: %v", nd.url, nd.err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := http.Get(nd.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server %s not ready after 10s", nd.url)
}

// stop terminates every node and waits for it to exit: SIGTERM first
// (graceful shutdown), SIGKILL after five seconds.
func (c *cluster) stop() {
	for _, nd := range c.nodes {
		nd.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, nd := range c.nodes {
		select {
		case <-nd.done:
		case <-time.After(5 * time.Second):
			nd.cmd.Process.Kill()
			<-nd.done
		}
	}
	c.nodes = nil
}

// cpuTicks returns the summed user+system CPU time of every node, in
// clock ticks (USER_HZ, 100 per second on Linux).
func (c *cluster) cpuTicks() (int64, error) {
	var total int64
	for _, nd := range c.nodes {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", nd.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name: state is field 3,
		// utime and stime are fields 14 and 15.
		s := string(b)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) < 13 {
			return 0, fmt.Errorf("short /proc stat line for pid %d", nd.cmd.Process.Pid)
		}
		for _, field := range f[11:13] {
			v, err := strconv.ParseInt(field, 10, 64)
			if err != nil {
				return 0, err
			}
			total += v
		}
	}
	return total, nil
}

const ticksPerSecond = 100

// peakRSSMB returns the summed peak resident set (VmHWM) of every node,
// in MiB.
func (c *cluster) peakRSSMB() (float64, error) {
	var kb int64
	for _, nd := range c.nodes {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", nd.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) == 0 {
					break
				}
				v, err := strconv.ParseInt(f[0], 10, 64)
				if err != nil {
					return 0, err
				}
				kb += v
				found = true
				break
			}
		}
		if !found {
			return 0, errors.New("VmHWM missing from /proc status")
		}
	}
	return float64(kb) / 1024, nil
}

// get fetches a monitoring document from a node.
func (nd *node) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, nd.url+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s%s: status %d", nd.url, path, resp.StatusCode)
	}
	return b, nil
}
