// Package clitest runs the relpipe command in end-to-end tests: it
// builds cmd/relpipe once per test binary and runs it as a child
// process, so that a test sees exactly what a shell sees, exit status
// included. It also writes the instance and request files such tests
// read and serves a real solver service for the jobs and fleet
// subcommands. Tests alone import it; CI keeps it out of shipped
// binaries.
//
// A package that calls Run declares
//
//	func TestMain(m *testing.M) { clitest.Main(m) }
//
// so that the binary is removed once its tests end.
package clitest

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"

	"relpipe"
	"relpipe/internal/service"
)

var (
	// moduleDir is the directory the tests started in, inside the
	// module; the build runs there even if a test changes directory.
	moduleDir string
	binDir    string

	buildOnce sync.Once
	bin       string
	buildErr  error
)

// Main runs the package's tests, removes the relpipe binary they built
// and exits with the tests' status.
func Main(m *testing.M) {
	var err error
	if moduleDir, err = os.Getwd(); err != nil {
		panic(err)
	}
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// build compiles cmd/relpipe into a fresh temporary directory. go test
// puts its own toolchain first on the PATH of the tests it runs.
func build() {
	if moduleDir == "" {
		buildErr = errors.New("clitest: the package's TestMain must call clitest.Main")
		return
	}
	if binDir, buildErr = os.MkdirTemp("", "relpipe-clitest-"); buildErr != nil {
		return
	}
	bin = filepath.Join(binDir, "relpipe")
	cmd := exec.Command("go", "build", "-o", bin, "relpipe/cmd/relpipe")
	cmd.Dir = moduleDir
	if out, err := cmd.CombinedOutput(); err != nil {
		buildErr = errors.New("clitest: go build relpipe/cmd/relpipe: " + err.Error() + "\n" + string(out))
	}
}

// Run runs relpipe with args and returns its exit status, stdout and
// stderr. The process is killed if the test ends first.
func Run(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out bytes.Buffer
	code, stderr = RunTo(t, &out, args...)
	return code, out.String(), stderr
}

// RunTo is Run with relpipe's stdout on w; an *os.File, such as
// /dev/full, becomes the process's stdout itself.
func RunTo(t *testing.T, w io.Writer, args ...string) (code int, stderr string) {
	t.Helper()
	buildOnce.Do(build)
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	var errb bytes.Buffer
	cmd := exec.CommandContext(t.Context(), bin, args...)
	cmd.Stdout, cmd.Stderr = w, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("relpipe %q: %v", args, err)
	}
	return code, errb.String()
}

// WriteJSON marshals v into dir/name and returns the path.
func WriteJSON(t *testing.T, dir, name string, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// WriteInstance writes a seeded 8-task instance on 6 homogeneous
// processors to dir/inst.json and returns its path.
func WriteInstance(t *testing.T, dir string, seed uint64) string {
	t.Helper()
	return WriteJSON(t, dir, "inst.json", relpipe.Instance{
		Chain:    relpipe.RandomChain(seed, 8, 1, 100, 1, 10),
		Platform: relpipe.HomogeneousPlatform(6, 1, 1e-8, 1, 1e-5, 3),
	})
}

// StartService serves a real solver service over httptest until the
// test ends and returns its URL.
func StartService(t *testing.T) (string, *service.Server) {
	t.Helper()
	svc := service.NewServer(service.Options{Workers: 2})
	ts := httptest.NewServer(svc)
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return ts.URL, svc
}
