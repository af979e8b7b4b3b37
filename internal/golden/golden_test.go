package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeTB records what the harness reports instead of failing the test
// that drives it.
type fakeTB struct {
	testing.TB
	errors, logs []string
}

func (f *fakeTB) Helper() {}

func (f *fakeTB) Errorf(format string, args ...any) {
	f.errors = append(f.errors, fmt.Sprintf(format, args...))
}

func (f *fakeTB) Logf(format string, args ...any) {
	f.logs = append(f.logs, fmt.Sprintf(format, args...))
}

// answer is a producer whose bytes are the same at every parallelism.
func answer(int) map[string][]byte {
	return map[string][]byte{"a": []byte("one\ntwo\n"), "b": []byte("three\n")}
}

// TestCheck runs the harness on and off the pinned architecture: a
// producer whose bytes differ at parallelism 8 fails on both, as does
// an output without a pin; a wrong digest or file fails only where pins
// are compared; and off it, a log line says why they were not.
func TestCheck(t *testing.T) {
	dir := t.TempDir()
	pinFile := func(name, body string) Pin {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return File(path)
	}
	good := map[string]Pin{"a": pinFile("a.txt", "one\ntwo\n"), "b": Digest(Sum([]byte("three\n")))}
	leaky := func(p int) map[string][]byte {
		out := answer(p)
		if p == 8 {
			out["a"] = []byte("one\ntwo8\n")
		}
		return out
	}
	for _, c := range []struct {
		name    string
		pins    map[string]Pin
		produce func(int) map[string][]byte
		on, off string // what the one error holds on and off the pinned architecture; "" for none
	}{
		{"match", good, answer, "", ""},
		{"P=8 differs", good, leaky, `a: differs between parallelism 1 and 8 at line 2, byte 7:` + "\n\tP=1: \"two\"\n\tP=8: \"two8\"",
			`a: differs between parallelism 1 and 8 at line 2, byte 7:`},
		{"wrong digest", map[string]Pin{"a": good["a"], "b": Digest("f00")}, answer, "b: digest " + Sum([]byte("three\n")) + ", golden f00", ""},
		{"wrong file", map[string]Pin{"a": pinFile("A.txt", "one\nTwo\n"), "b": good["b"]}, answer, "A.txt at line 2, byte 4:\n\tgot: \"two\"\n\twant: \"Two\"", ""},
		{"missing file", map[string]Pin{"a": File(filepath.Join(dir, "missing.txt")), "b": good["b"]}, answer, "missing.txt", ""},
		{"output without a pin", map[string]Pin{"a": good["a"]}, answer, "b: produced at parallelism 1: true, at 8: true; pinned: false",
			"b: produced at parallelism 1: true, at 8: true; pinned: false"},
		{"pin without an output", map[string]Pin{"a": good["a"], "b": good["b"], "c": good["b"]}, answer,
			"c: produced at parallelism 1: false, at 8: false; pinned: true", "c: produced at parallelism 1: false, at 8: false; pinned: true"},
	} {
		for _, unpinned := range []string{"", "off the pinned architecture"} {
			want := c.on
			if unpinned != "" {
				want = c.off
			}
			f := &fakeTB{}
			got := check(f, unpinned, c.pins, c.produce)
			switch {
			case want == "" && len(f.errors) != 0, want != "" && (len(f.errors) != 1 || !strings.Contains(f.errors[0], want)):
				t.Errorf("%s, unpinned %q: errors %q, want one holding %q (none for \"\")", c.name, unpinned, f.errors, want)
			case (len(f.logs) == 1) != (unpinned != ""):
				t.Errorf("%s, unpinned %q: logs %q", c.name, unpinned, f.logs)
			case string(got["a"]) != "one\ntwo\n":
				t.Errorf("%s: returned %q, want the outputs at parallelism 1", c.name, got)
			}
		}
	}
}
