package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relpipe"
	"relpipe/internal/clitest"
	"relpipe/internal/golden"
)

// runCLI runs relpipe in-process and returns its exit status, stdout
// and stderr.
func runCLI(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// readJSONFile decodes the JSON file at path into v.
func readJSONFile(t *testing.T, path string, v any) {
	t.Helper()
	if err := readJSON(path, v); err != nil {
		t.Fatal(err)
	}
}

// cliGolden is the table of TestCLIGolden. Each case runs in one shared
// directory, in order, and names its files relative to it. stdout and
// file are the SHA-256 of the output and of the -o/-csv file out. They
// were recorded with the seven commands that relpipe's subcommands
// replaced: relpipe for optimize, evaluate and generate, and one binary
// each for the others.
var cliGolden = []struct {
	name     string
	args     []string
	parallel bool // also takes -parallel; the digests hold at 1 and 8
	out      string
	stdout   string
	file     string
}{
	{name: "generate-hom", out: "hom.json",
		args:   []string{"generate", "-tasks", "10", "-procs", "6", "-seed", "3", "-o", "hom.json"},
		stdout: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		file:   "08f7cb0da85d88a1e12f858fd38db42f3f09c93433b2c66d6e607ccf8203d4ef"},
	{name: "generate-het", out: "het.json",
		args:   []string{"generate", "-tasks", "40", "-procs", "12", "-seed", "5", "-het", "-o", "het.json"},
		stdout: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		file:   "eafc6f1d03a16a5da1187cc95ba36b5ce77e0e81e657dd336e9b1b7675aa17be"},
	{name: "optimize-exact", parallel: true, out: "exact.json",
		args:   []string{"optimize", "-instance", "hom.json", "-period", "200", "-latency", "800", "-method", "exact", "-o", "exact.json"},
		stdout: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		file:   "1c41d202a15bfc8b59d0d439c1143308dddbb078677f5980745ff4bc1efb0f4f"},
	{name: "optimize-heuristic", parallel: true,
		args:   []string{"optimize", "-instance", "het.json", "-period", "12", "-method", "heuristic", "-restarts", "3", "-budget", "400", "-search-seed", "7"},
		stdout: "006dfc3fd732eadac1e164d3e0ed6f8891a2376a912a21c25ff6e444d6b26935"},
	{name: "evaluate",
		args:   []string{"evaluate", "-instance", "hom.json", "-solution", "exact.json"},
		stdout: "3d41780c5ea976e136ec0495fe4dcbdb7ddc79d6185e6cf953807fc672fe7fdb"},
	{name: "simulate-reps1", parallel: true,
		args:   []string{"simulate", "-instance", "hom.json", "-period", "200", "-latency", "800", "-datasets", "2000", "-scale", "100", "-seed", "2"},
		stdout: "29b4e793cdb6d9f9bdca0f3ab98434bd2af5e05091c8d7be6daab60ae599e457"},
	{name: "simulate-reps4", parallel: true,
		args:   []string{"simulate", "-instance", "hom.json", "-period", "200", "-latency", "800", "-datasets", "500", "-scale", "100", "-reps", "4"},
		stdout: "a31355c701c4494675bf4dcccb592bb85a33fec9e60739a0f4fcae299c3a5328"},
	{name: "adapt-all", parallel: true,
		args:   []string{"adapt", "-instance", "hom.json", "-period", "200", "-latency", "800", "-lifescale", "3e4", "-replications", "8"},
		stdout: "5cf29164eedea2a18e48822a8bbfd1fb55ebcbbdee8245497b69d3dda2238ebf"},
	{name: "adapt-trace", parallel: true,
		args:   []string{"adapt", "-instance", "hom.json", "-policy", "greedy", "-lifescale", "1e5", "-replications", "3", "-seed", "4", "-trace"},
		stdout: "e60fad2cca1d8f1cf56bb153be4db07e5d0d11fd67166c01de2b7281b6e88a96"},
	{name: "frontier-auto", parallel: true, out: "front.csv",
		args:   []string{"frontier", "-instance", "hom.json", "-floor", "0.999", "-csv", "front.csv"},
		stdout: "99b766ec64f461ab27eeafe3a73d61ea8b7563224e47a6cf4a17ff5745862985",
		file:   "0db252debbab7021fb2b557ef34956f5f1db1ddff9ff35d21e315ecc9e0cb507"},
	{name: "frontier-heuristic", parallel: true,
		args:   []string{"frontier", "-instance", "het.json", "-method", "heuristic", "-restarts", "2", "-budget", "300"},
		stdout: "d0afcc0c1199b3300b37f01346a90d98f10384102af25fd3bee349e1090e9913"},
	{name: "report", out: "report.md",
		args:   []string{"report", "-instance", "hom.json", "-period", "200", "-latency", "800", "-method", "exact", "-simulate", "1000", "-o", "report.md"},
		stdout: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		file:   "6ab8243f47fb26081f06074c211fc7aa33eba003207c498425b2ac0e04345e84"},
}

// TestCLIGolden pins every subcommand that computes an answer byte for
// byte, at -parallel 1 and 8 where it takes one.
func TestCLIGolden(t *testing.T) {
	golden.SkipOffArch(t)
	t.Chdir(t.TempDir())
	for _, c := range cliGolden {
		pars := []string{""}
		if c.parallel {
			pars = []string{"1", "8"}
		}
		for _, p := range pars {
			args := c.args
			if p != "" {
				args = append(args[:len(args):len(args)], "-parallel", p)
			}
			code, stdout, stderr := runCLI(args...)
			if code != 0 {
				t.Fatalf("%s -parallel %q: exit %d: %s", c.name, p, code, stderr)
			}
			golden.Check(t, c.name+" -parallel "+p+" stdout", golden.Sum([]byte(stdout)), c.stdout)
			if c.out != "" {
				b, err := os.ReadFile(c.out)
				if err != nil {
					t.Fatal(err)
				}
				golden.Check(t, c.name+" -parallel "+p+" "+c.out, golden.Sum(b), c.file)
			}
		}
	}
}

// TestLoadInstanceValidates runs every subcommand that reads an
// instance on files it must reject: the error names the file where it
// does not decode, and an invalid instance fails before anything else
// is read or solved. Each invocation also carries a flag or file that
// would fail later, so the instance's error must come first.
func TestLoadInstanceValidates(t *testing.T) {
	dir := t.TempDir()
	sol := filepath.Join(dir, "sol.json")
	if err := os.WriteFile(sol, []byte("[]"), 0o644); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"malformed": "{notjson",
		"negative":  `{"chain":[{"work":1,"out":0}],"platform":{"procs":[{"speed":1,"failRate":-1}],"bandwidth":1,"linkFailRate":0,"maxReplicas":1}}`,
		"chainless": `{"platform":{"procs":[{"speed":1,"failRate":0}],"bandwidth":1,"linkFailRate":0,"maxReplicas":1}}`,
	}
	want := map[string]string{"malformed": "invalid character", "negative": "negative failure rate", "chainless": "chain: empty chain"}
	for name, doc := range files {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{
			{"optimize", "-method", "bogus"}, {"evaluate", "-solution", sol},
			{"simulate", "-scale", "-1", "-method", "bogus"}, {"adapt", "-policy", "bogus"},
			{"frontier", "-method", "bogus"}, {"report", "-method", "bogus"},
		} {
			code, stdout, stderr := runCLI(append(args, "-instance", path)...)
			if code != 1 || stdout != "" || !strings.Contains(stderr, want[name]) {
				t.Errorf("%s on %s: exit %d, stdout %q, stderr %q", args[0], name, code, stdout, stderr)
			}
			if name != "chainless" && !strings.Contains(stderr, path+": ") {
				t.Errorf("%s on %s: error does not name the file: %s", args[0], name, stderr)
			}
		}
	}
}

// TestUsageErrors: a malformed command line exits 2.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"optimize", "-nosuchflag"}} {
		if code, _, stderr := runCLI(args...); code != 2 {
			t.Errorf("relpipe %q: exit %d, want 2: %s", args, code, stderr)
		}
	}
}

func TestCmdOptimizeErrors(t *testing.T) {
	dir := t.TempDir()
	inst := clitest.WriteInstance(t, dir, 3)
	for _, c := range []struct {
		what string
		args []string
	}{
		{"missing -instance", []string{"-period", "10"}},
		{"missing file", []string{"-instance", filepath.Join(dir, "nope.json")}},
		{"bogus method", []string{"-instance", inst, "-method", "bogus"}},
		// Infeasible bounds surface as an error.
		{"infeasible bounds", []string{"-instance", inst, "-period", "0.001"}},
	} {
		if code, _, stderr := runCLI(append([]string{"optimize"}, c.args...)...); code != 1 {
			t.Errorf("%s accepted: exit %d: %s", c.what, code, stderr)
		}
	}
}

func TestCmdEvaluateErrors(t *testing.T) {
	dir := t.TempDir()
	inst := clitest.WriteInstance(t, dir, 3)
	if code, _, stderr := runCLI("evaluate", "-instance", inst); code != 1 {
		t.Errorf("missing -solution accepted: exit %d: %s", code, stderr)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{notjson"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runCLI("evaluate", "-instance", inst, "-solution", bad); code != 1 {
		t.Errorf("corrupt solution accepted: exit %d: %s", code, stderr)
	}
}

// TestOutputWriteErrors: a failed write of an -o or -csv file exits 1.
func TestOutputWriteErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	inst := clitest.WriteInstance(t, t.TempDir(), 11)
	for _, args := range [][]string{
		{"report", "-instance", inst, "-o", "/dev/full"},
		{"optimize", "-instance", inst, "-o", "/dev/full"},
		{"generate", "-o", "/dev/full"},
		{"frontier", "-instance", inst, "-csv", "/dev/full"},
	} {
		if code, _, stderr := runCLI(args...); code != 1 || !strings.Contains(stderr, "no space left") {
			t.Errorf("relpipe %q: exit %d: %s", args, code, stderr)
		}
	}
}

func TestCmdGenerateAndOptimizeAndEvaluate(t *testing.T) {
	dir := t.TempDir()
	instPath := filepath.Join(dir, "gen.json")
	solPath := filepath.Join(dir, "sol.json")
	for _, args := range [][]string{
		{"generate", "-tasks", "8", "-procs", "6", "-seed", "2", "-o", instPath},
		{"optimize", "-instance", instPath, "-period", "200", "-latency", "700", "-method", "exact", "-o", solPath},
		{"evaluate", "-instance", instPath, "-solution", solPath},
	} {
		if code, _, stderr := runCLI(args...); code != 0 {
			t.Fatalf("%s: exit %d: %s", args[0], code, stderr)
		}
	}
	var in relpipe.Instance
	readJSONFile(t, instPath, &in)
	if len(in.Chain) != 8 || in.Platform.P() != 6 {
		t.Fatalf("generated %d tasks / %d procs", len(in.Chain), in.Platform.P())
	}
	var sol relpipe.Solution
	readJSONFile(t, solPath, &sol)
	if sol.Method != "exact" || len(sol.Mapping.Parts) == 0 {
		t.Fatalf("solution = %+v", sol)
	}
}

// TestCmdOptimizeHeuristic500Stages is the large-n acceptance path: a
// 500-stage heterogeneous chain — two orders of magnitude beyond the
// exact solver's ceiling — solved end to end through the CLI with
// -method heuristic at the default budget.
func TestCmdOptimizeHeuristic500Stages(t *testing.T) {
	dir := t.TempDir()
	instPath := filepath.Join(dir, "big.json")
	solPath := filepath.Join(dir, "big-sol.json")
	for _, args := range [][]string{
		{"generate", "-tasks", "500", "-procs", "60", "-het", "-seed", "42", "-o", instPath},
		{"optimize", "-instance", instPath, "-method", "heuristic", "-o", solPath},
	} {
		if code, _, stderr := runCLI(args...); code != 0 {
			t.Fatalf("%s: exit %d: %s", args[0], code, stderr)
		}
	}
	var sol relpipe.Solution
	readJSONFile(t, solPath, &sol)
	if sol.Method != "heuristic" || len(sol.Mapping.Parts) == 0 {
		t.Fatalf("solution = method %q, %d intervals", sol.Method, len(sol.Mapping.Parts))
	}
	var in relpipe.Instance
	readJSONFile(t, instPath, &in)
	if err := sol.Mapping.Validate(in.Chain, in.Platform); err != nil {
		t.Fatalf("500-stage mapping invalid: %v", err)
	}
}

func TestCmdGenerateHeterogeneous(t *testing.T) {
	path := filepath.Join(t.TempDir(), "het.json")
	if code, _, stderr := runCLI("generate", "-het", "-seed", "4", "-o", path); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var in relpipe.Instance
	readJSONFile(t, path, &in)
	if in.Platform.Homogeneous() {
		t.Fatal("-het produced a homogeneous platform")
	}
}
