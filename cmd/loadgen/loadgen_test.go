package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"relpipe/internal/obs"
	"relpipe/internal/service"
)

// sameStream reports whether two streams of one workload produce the
// same setup documents, arrival schedule and closed-loop continuation.
func sameStream(a, b *stream) bool {
	if len(a.setup) != len(b.setup) {
		return false
	}
	for i := range a.setup {
		if a.setup[i].kind != b.setup[i].kind || !bytes.Equal(a.setup[i].body, b.setup[i].body) {
			return false
		}
	}
	aa, ba := a.arrivals(2*time.Second), b.arrivals(2*time.Second)
	if len(aa) != len(ba) {
		return false
	}
	for i := range aa {
		if aa[i].due != ba[i].due || len(aa[i].reqs) != len(ba[i].reqs) {
			return false
		}
		for k := range aa[i].reqs {
			if !bytes.Equal(aa[i].reqs[k].body, ba[i].reqs[k].body) {
				return false
			}
		}
	}
	for i := 0; i < 20; i++ {
		if !bytes.Equal(a.next().body, b.next().body) {
			return false
		}
	}
	return true
}

func TestStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		if !sameStream(newStream(w, 7), newStream(w, 7)) {
			t.Errorf("%s: seed 7 gave two different streams", w.name)
		}
		a, b := newStream(w, 7), newStream(w, 8)
		if sameStream(a, b) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
		a, b = newStream(w, 7), newStream(w, 8)
		if a.arrivals(time.Second)[0].due == b.arrivals(time.Second)[0].due {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
	}
}

func TestPoissonRate(t *testing.T) {
	const rate, draws = 250.0, 100_000
	s := &stream{
		rate:  rate,
		draw:  func(float64, *rand.Rand) []request { return nil },
		reqs:  rand.New(rand.NewPCG(1, 2)),
		clock: rand.New(rand.NewPCG(1, 3)),
	}
	d := time.Duration(draws / rate * float64(time.Second))
	got := float64(len(s.arrivals(d))) / d.Seconds()
	if math.Abs(got-rate)/rate > 0.03 {
		t.Fatalf("mean arrival rate %.2f/s over %d expected draws, want %.0f/s within 3%%", got, draws, rate)
	}
}

// TestClassStratified checks that the class draws of a stream hold each
// class in its share, to within a few requests, at every seed.
func TestClassStratified(t *testing.T) {
	const draws = 1000
	for seed := uint64(1); seed <= 5; seed++ {
		var us []float64
		s := &stream{
			draw: func(u float64, _ *rand.Rand) []request { us = append(us, u); return nil },
			reqs: rand.New(rand.NewPCG(seed, 2)),
		}
		s.class = s.reqs.Float64()
		for range draws {
			s.nextRequests()
		}
		for _, c := range []struct{ lo, hi float64 }{{0, 0.6}, {0.6, 0.725}, {0.725, 0.85}, {0.85, 1}, {0.31, 0.32}} {
			n := 0
			for _, u := range us {
				if u < 0 || u >= 1 {
					t.Fatalf("seed %d: class draw %v outside [0, 1)", seed, u)
				}
				if u >= c.lo && u < c.hi {
					n++
				}
			}
			if want := draws * (c.hi - c.lo); math.Abs(float64(n)-want) > 3 {
				t.Errorf("seed %d: %d of %d class draws in [%v, %v), want %.0f within 3", seed, n, draws, c.lo, c.hi, want)
			}
		}
	}
}

// TestCalibrator checks the window and the trimmed mean of the measured
// speed, the stolen-time scaling, and that a running calibrator records
// samples and reads the host's CPU time.
func TestCalibrator(t *testing.T) {
	t0 := time.Unix(1000, 0)
	c := &calibrator{}
	for i := range 40 {
		ms := 2 * calibRefMs
		switch i {
		case 3:
			ms = 100 // among the slowest 5 %, left out
		case 7:
			ms = calibRefMs / 100 // among the fastest 5 %, left out
		}
		c.samples = append(c.samples, calibSample{t0.Add(time.Duration(i) * time.Millisecond), ms})
	}
	c.samples = append(c.samples, calibSample{t0.Add(time.Hour), 1000}) // outside the window
	if got := c.speed(t0, t0.Add(time.Minute)); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("speed at half the reference = %v, want 0.5", got)
	}
	if got := c.speed(t0.Add(2*time.Hour), t0.Add(3*time.Hour)); got != 1 {
		t.Errorf("speed over a window without samples = %v, want 1", got)
	}
	if got := (phaseScale{speed: 0.5, stealSh: 0.2}).wall(); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("wall-clock factor at half speed with a fifth stolen = %v, want 0.4", got)
	}

	run := startCalibrator()
	ph, err := run.begin()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		run.mu.Lock()
		n := len(run.samples)
		run.mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(calibPeriod)
	}
	sc, err := run.end(ph)
	run.close()
	if err != nil {
		t.Fatal(err)
	}
	if len(run.samples) == 0 || sc.speed <= 0 || math.IsInf(sc.speed, 0) || sc.stealSh < 0 || sc.stealSh > 1 {
		t.Errorf("running calibrator: %d samples, %+v", len(run.samples), sc)
	}
}

// TestSplitArrivals checks that the passes of a timed run send every
// arrival once, in order, each timed from its own segment's start.
func TestSplitArrivals(t *testing.T) {
	const d = 10 * time.Second
	all := newStream(workloads[0], 3).arrivals(d)
	segs := splitArrivals(all, 4, d)
	var joined []arrival
	for j, seg := range segs {
		for _, a := range seg {
			if a.due < 0 || a.due >= d/4 {
				t.Fatalf("segment %d: due %v outside [0, %v)", j, a.due, d/4)
			}
			a.due += time.Duration(j) * d / 4
			joined = append(joined, a)
		}
	}
	if len(joined) != len(all) {
		t.Fatalf("segments hold %d arrivals, the schedule %d", len(joined), len(all))
	}
	for i := range all {
		if joined[i].due != all[i].due || !bytes.Equal(joined[i].reqs[0].body, all[i].reqs[0].body) {
			t.Fatalf("arrival %d differs after splitting", i)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} // unsorted on purpose
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 50, 5}, {ten, 90, 9}, {ten, 91, 10}, {ten, 99, 10}, {ten, 100, 10}, {ten, 10, 1}, {ten, 1, 1},
		{[]float64{42}, 99, 42}, {nil, 50, 0},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{3.5, 1}, 0.375, 4.125},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     float64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 40}}, 80},
		{"overlapping", []interval{{10, 30}, {20, 40}}, 70},
		{"nested", []interval{{10, 50}, {20, 30}}, 60},
		{"past the end", []interval{{90, 120}}, 90},
		{"before the start", []interval{{-20, 5}}, 95},
		{"outside", []interval{{150, 160}}, 100},
		{"covering", []interval{{-1, 101}, {40, 60}}, 0},
		{"unsorted overlap chain", []interval{{50, 70}, {0, 10}, {60, 80}, {5, 20}}, 50},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

// TestAnalyzeTraces checks root self time and child-span collection on
// a trace shaped like the service's: overlapping cache and dedup spans,
// a late marshal span that ends after the root.
func TestAnalyzeTraces(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	tr := obs.Trace{Spans: []obs.Span{
		{SpanID: "c", ParentID: "r", Name: "cache", Start: at(10), End: at(20)},
		{SpanID: "d", ParentID: "r", Name: "dedup.wait", Start: at(15), End: at(60)},
		{SpanID: "s", ParentID: "r", Name: "solve", Start: at(70), End: at(90)},
		{SpanID: "x", ParentID: "s", Name: "search.anneal", Start: at(72), End: at(88)},
		{SpanID: "m", ParentID: "r", Name: "marshal", Start: at(95), End: at(130)},
		{SpanID: "r", Name: "POST /v1/optimize", Start: at(0), End: at(100)},
	}}
	l := analyzeTraces([]obs.Trace{tr})
	// Children cover [10,60] + [70,90] + [95,100] = 75 of the root's 100.
	if len(l.self) != 1 || math.Abs(l.self[0]-25) > 1e-6 {
		t.Fatalf("root self time %v, want [25]", l.self)
	}
	if got := l.named["marshal"]; len(got) != 1 || math.Abs(got[0]-35) > 1e-6 {
		t.Errorf("marshal durations %v, want [35]", got)
	}
	if got := l.named["dedup.wait"]; len(got) != 1 || math.Abs(got[0]-45) > 1e-6 {
		t.Errorf("dedup.wait durations %v, want [45]", got)
	}
}

// TestPromSums parses the service's own exposition and a hand-written
// one with escaped label values and a histogram.
func TestPromSums(t *testing.T) {
	m := service.NewMetrics()
	for i := 0; i < 3; i++ {
		m.CacheHit()
	}
	m.CacheMiss()
	m.DedupJoin()
	m.ClusterForward("http://a", 0.002)
	m.ClusterForward("http://b", 0.004)
	m.ClusterFallback("http://b")
	m.ObserveSolve(0.5)
	m.ObserveSolve(0.25)
	var buf bytes.Buffer
	m.Registry().WritePrometheus(&buf)
	got, err := promSums(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"relpipe_cache_hits_total":           3,
		"relpipe_cache_misses_total":         1,
		"relpipe_dedup_joins_total":          1,
		"relpipe_cluster_forwards_total":     2,
		"relpipe_cluster_fallbacks_total":    1,
		"relpipe_solve_duration_seconds_sum": 0.75,
		"relpipe_solves_total":               0,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}

	text := "# HELP x_total A counter.\n# TYPE x_total counter\n" +
		`x_total{endpoint="/v1/a",code="200"} 4` + "\n" +
		`x_total{endpoint="say \"hi\", then {go}",code="500"} 1.5` + "\n" +
		"h_bucket{le=\"0.1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 0.7\nh_count 3\n\nbare 7\n"
	got, err = promSums(text)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{"x_total": 5.5, "h_bucket": 5, "h_sum": 0.7, "h_count": 3, "bare": 7} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	if _, err := promSums("x_total{a=\"b\"} notanumber\n"); err == nil {
		t.Error("a malformed sample value parsed without error")
	}
}

// TestCompare checks the row statuses and the claim rule on synthetic
// results files.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	if err := os.WriteFile("BENCHMARK.json", []byte(`{"end_to_end": [
		{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "capacity_rps", "unit": "req/s", "better": "higher", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(side string, i int, p50, capacity float64) string {
		path := filepath.Join(dir, side, fmt.Sprintf("run-%02d.json", i))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeJSON(path, report{Workloads: []*result{{
			Workload: "hot-cache",
			Metrics:  metrics{"p50_ms": {p50, "ms"}, "capacity_rps": {capacity, "req/s"}},
		}}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var files []string
	for i := 0; i < 10; i++ {
		// Base p50 1.00-1.09 ms; the change is 20% faster on every pair.
		// Capacity: the change is 15% lower, a regression past 10%.
		files = append(files, write("base", i, 1+float64(i)/100, 1000))
	}
	for i := 0; i < 10; i++ {
		files = append(files, write("change", i, 0.8*(1+float64(i)/100), 850))
	}

	var out bytes.Buffer
	code := compareMain(append([]string{"-claim", "hot-cache/p50_ms"}, files...), &out)
	text := out.String()
	if code != 1 {
		t.Errorf("exit code %d, want 1 (capacity regressed)\n%s", code, text)
	}
	for _, want := range []string{"p50_ms", "capacity_rps", "regressed", "claim: change better in 10 of 10 pairs", ": met"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "p50_ms") && !strings.HasSuffix(line, "ok") {
			t.Errorf("p50 row should be ok: %q", line)
		}
	}
	if code := compareMain([]string{files[0]}, &out); code != 2 {
		t.Errorf("one directory: exit code %d, want 2", code)
	}
}

// benchDecl is the full BENCHMARK.json at the repository root.
type benchDecl struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchDecl(t *testing.T) benchDecl {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d benchDecl
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkDeclaration checks BENCHMARK.json against this package:
// the same workloads, and well-formed names.
func TestBenchmarkDeclaration(t *testing.T) {
	d := loadBenchDecl(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, loadgen runs %v", names, ours)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !metricName.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
	}
	for _, n := range names {
		check(n)
	}
	for _, m := range d.EndToEnd {
		check(m.Name)
	}
	for _, m := range d.PerLayer {
		check(m.Name)
	}
}

// TestSmoke runs every workload through the runner with 1 s phases,
// untraced and traced, and checks structure only: every declared metric
// is produced with its declared unit, nothing undeclared is, no request
// fails and the correctness gate passes. Values are never checked, so a
// loaded machine cannot make it flake.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server processes")
	}
	d := loadBenchDecl(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range d.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		layer[m.Name] = m.Unit
	}
	bin := filepath.Join(t.TempDir(), "serve")
	build := exec.Command("go", "build", "-o", bin, "relpipe/cmd/serve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build cmd/serve: %v\n%s", err, out)
	}
	for _, traced := range []bool{false, true} {
		want := e2e
		if traced {
			want = layer
		}
		cfg := config{serve: bin, open: time.Second, single: time.Second, closed: time.Second, passes: 2, replay: 50, traced: traced}
		for _, w := range workloads {
			res, err := runWorkload(context.Background(), cfg, w, 1)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s (traced %v): attempted %d, failed %d, correct %v",
					w.name, traced, res.Attempted, res.Failed, res.Correct)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s (traced %v): declared metric %s missing", w.name, traced, name)
				} else if m.Unit != unit {
					t.Errorf("%s (traced %v): %s in %q, declared %q", w.name, traced, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok || !metricName.MatchString(name) {
					t.Errorf("%s (traced %v): undeclared or malformed metric %q", w.name, traced, name)
				}
			}
			if traced && (len(res.spans) == 0 || len(res.traces) == 0) {
				t.Errorf("%s: %d replay spans and %d server traces recorded", w.name, len(res.spans), len(res.traces))
			}
		}
	}
}
